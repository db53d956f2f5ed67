"""Cross-validate the explicit derivative against the actual solver.

Scaling the box data by eps and Taylor-expanding the flow map, the first
deviation from the free evolution is eps^p/p! times the p-th derivative
at zero. Extracting it from full solver runs and comparing with the
closed-form computation checks both codes at once: the residual shrinks
linearly in eps, and for p = 3 the quadratic coefficient vanishes (there
is no second derivative to see).
"""

from imbq import (
    QuadratureConfig,
    SolverConfig,
    flowmap_derivative_check,
    free_propagator,
    grid_for_boxes,
    make_ip_data,
    sobolev_norm,
    solve,
)

for eps in (4e-3, 2e-3, 1e-3):
    chk = flowmap_derivative_check(N=8, p=2, sign=1, t=0.3, eps=eps)
    print(f"p=2, eps={eps:.0e}: residual {chk.relative_error:.3e}  "
          f"halving ratio {chk.halving_ratio:.3f} (first-order convergence)")

# p = 3: the eps^2 Richardson coefficient is empty because D^2 S(t)(0,0) = 0
grid = grid_for_boxes(8, 3, dxi=1.0 / 32.0)
d = make_ip_data(8, grid)
eps = 1e-2
devs = {}
for e in (eps, eps / 2):
    scaled = d.data.scaled(e)
    traj = solve(scaled, SolverConfig(p=3, sign=1, horizon=0.3))
    u_final, _ = traj.final()
    devs[e] = u_final - free_propagator(scaled, 0.3)
quadratic_part = devs[eps / 2].scaled(8.0) - devs[eps]
print("\np=3: |8 w(eps/2) - w(eps)| / |w(eps)| = %.2e" %
      (sobolev_norm(quadratic_part, 0) / sobolev_norm(devs[eps], 0)))
print("(the eps^2 coefficient of the deviation w is numerically absent)")
