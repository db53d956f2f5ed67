"""Solve a small-data Cauchy problem two ways and compare.

The Picard solver iterates the Duhamel map on windows sized by its
contraction, with Chebyshev-Lobatto nodes sized by accuracy; the RK4
integrator marches the first-order system in frequency space. For smooth
data they should agree to quadrature accuracy, and the conserved energy
should barely drift.
"""

import time

import numpy as np

from imbq import (
    SolverConfig,
    energy_series,
    gaussian_data,
    make_grid,
    rk4_solve,
    sobolev_norm,
    solve,
    sup_norm,
)

grid = make_grid(16.0, 512)
data = gaussian_data(grid, amplitude=0.2, width=1.0, velocity_amplitude=0.1)
cfg = SolverConfig(p=2, sign=1, horizon=0.25)

print("data size: |u0|_L2 = %.4f, sup|u0| = %.4f" % (sobolev_norm(data.u0, 0), sup_norm(data.u0)))

start = time.perf_counter()
picard = solve(data, cfg)
elapsed = time.perf_counter() - start
iterations = sum(rep.iterations for rep in picard.window_reports)
windows = len(picard.window_reports)
nodes = (len(picard.times) - 1) // windows + 1  # neighbouring windows share their edge node
print(f"picard: {windows} window(s) of {nodes} Chebyshev-Lobatto nodes, {iterations} iterations in {elapsed:.2f} s")
for i, rep in enumerate(picard.window_reports):
    print(f"  window {i}: {rep.iterations} iterations, first ratio {rep.contraction_ratio:.2e}")

rk = rk4_solve(data, cfg, dt=1e-3, store_stride=50)

u_picard, _ = picard.state(-1)
u_rk, _ = rk.state(-1)
diff = u_picard - u_rk
print("relative L2 difference at t=0.25: %.2e" % (sobolev_norm(diff, 0) / sobolev_norm(u_rk, 0)))

energies = energy_series(rk, cfg.p, cfg.sign)
drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
print("energy drift along the RK4 trajectory: %.2e" % drift)
