"""The norm-inflation experiment: roughness of the flow map below L^2.

Box data at frequency N has H^s size ~ N^s; for s < 0 it shrinks as N
grows, while the p-th derivative of the flow map keeps an order-one
output on a fixed low band (even p) or an N^s-weighted one near the box
(odd p). The ratio therefore blows up like a power of N, and its log-log
slope is the measurable fingerprint: -s*p for even p, -s*(p-1) for odd.
The derivative is computed on the two boxes only, so its cost does not
grow with N and the sweep spans a factor of 32 in N.
"""

import time

from imbq import ratio_sweep
from imbq.cli import emit_plot

start = time.perf_counter()
for p in (2, 3):
    rep = ratio_sweep([16, 32, 64, 128, 256, 512], p=p, sign=1, s=-0.5, t=0.5)
    kind = "even" if p % 2 == 0 else "odd"
    print(f"p = {p} ({kind} case), band = "
          f"[{rep.rows[0].band_lo:g}, {rep.rows[0].band_hi:g}]"
          + (" fixed" if p % 2 == 0 else " tracking the box"))
    for r in rep.rows:
        print(f"   N = {r.N:3d}: numerator {r.numerator:.4e}  denominator {r.denominator:.4e}"
              f"  ratio {r.ratio:.4e}")
    print(f"   fitted slope {rep.slope:.3f} vs expected {rep.expected_slope:g} "
          f"(residual {rep.residual:.3f})\n")
    if p == 2:
        emit_plot(rep, "norm_inflation_p2.svg")
        print("   wrote norm_inflation_p2.svg\n")

print(f"both sweeps took {time.perf_counter() - start:.2f} s")
print("smaller s or larger p steepens the blow-up; at s >= 0 the same sweep decays instead")
