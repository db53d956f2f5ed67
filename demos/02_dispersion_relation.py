"""Recover the dispersion relation omega^2 = k^2/(1+k^2) from the integrator.

A single cosine mode evolved linearly oscillates at omega = lambda(k);
fitting the sampled mode amplitude should reproduce it to many digits.
Unlike the classical fourth-order model, omega stays bounded: no
short-wave instability.
"""

import time

import numpy as np

from imbq import dispersion_check

start = time.perf_counter()
print("   k      fitted omega    k/sqrt(1+k^2)    rel error")
for k in (0.125, 1.0, 4.0, 10.0, 100.0):
    fitted = dispersion_check(k)
    expected = k / np.sqrt(1.0 + k * k)
    print(f"{k:7.3f}  {fitted:.12f}  {expected:.12f}  {abs(fitted - expected) / expected:.2e}")
print(f"five RK4 fits took {time.perf_counter() - start:.2f} s")
print("long waves travel at unit speed (omega/k -> 1), short waves freeze (omega -> 1)")
