"""Fourier multiplier symbols and their numerical certification.

The three families certified here are the symbols steering the linear flow:
``m1 = lambda^2`` (identical to the symbol of P), the unimodular phases
``m2 = exp(+-i t lambda)``, and ``m3 = sin(t lambda)/lambda`` (identical to
the symbol of R_t).  ``Q_t = cos(t lambda)`` is carried along since the
solver uses it.

Certification is desk-scale, not proof-grade: "bounded up to a constant"
claims are measured as boundedness of a ratio over a sweep, with the
constant reported, never asserted as an equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import SpectralField, _sin_over_lambda, lambda_symbol

__all__ = [
    "Symbol",
    "BesovEstimate",
    "KernelCheck",
    "eval_symbol",
    "apply_symbol",
    "besov_seminorm",
    "check_kernel_inequality",
    "kernel_ratio_sweep",
    "symbol_difference_bound",
    "BesovConvergenceError",
]

SYMBOL_NAMES = ("m1", "m2_plus", "m2_minus", "m3", "P", "Q_t", "R_t", "lambda")
_TIME_FREE = ("m1", "P", "lambda")
_REAL_SYMBOLS = ("m1", "m3", "P", "Q_t", "R_t", "lambda")


class BesovConvergenceError(RuntimeError):
    """The seminorm quadrature failed to stabilize under refinement."""


@dataclass(frozen=True)
class Symbol:
    """One of the named multiplier symbols, with its time parameter if any."""

    name: str
    t: float | None = None

    def __post_init__(self):
        if self.name not in SYMBOL_NAMES:
            raise ValueError(f"unknown symbol {self.name!r}, expected one of {SYMBOL_NAMES}")
        if self.name in _TIME_FREE:
            if self.t is not None:
                raise ValueError(f"symbol {self.name} takes no time parameter")
        elif self.t is None:
            raise ValueError(f"symbol {self.name} requires a time parameter")

    @property
    def is_real(self) -> bool:
        return self.name in _REAL_SYMBOLS

    def pointwise_bound(self) -> float:
        """Sharp pointwise bound on |symbol|, assertable at any frequency."""
        if self.name in ("m1", "P", "lambda"):
            return 1.0
        if self.name in ("m2_plus", "m2_minus", "Q_t"):
            return 1.0
        return abs(self.t)  # m3, R_t

    def __str__(self):
        return self.name if self.t is None else f"{self.name}(t={self.t:g})"


def eval_symbol(sym: Symbol, xi):
    """Evaluate the symbol at frequency ``xi`` (scalar or array).

    The removable singularity of m3/R_t at xi = 0 is handled by the series
    t*(1 - (t*lambda)^2/6 + (t*lambda)^4/120) whenever |t*lambda| < 1e-4.
    """
    xi = np.asarray(xi, dtype=float)
    lam = lambda_symbol(xi)
    name, t = sym.name, sym.t
    if name in ("m1", "P"):
        out = lam**2
    elif name == "lambda":
        out = lam
    elif name == "Q_t":
        out = np.cos(t * lam)
    elif name in ("m3", "R_t"):
        out = _sin_over_lambda(lam, t)
    elif name == "m2_plus":
        out = np.exp(1j * t * lam)
    else:  # m2_minus
        out = np.exp(-1j * t * lam)
    return out if out.ndim else out[()]


def apply_symbol(sym: Symbol, f: SpectralField) -> SpectralField:
    """Multiply the field's amplitudes nodewise by the symbol.

    Real (even) symbols preserve Hermitian symmetry, so the real_valued
    flag survives; the complex phases m2 drop it.
    """
    out = f.amplitudes * eval_symbol(sym, f.grid.xi)
    return SpectralField(f.grid, out, real_valued=f.real_valued and sym.is_real)


# ----------------------------------------------------------------------
# Besov seminorm of a symbol


@dataclass(frozen=True)
class BesovEstimate:
    """Quadrature estimate of the translation-difference seminorm of a symbol.

    ``value`` approximates the integral over h_min <= |h| <= h_max of
    ||m(.+h) - m(.)||_{L^2} / |h|^{3/2}, the one-dimensional seminorm that
    controls the symbol's multiplier norm on L^inf.
    """

    symbol: str
    t: float | None
    value: float
    resolution: int
    xi_extent: float
    converged: bool
    refinement_change: float
    tail_bound: float


def _graded_panel(a: float, b: float, n: int, min_cell: float = 1e-7) -> np.ndarray:
    """Nodes on [a, b] clustered geometrically toward both endpoints."""
    half = 0.5 * (b - a)
    k = np.arange(n + 1)
    # geometric offsets from 0 (relative): min_cell * g^k, normalized to land on 1
    g = (1.0 / min_cell) ** (1.0 / n)
    rel = min_cell * g**k
    rel[0] = 0.0
    rel[-1] = 1.0
    left = a + half * rel
    right = b - half * rel[::-1]
    return np.unique(np.concatenate([left, right]))


def _trapezoid(values: np.ndarray, nodes: np.ndarray) -> float:
    return float(np.trapezoid(values, nodes))


def _inner_l2_difference(rule: Callable[[np.ndarray], np.ndarray], h: float, extent: float, n_panel: int) -> float:
    """|| m(.+h) - m(.) ||_{L^2([-extent, extent])} by graded panels.

    The integrand has kinks at xi = 0 and xi = -h (the |xi| corners of
    lambda), so panels break there and cluster nodes at panel ends.
    """
    breaks = sorted({-extent, -h, 0.0, extent})
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        nodes = _graded_panel(a, b, n_panel)
        diff = rule(nodes + h) - rule(nodes)
        total += _trapezoid(np.abs(diff) ** 2, nodes)
    return math.sqrt(total)


def _derivative_scale(sym: Symbol) -> float:
    # |m'(xi)| <= scale / <xi>^3 for each certified family (conservative)
    if sym.name in ("m1", "P", "lambda"):
        return 2.0
    t = abs(sym.t)
    if sym.name in ("Q_t", "m2_plus", "m2_minus"):
        return t
    return 3.0 * max(t, t**3)


def _besov_value(sym: Symbol, h_min: float, h_max: float, n_h: int, n_panel: int, extent: float) -> float:
    rule = lambda xi: eval_symbol(sym, xi)
    hs = np.geomspace(h_min, h_max, n_h)
    vals = np.array([_inner_l2_difference(rule, h, extent, n_panel) / h**1.5 for h in hs])
    # the symbols are even in xi, so the h-integrand is even: double one side;
    # trapezoid in y = log h
    return 2.0 * _trapezoid(vals * hs, np.log(hs))


def besov_seminorm(
    sym: Symbol,
    h_min: float = 1e-3,
    h_max: float = 1e3,
    resolution: int = 160,
    xi_extent: float = 1e4,
    stabilization: float = 0.05,
    strict: bool = False,
) -> BesovEstimate:
    """Estimate the translation-difference seminorm of a symbol.

    ``resolution`` sets both the number of h quadrature nodes and the node
    count per graded xi panel; the estimate is recomputed at double
    resolution and flagged unconverged if the two differ by more than
    ``stabilization`` relative (with ``strict=True`` this raises instead of
    flagging).  The inner L^2 integrals truncate at |xi| = xi_extent; the
    analytic bound on the discarded tail is recorded.
    """
    if not 0 < h_min < h_max:
        raise ValueError("need 0 < h_min < h_max")
    if h_max > xi_extent:
        raise ValueError("h_max must not exceed the inner xi extent")
    coarse = _besov_value(sym, h_min, h_max, resolution, resolution, xi_extent)
    fine = _besov_value(sym, h_min, h_max, 2 * resolution, 2 * resolution, xi_extent)
    change = abs(fine - coarse) / max(abs(fine), 1e-300)
    converged = change < stabilization or fine < 1e-12
    if strict and not converged:
        raise BesovConvergenceError(
            f"seminorm of {sym} changed by {change:.1%} under resolution doubling"
        )
    # tail: |m(xi+h)-m(xi)| <= h * scale/<xi>^3 for |xi| >= extent - h_max
    c = _derivative_scale(sym)
    safe = max(xi_extent - h_max, 1.0)
    tail = 4.0 * c * math.sqrt(2.0 / 5.0) * safe**-2.5 * (math.sqrt(h_max) - math.sqrt(h_min))
    return BesovEstimate(
        symbol=sym.name,
        t=sym.t,
        value=fine,
        resolution=resolution,
        xi_extent=xi_extent,
        converged=bool(converged),
        refinement_change=change,
        tail_bound=tail,
    )


# ----------------------------------------------------------------------
# kernel inequality


class KernelCheck(NamedTuple):
    lhs: float
    rhs_bound: float
    ratio: float


def check_kernel_inequality(a: float, b: float) -> KernelCheck:
    """Check of  int dz / (<z-a>^2 <z-b>^4)  <=  C / <a-b>^2.

    The integral has the closed form pi (d^2 + 12) / (2 (d^2 + 4)^2) with
    d = a - b (the Fourier transforms of the two factors are
    pi e^{-|k|} and (pi/2)(1 + |k|) e^{-|k|}), evaluated through
    r = 1/(d^2 + 4) so that no separation overflows.  Returns the integral,
    the unscaled bound 1/<a-b>^2, and their ratio; sweeping (a, b) and
    observing a bounded ratio certifies the inequality with a measured
    constant.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("a and b must be finite")
    d2 = (a - b) * (a - b)
    r = 1.0 / (d2 + 4.0)
    return KernelCheck(
        lhs=0.5 * math.pi * r * (1.0 + 8.0 * r),
        rhs_bound=1.0 / (1.0 + d2),
        ratio=0.5 * math.pi * (1.0 - 3.0 * r) * (1.0 + 8.0 * r),
    )


def kernel_ratio_sweep(offsets) -> list[KernelCheck]:
    """Kernel checks over pairs (a, b) = (d, 0); the integral depends only on a-b."""
    return [check_kernel_inequality(float(d), 0.0) for d in offsets]


# ----------------------------------------------------------------------
# stable |lambda(a) - lambda(b)|


def symbol_difference_bound(a: float, b: float) -> float:
    """|lambda(a) - lambda(b)| via the cancellation-free algebraic identity.

    lambda(a) - lambda(b) = (a-b)(a+b) / (<a><b>(|a|<b> + |b|<a>)), exact
    for all real a, b; evaluating the (a-b) factor directly avoids the
    catastrophic cancellation of the naive difference for large a close to b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bra = np.hypot(1.0, a)
    brb = np.hypot(1.0, b)
    denom = bra * brb * (np.abs(a) * brb + np.abs(b) * bra)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs((a - b) * (a + b)) / denom
    out = np.where(denom == 0.0, 0.0, out)
    return out if out.ndim else float(out[()])
