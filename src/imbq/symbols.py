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
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import SpectralField, _sin_over_lambda, lambda_symbol

__all__ = [
    "Symbol",
    "BesovEstimate",
    "KernelCheck",
    "eval_symbol",
    "apply_symbol",
    "besov_seminorm",
    "besov_seminorms",
    "check_kernel_inequality",
    "kernel_ratio_sweep",
    "BesovConvergenceError",
]

SYMBOL_NAMES = ("m1", "m2_plus", "m2_minus", "m3", "P", "Q_t", "R_t", "lambda")
_TIME_FREE = ("m1", "P", "lambda")
_REAL_SYMBOLS = ("m1", "m3", "P", "Q_t", "R_t", "lambda")
_MIN_CELL = 1e-7  # the first node offset of a graded panel, relative to its half length


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
        if self.name in ("m1", "P", "lambda", "m2_plus", "m2_minus", "Q_t"):
            return 1.0
        return abs(self.t)  # m3, R_t

    def __str__(self):
        return self.name if self.t is None else f"{self.name}(t={self.t:g})"


def _symbol_of_lambda(sym: Symbol, lam):
    """The symbol as a function of lam = lambda_symbol(xi), for eval_symbol and the seminorm integrands."""
    name, t = sym.name, sym.t
    if name in ("m1", "P"):
        return lam**2
    if name == "lambda":
        return lam
    if name == "Q_t":
        return np.cos(t * lam)
    if name in ("m3", "R_t"):
        return _sin_over_lambda(lam, t)
    if name == "m2_plus":
        return np.exp(1j * t * lam)
    return np.exp(-1j * t * lam)  # m2_minus


def eval_symbol(sym: Symbol, xi):
    """Evaluate the symbol at frequency ``xi`` (scalar or array).

    The removable singularity of m3/R_t at xi = 0 is handled by the series
    t*(1 - (t*lambda)^2/6 + (t*lambda)^4/120) whenever |t*lambda| < 1e-4.
    """
    out = _symbol_of_lambda(sym, lambda_symbol(np.asarray(xi, dtype=float)))
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

    ``value`` approximates the integral over H_MIN <= |h| <= H_MAX of
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


def _graded_panel(a, b, n: int) -> np.ndarray:
    """Nodes on [a, b] clustered geometrically toward both endpoints.

    ``a`` and ``b`` are arrays of panel ends; row i of the (len(a), 2n+2)
    result holds the sorted nodes of [a_i, b_i].  Both midpoint nodes are
    kept (they agree up to rounding), so a row may repeat a node; the
    repeat adds a zero-width trapezoid.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    half = 0.5 * (b - a)
    k = np.arange(n + 1)
    # geometric offsets from 0 (relative): _MIN_CELL * g^k, normalized to land on 1
    g = (1.0 / _MIN_CELL) ** (1.0 / n)
    rel = _MIN_CELL * g**k
    rel[0] = 0.0
    rel[-1] = 1.0
    left = a + half * rel
    right = b - half * rel[::-1]
    mid_lo = np.minimum(left[:, -1], right[:, 0])
    mid_hi = np.maximum(left[:, -1], right[:, 0])
    left[:, -1], right[:, 0] = mid_lo, mid_hi
    return np.concatenate([left, right], axis=1)


def _squared_difference(sym: Symbol, lam_shifted: np.ndarray, lam: np.ndarray, m=None) -> np.ndarray:
    """|m(xi+h) - m(xi)|^2 from lam_shifted = lambda(xi+h) and lam = lambda(xi), or given values m = m(xi).

    For the phases m2 it is (2 sin(t (lam_shifted - lam)/2))^2: one real sine
    instead of two complex exponentials and a complex abs.
    """
    if not sym.is_real:  # the phases m2
        return (2.0 * np.sin(0.5 * sym.t * (lam_shifted - lam))) ** 2
    if m is None:
        m = _symbol_of_lambda(sym, lam)
    return (_symbol_of_lambda(sym, lam_shifted) - m) ** 2


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights of each row of ``nodes``: the rule on row i is sum_j f_ij w_ij."""
    cells = np.diff(nodes, axis=-1, prepend=nodes[..., :1], append=nodes[..., -1:])  # 0 at both ends
    return 0.5 * (cells[..., :-1] + cells[..., 1:])


def _inner_l2_differences(
    syms: list[Symbol], hs: np.ndarray, extent: float, n: int, right: np.ndarray, lam_right, w_right, m_right
) -> np.ndarray:
    """|| m(.+h) - m(.) ||_{L^2([-extent, extent])} by graded panels, one row per symbol, one column per h.

    The integrand has kinks at xi = 0 and xi = -h (the |xi| corners of
    lambda), so panels break at -extent, -h, 0 and extent and cluster their
    2n + 2 nodes at panel ends.  All h of ``hs`` (0 < h <= extent) are done
    in one array pass; at h = extent the first panel is empty and adds 0.
    Per panel the tables lambda(xi), lambda(xi + h) and the trapezoid weight
    rows are built once for all of ``syms``, and each symbol's integral is
    one weighted row sum.  The panel [-h, 0] is its own mirror: x_j + h =
    -x_{2n+1-j} up to rounding and lambda is even, so its shifted table is
    its lambda row reversed and the integrand is symmetric in j; its first
    n + 1 nodes integrate against the folded weights w_j + w_{2n+1-j}.
    ``right`` = [0, extent], its ``lam_right``, ``w_right`` and each real
    symbol's values ``m_right`` on it are built once per resolution.
    """
    outer = _graded_panel(np.full_like(hs, -extent), -hs, n)
    mirrored = _graded_panel(-hs, np.zeros_like(hs), n)
    lam_mir, w_mir = lambda_symbol(mirrored), _trapezoid_weights(mirrored)
    panels = (  # lambda(xi + h), lambda(xi), weight rows, the real symbols' m(xi) if given
        (lambda_symbol(outer + hs[:, None]), lambda_symbol(outer), _trapezoid_weights(outer), None),
        (lam_mir[:, :n:-1], lam_mir[:, : n + 1], w_mir[:, : n + 1] + w_mir[:, :n:-1], None),
        (lambda_symbol(right + hs[:, None]), lam_right, w_right, m_right),
    )
    totals = np.zeros((len(syms), len(hs)))
    for lam_shifted, lam, w, m in panels:
        for i, sym in enumerate(syms):
            totals[i] += np.einsum("ij,ij->i", _squared_difference(sym, lam_shifted, lam, None if m is None else m[i]), w)
    return np.sqrt(totals)


# h values per array pass of _inner_l2_differences: each (16, 2 n_panel + 2)
# pass stays small in memory
_H_BLOCK = 16
# the seminorm integrates over H_MIN <= |h| <= H_MAX (H_MAX <= XI_EXTENT), truncates the inner
# L^2 integrals at |xi| = XI_EXTENT, and calls an estimate converged once doubling the resolution
# changes it by less than STABILIZATION relative
H_MIN = 1e-3
H_MAX = 1e3
XI_EXTENT = 1e4
STABILIZATION = 0.05


def _derivative_scale(sym: Symbol) -> float:
    # |m'(xi)| <= scale / <xi>^3 for each certified family (conservative)
    if sym.name in ("m1", "P", "lambda"):
        return 2.0
    t = abs(sym.t)
    if sym.name in ("Q_t", "m2_plus", "m2_minus"):
        return t
    return 3.0 * max(t, t**3)


def _besov_values(syms: list[Symbol], h_min: float, h_max: float, resolution: int, extent: float) -> list[float]:
    """Every symbol's seminorm quadrature with ``resolution`` h nodes and nodes per panel."""
    hs = np.geomspace(h_min, h_max, resolution)
    right = _graded_panel([0.0], [extent], resolution)
    lam_right, w_right = lambda_symbol(right), _trapezoid_weights(right)
    m_right = [_symbol_of_lambda(sym, lam_right) if sym.is_real else None for sym in syms]
    inner = np.concatenate(
        [
            _inner_l2_differences(syms, hs[i : i + _H_BLOCK], extent, resolution, right, lam_right, w_right, m_right)
            for i in range(0, resolution, _H_BLOCK)
        ],
        axis=1,
    )
    vals = inner / hs**1.5
    # the symbols are even in xi, so the h-integrand is even: double one side;
    # trapezoid in y = log h
    return [2.0 * float(np.trapezoid(v * hs, np.log(hs))) for v in vals]


def besov_seminorms(syms: Iterable[Symbol], resolution: int = 160, strict: bool = False) -> list[BesovEstimate]:
    """Estimate the translation-difference seminorm of every symbol of ``syms``, in order.

    ``resolution`` sets both the number of h quadrature nodes on
    [:data:`H_MIN`, :data:`H_MAX`] and the node count per graded xi panel;
    the estimate is recomputed at double resolution and flagged unconverged
    if the two differ by more than :data:`STABILIZATION` relative (with
    ``strict=True`` the first unconverged symbol, in the order of ``syms``,
    raises instead); a ``resolution`` that is not an integer >= 2 raises
    ``ValueError``.  The inner L^2 integrals truncate at |xi| =
    :data:`XI_EXTENT`; the analytic bound on the discarded tail is recorded.
    They are evaluated for blocks of 16 h values per array pass, one row per
    h; every symbol shares the panels, lambda tables and trapezoid weight
    rows, and the mirrored panel [-h, 0] is integrated on half its nodes.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    resolution = int(resolution)
    syms = list(syms)
    coarse = _besov_values(syms, H_MIN, H_MAX, resolution, XI_EXTENT)
    fine = _besov_values(syms, H_MIN, H_MAX, 2 * resolution, XI_EXTENT)
    safe = max(XI_EXTENT - H_MAX, 1.0)
    estimates = []
    for sym, c, f in zip(syms, coarse, fine):
        change = abs(f - c) / max(abs(f), 1e-300)
        converged = change < STABILIZATION or f < 1e-12
        if strict and not converged:
            raise BesovConvergenceError(f"seminorm of {sym} changed by {change:.1%} under resolution doubling")
        # tail: |m(xi+h)-m(xi)| <= h * scale/<xi>^3 for |xi| >= XI_EXTENT - H_MAX
        c = _derivative_scale(sym)
        tail = 4.0 * c * math.sqrt(2.0 / 5.0) * safe**-2.5 * (math.sqrt(H_MAX) - math.sqrt(H_MIN))
        estimates.append(
            BesovEstimate(
                symbol=sym.name,
                t=sym.t,
                value=f,
                resolution=resolution,
                xi_extent=XI_EXTENT,
                converged=bool(converged),
                refinement_change=change,
                tail_bound=tail,
            )
        )
    return estimates


def besov_seminorm(sym: Symbol, *args, **kwargs) -> BesovEstimate:
    """Estimate the translation-difference seminorm of one symbol: :func:`besov_seminorms` of ``[sym]``."""
    return besov_seminorms([sym], *args, **kwargs)[0]


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
