"""Frequency-box data and the p-th derivative of the flow map at zero.

The rough-data experiments drive the solver's flow map S(t)(u0, u1) with
data concentrated on the unit frequency boxes +-[N, N+1):

    u0_hat = 1_{B_N} + 1_{-B_N},      u1_hat = -i lambda (1_{B_N} - 1_{-B_N}),

whose free evolution is the pure phase e^{-i t lambda} on B_N (and its
conjugate mirror).  The p-th directional derivative of the flow map at the
origin along this data is an explicit oscillatory integral over a p-fold
frequency convolution; its restricted H^s size, divided by the p-th power
of the data's H^s size, grows like a power of N for s < 0.  Measuring that
growth exponent is the point of this module.

Two independent routes compute the derivative: a convolution confined to
the two boxes, with the solver's Chebyshev-Lobatto time quadrature
(:func:`compute_Ap`), and a direct nested sum with the time integral in
closed form (:func:`brute_force_Ap`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    BandWindow,
    FrequencyGrid,
    SpectralField,
    _fast_length,
    lambda_symbol,
    restricted_norm,
    sobolev_norm,
)
from .solver import CauchyData, SolverConfig, free_propagator, solve
from .solver import _lobatto_nodes, _lobatto_weights, _nested_difference

__all__ = [
    "IPData",
    "QuadratureConfig",
    "InflationRow",
    "InflationReport",
    "DerivativeCheck",
    "EVEN_BAND",
    "make_ip_data",
    "grid_for_boxes",
    "free_evolution_hat",
    "generic_term_real",
    "generic_term_complex",
    "compute_Ap",
    "brute_force_Ap",
    "inflation_ratio",
    "ratio_sweep",
    "flowmap_derivative_check",
    "QuadratureError",
]

EVEN_BAND = BandWindow(0.25, 0.5)


class QuadratureError(RuntimeError):
    """The tau-rule of :func:`compute_Ap` differs from its nested rule by more than 1e-6 relative."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the derivative computation.

    ``tau_nodes`` counts Chebyshev-Lobatto nodes in tau, odd (its even ones carry the nested rule) and >= 5.
    ``dxi`` must divide 1 so the unit boxes are resolved by whole bins.
    """

    tau_nodes: int = 65
    dxi: float = 1.0 / 64.0

    def __post_init__(self):
        if not isinstance(self.tau_nodes, (int, np.integer)) or self.tau_nodes % 2 == 0 or self.tau_nodes < 5:
            raise ValueError(f"tau_nodes must be an odd integer >= 5, got {self.tau_nodes!r}")
        if abs(1.0 / self.dxi - round(1.0 / self.dxi)) > 1e-9:
            raise ValueError(f"dxi must divide 1 exactly, got {self.dxi}")


@dataclass(frozen=True)
class IPData:
    """Realized box data on a grid: masks of the two boxes plus the CauchyData."""

    N: int
    grid: FrequencyGrid
    data: CauchyData
    plus_mask: np.ndarray = field(repr=False)
    minus_mask: np.ndarray = field(repr=False)


def grid_for_boxes(n_max: int, p: int, dxi: float = 1.0 / 64.0) -> FrequencyGrid:
    """Default experiment grid: extent p*(n_max + 2) + 2 at spacing dxi."""
    extent = p * (n_max + 2) + 2
    node_count = int(round(2 * extent / dxi))
    return FrequencyGrid(dxi=dxi, node_count=node_count + node_count % 2)


def make_ip_data(N: int, grid: FrequencyGrid) -> IPData:
    """Box data with u0_hat the indicator of [N, N+1) union its mirror.

    Bins are left-closed on the positive side and mirrored exactly on the
    negative side (so Hermitian symmetry is exact and the box mass is
    exactly 1 per box).  Requires 1/dxi integer and the box inside the grid.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    bins_per_unit = 1.0 / grid.dxi
    if abs(bins_per_unit - round(bins_per_unit)) > 1e-9:
        raise ValueError(f"grid spacing {grid.dxi} does not divide 1")
    if N + 1 >= grid.extent:
        raise ValueError(f"box [{N}, {N + 1}] falls outside the grid extent {grid.extent}")
    xi = grid.xi
    plus = (xi >= N) & (xi < N + 1)
    # mirror node of index k is M - k; the leftmost node (k = 0) has no partner
    minus = np.zeros_like(plus)
    minus[1:] = plus[1:][::-1]
    lam = lambda_symbol(xi)
    amp0 = plus.astype(np.complex128) + minus.astype(np.complex128)
    amp1 = -1j * lam * (plus.astype(np.complex128) - minus.astype(np.complex128))
    data = CauchyData(
        SpectralField(grid, amp0, real_valued=True),
        SpectralField(grid, amp1, real_valued=True),
    )
    return IPData(N=N, grid=grid, data=data, plus_mask=plus, minus_mask=minus)


def free_evolution_hat(d: IPData, t: float) -> SpectralField:
    """Closed form of the free flow on box data: pure phases on the boxes."""
    lam = lambda_symbol(d.grid.xi)
    amp = np.exp(-1j * t * lam) * d.plus_mask + np.exp(1j * t * lam) * d.minus_mask
    return SpectralField(d.grid, amp, real_valued=True)


# ----------------------------------------------------------------------
# the generic oscillatory time integral


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


def generic_term_real(alpha, beta, t):
    """Re of int_0^t sin(alpha (t - tau)) e^{i beta tau} dtau: the real part
    (alpha t^2/2) sinc((alpha+beta) t/2) sinc((alpha-beta) t/2) of
    :func:`generic_term_complex`, which equals
    alpha (cos(beta t) - cos(alpha t)) / (alpha^2 - beta^2) away from
    |alpha| = |beta| and t sin(alpha t)/2 on it, with no cancellation near it.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return generic_term_complex(alpha, beta, t).real


def generic_term_complex(alpha, beta, t):
    """Full complex value of int_0^t sin(alpha (t - tau)) e^{i beta tau} dtau.

    Stable product-of-sinc forms, valid through both degeneracies
    beta = +-alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    plus = (alpha + beta) * t / 2.0
    minus = (alpha - beta) * t / 2.0
    re = (alpha * t**2 / 2.0) * _sinc(plus) * _sinc(minus)
    im = (t / 2.0) * (np.cos(minus) * _sinc(plus) - np.cos(plus) * _sinc(minus))
    out = re + 1j * im
    return out if out.ndim else complex(out[()])


# ----------------------------------------------------------------------
# the p-th derivative, FFT route


def _box_slice(mask: np.ndarray) -> slice:
    idx = np.flatnonzero(mask)
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _box_power_terms(d: IPData, g_plus: np.ndarray, g_minus: np.ndarray, p: int):
    """p-fold convolution power of a spectrum supported on the two boxes.

    ``g_plus`` and ``g_minus`` hold the values on the plus and minus box
    (last axis; leading axes are batched).  The power is the binomial sum
    over k of P^{*k} * M^{*(p-k)}; each term is one transform product of
    the smallest 5-smooth length that holds its p*(L-1)+1 nodes
    (:func:`_fast_length`), so the cost does not depend on the grid.  Yields
    ``(lo, hi, values)``: each term clipped to the grid nodes [lo, hi).
    Equals the nested dxi^{p-1}-weighted node sum times (1/2pi)^{p-1}: the
    normalization the flow map itself produces for the transform of a
    pointwise p-th power, which keeps the derivative comparable to the
    solver extraction in :func:`flowmap_derivative_check`.
    """
    m = d.grid.node_count
    i_plus, i_minus = _box_slice(d.plus_mask).start, _box_slice(d.minus_mask).start
    L = g_plus.shape[-1]  # the minus box mirrors the plus box node for node
    width = p * (L - 1) + 1
    n_fft = _fast_length(width)
    f_plus = np.fft.fft(g_plus, n_fft, axis=-1)
    f_minus = np.fft.fft(g_minus, n_fft, axis=-1)
    scale = (d.grid.dxi / (2.0 * np.pi)) ** (p - 1)
    for k in range(p + 1):
        start = k * i_plus + (p - k) * i_minus - (p - 1) * (m // 2)
        lo, hi = max(start, 0), min(start + width, m)
        if lo < hi:
            term = np.fft.ifft(f_plus**k * f_minus ** (p - k), axis=-1)[..., lo - start : hi - start]
            yield lo, hi, (math.comb(p, k) * scale) * term


def compute_Ap(
    d: IPData, p: int, sign: int, t: float, q: QuadratureConfig | None = None
) -> SpectralField:
    """p-th derivative of the flow map at zero along the box data, at time t.

    At each of ``q.tau_nodes`` Chebyshev-Lobatto nodes tau of [0, t] the free evolution's spectrum,
    supported on the two boxes, is raised to the p-th convolution power box by box, and weighted by
    -sign * p! * lambda * sin((t - tau) lambda); the part of the power beyond the grid is dropped.
    The solver's Lobatto rule integrates over tau; its change from the nested (n+1)/2-node rule on
    the even nodes, which needs no further transform, must be at most 1e-6 relative, else
    :class:`QuadratureError`.
    """
    q = q or QuadratureConfig()
    if p < 2:
        raise ValueError("p must be >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return SpectralField.zero(d.grid)
    taus = _lobatto_nodes(q.tau_nodes, t)
    row = _lobatto_weights(q.tau_nodes, t, t)
    weights = np.stack([row, _nested_difference(row, t, t)])
    lam = lambda_symbol(d.grid.xi)
    g_plus = np.exp(-1j * np.outer(taus, lam[_box_slice(d.plus_mask)]))
    g_minus = np.exp(1j * np.outer(taus, lam[_box_slice(d.minus_mask)]))
    accum = np.zeros((2, d.grid.node_count), dtype=np.complex128)
    for lo, hi, term in _box_power_terms(d, g_plus, g_minus, p):
        accum[:, lo:hi] += weights @ (np.sin(np.outer(t - taus, lam[lo:hi])) * term)
    value, change = -sign * math.factorial(p) * lam * accum
    if np.linalg.norm(change) > 1e-6 * np.linalg.norm(value):
        raise QuadratureError(
            f"time quadrature changed by more than 1e-6 relative from the nested "
            f"{(q.tau_nodes + 1) // 2}-node rule (tau_nodes={q.tau_nodes})"
        )
    return SpectralField(d.grid, value, real_valued=True)


# ----------------------------------------------------------------------
# the p-th derivative, direct-sum oracle


def brute_force_Ap(d: IPData, p: int, sign: int, t: float) -> SpectralField:
    """Direct nested summation over the box nodes, exact in the time variable.

    Each cell (xi_1, ..., xi_p) of box nodes adds the closed-form time
    integral with alpha = lambda(sum xi_j) and beta = -sum sign(xi_j)
    lambda(xi_j) at the node of sum xi_j.  Tractable for p in {2, 3} on
    coarse grids; guards the FFT route against scaling and placement
    mistakes.
    """
    if p not in (2, 3):
        raise ValueError("brute force supports p in {2, 3}")
    grid = d.grid
    m = grid.node_count
    xi = grid.xi
    lam = lambda_symbol(xi)
    signed_lam = np.where(d.plus_mask, lam, -lam)
    out = np.zeros(m, dtype=np.complex128)
    scale = (grid.dxi / (2.0 * np.pi)) ** (p - 1)
    for cell in itertools.product(np.flatnonzero(d.plus_mask | d.minus_mask), repeat=p):
        k = sum(cell) - (p - 1) * (m // 2)
        if 0 <= k < m:
            alpha = lambda_symbol(sum(xi[i] for i in cell))
            beta = -sum(signed_lam[i] for i in cell)
            out[k] += scale * generic_term_complex(alpha, beta, t)
    out *= -sign * math.factorial(p) * lam
    return SpectralField(grid, out, real_valued=True)


# ----------------------------------------------------------------------
# ratios and sweeps


@dataclass(frozen=True)
class InflationRow:
    N: int
    band_lo: float
    band_hi: float
    numerator: float
    denominator: float
    ratio: float


@dataclass(frozen=True)
class InflationReport:
    """Per-N inflation ratios plus the fitted log-log growth exponent."""

    p: int
    s: float
    t: float
    sign: int
    rows: tuple[InflationRow, ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    expected_slope: float

    def passes(self, slope_tol: float = 0.2) -> bool:
        return self.slope is not None and abs(self.slope - self.expected_slope) <= slope_tol


def _band_for(p: int, N: int) -> BandWindow:
    return EVEN_BAND if p % 2 == 0 else BandWindow(float(N), float(N + 1))


def inflation_ratio(
    d: IPData, p: int, sign: int, s: float, t: float, q: QuadratureConfig | None = None
) -> InflationRow:
    """Restricted H^s size of the derivative over the p-th power of the data size.

    The restriction band is [1/4, 1/2] for even p (where only balanced sign
    patterns land) and [N, N+1] for odd p.
    """
    band = _band_for(p, d.N)
    ap = compute_Ap(d, p, sign, t, q)
    numerator = restricted_norm(ap, band, s)
    denominator = (sobolev_norm(d.data.u0, s) + sobolev_norm(d.data.u1, s)) ** p
    return InflationRow(
        N=d.N,
        band_lo=band.lo,
        band_hi=band.hi,
        numerator=numerator,
        denominator=denominator,
        ratio=numerator / denominator,
    )


def expected_slope(p: int, s: float) -> float:
    return -s * p if p % 2 == 0 else -s * (p - 1)


def ratio_sweep(
    n_list,
    p: int,
    sign: int,
    s: float,
    t: float,
    q: QuadratureConfig | None = None,
    rows: list[InflationRow] | None = None,
) -> InflationReport:
    """Inflation ratios over an increasing list of N, with a log-log slope fit.

    All N share one grid sized by the largest; pass precomputed ``rows``
    (e.g. from a worker pool) to skip the computation and just assemble.
    """
    if any(n != int(n) for n in n_list):
        raise ValueError("N values must be whole numbers")
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("N list must be strictly increasing")
    q = q or QuadratureConfig()
    if rows is None:
        grid = grid_for_boxes(max(n_list), p, q.dxi)
        rows = [inflation_ratio(make_ip_data(n, grid), p, sign, s, t, q) for n in n_list]
    rows = sorted(rows, key=lambda r: r.N)
    slope = intercept = residual = None
    if len(rows) >= 3:
        x = np.log([r.N for r in rows])
        y = np.log([r.ratio for r in rows])
        coeffs = np.polyfit(x, y, 1)
        slope = float(coeffs[0])
        intercept = float(coeffs[1])
        residual = float(np.sqrt(np.mean((np.polyval(coeffs, x) - y) ** 2)))
    return InflationReport(
        p=p,
        s=s,
        t=t,
        sign=sign,
        rows=tuple(rows),
        slope=slope,
        intercept=intercept,
        residual=residual,
        expected_slope=expected_slope(p, s),
    )


# ----------------------------------------------------------------------
# cross-validation of the solver against the derivative


@dataclass(frozen=True)
class DerivativeCheck:
    """Residual of the solver-extracted derivative against compute_Ap."""

    relative_error: float
    halving_ratio: float
    eps: float


def _solver_residual(
    d: IPData, p: int, sign: int, t: float, eps: float, ap: SpectralField, cfg: SolverConfig
) -> float:
    scaled = d.data.scaled(eps)
    traj = solve(scaled, cfg)
    u_final, _ = traj.state(traj.index_at(t))
    free = free_propagator(scaled, t)
    extracted = (u_final - free).scaled(math.factorial(p) / eps**p)
    return sobolev_norm(extracted - ap, 0.0) / sobolev_norm(ap, 0.0)


def flowmap_derivative_check(
    N: int,
    p: int,
    sign: int,
    t: float,
    eps: float,
    q: QuadratureConfig | None = None,
) -> DerivativeCheck:
    """Run the full solver on eps-scaled box data and extract the p-th term.

    (u(t) - eps*free(t)) * p!/eps^p converges to the derivative field at
    rate O(eps); the check returns the relative L^2 residual at ``eps`` and
    the ratio of residuals at eps and eps/2 (expected near 2).
    """
    q = q or QuadratureConfig()
    grid = grid_for_boxes(N, p, q.dxi)
    d = make_ip_data(N, grid)
    ap = compute_Ap(d, p, sign, t, q)
    cfg = SolverConfig(p=p, sign=sign, horizon=t)
    err_full = _solver_residual(d, p, sign, t, eps, ap, cfg)
    err_half = _solver_residual(d, p, sign, t, eps / 2.0, ap, cfg)
    return DerivativeCheck(
        relative_error=err_full,
        halving_ratio=err_full / err_half,
        eps=eps,
    )
