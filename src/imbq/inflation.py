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

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .solver import _flow_table, _FlowTable, _free, _lobatto_nodes, _lobatto_weights, _nested_difference

__all__ = [
    "IPData",
    "QuadratureConfig",
    "InflationRow",
    "InflationReport",
    "DerivativeCheck",
    "EVEN_BAND",
    "make_ip_data",
    "grid_for_boxes",
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
        if round(1.0 / self.dxi) < 1 or abs(1.0 / self.dxi - round(1.0 / self.dxi)) > 1e-9:
            raise ValueError(f"dxi must divide 1 exactly, got {self.dxi}")


@dataclass(frozen=True)
class IPData:
    """Realized box data on a grid: the node ranges of the plus box [N, N+1) and its mirror, plus the CauchyData."""

    N: int
    grid: FrequencyGrid
    data: CauchyData
    plus: slice
    minus: slice


class _Nodes(NamedTuple):
    """The nodes o * dxi at increasing integer offsets o, with no grid around them: what :class:`SpectralField`,
    :func:`sobolev_norm` and :func:`restricted_norm` read of a grid, and nothing more (no dx, extent or
    index_of, so no transform).  Offset o is node o + M/2 of a grid of M nodes, the same xi bit for bit."""

    dxi: float
    offsets: np.ndarray
    node_count = property(lambda self: self.offsets.size)
    xi = property(lambda self: self.offsets * self.dxi)


class _GridFreeBoxes(NamedTuple):
    """Box data at height N for :func:`compute_Ap`, which fills only the nodes of ``grid``."""

    N: int
    grid: _Nodes


def _box_data(N: int, dxi: float) -> tuple[_Nodes, np.ndarray, np.ndarray]:
    """The box data on its 2/dxi nodes, u0 = 1 and u1 = +-i lambda: the minus box, then the plus box [N, N+1)
    at the offsets N/dxi + j, j < 1/dxi (bins are left-closed on the positive side), mirrored node for node."""
    if N < 1:
        raise ValueError("N must be >= 1")
    L = round(1.0 / dxi)
    nodes = _Nodes(dxi, np.concatenate([np.arange(1 - (N + 1) * L, 1 - N * L), np.arange(N * L, (N + 1) * L)]))
    lam = lambda_symbol(nodes.xi)
    return nodes, np.ones(2 * L, dtype=np.complex128), np.concatenate([1j * lam[:L], -1j * lam[L:]])


def _box_grid_nodes(n_max: int, p: int, dxi: float) -> int:
    """Node count of :func:`grid_for_boxes`: 2 (p (n_max + 2) + 2) / dxi rounded half to even, made even;
    in exact arithmetic, so a budget can check it for any p and n_max before a grid exists."""
    num, den = float(dxi).as_integer_ratio()
    count, rest = divmod(2 * (p * (n_max + 2) + 2) * den, num)
    count += 2 * rest > num  # a tie rounds to the even count, as the evening below does
    return count + count % 2


def grid_for_boxes(n_max: int, p: int, dxi: float = 1.0 / 64.0) -> FrequencyGrid:
    """Default experiment grid: extent p*(n_max + 2) + 2 at spacing dxi."""
    return FrequencyGrid(dxi=dxi, node_count=_box_grid_nodes(n_max, p, dxi))


def make_ip_data(N: int, grid: FrequencyGrid) -> IPData:
    """Box data with u0_hat the indicator of [N, N+1) union its mirror, on ``grid`` (:func:`_box_data`).

    The plus box is the node range [index_of(N), index_of(N+1)) and the minus box its mirror k -> M - k, so
    Hermitian symmetry is exact and each box has mass exactly 1.  Requires 1/dxi integer and the box inside.
    """
    bins_per_unit = 1.0 / grid.dxi
    if abs(bins_per_unit - round(bins_per_unit)) > 1e-9:
        raise ValueError(f"grid spacing {grid.dxi} does not divide 1")
    boxes, u0, u1 = _box_data(N, grid.dxi)
    if N + 1 >= grid.extent:
        raise ValueError(f"box [{N}, {N + 1}] falls outside the grid extent {grid.extent}")
    nodes, L = (boxes.offsets + grid.node_count // 2).tolist(), u0.shape[0] // 2
    amp0, amp1 = np.zeros((2, grid.node_count), dtype=np.complex128)
    amp0[nodes], amp1[nodes] = u0, u1
    data = CauchyData(SpectralField(grid, amp0, real_valued=True), SpectralField(grid, amp1, real_valued=True))
    plus, minus = slice(nodes[L], nodes[-1] + 1), slice(nodes[0], nodes[L - 1] + 1)
    return IPData(N=N, grid=grid, data=data, plus=plus, minus=minus)


# ----------------------------------------------------------------------
# the generic oscillatory time integral


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


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


def _term_starts(N: int, p: int, L: int) -> list[int]:
    """The first offset of each term P^{*k} * M^{*(p-k)} of the box power, k = 0..p: k plus-box and p - k
    minus-box first offsets summed.  Each term is p (L - 1) + 1 nodes wide; they overlap when 2N + 1 < p."""
    return [k * N * L + (p - k) * (1 - (N + 1) * L) for k in range(p + 1)]


def _box_power_terms(N, g_plus, g_minus, p, dxi, lag, weights, lo, hi):
    """The terms P^{*k} * M^{*(p-k)} of the p-fold convolution power of the box values ``g_plus`` and ``g_minus``
    (last axis; one row per tau), each one transform product of the 5-smooth length holding its p*(L-1)+1
    nodes (:func:`_fast_length`), so the cost does not depend on N.  Each term, clipped to the offsets
    [lo, hi), is weighted by sin(lag lambda) at each tau's ``lag`` and summed over tau by the rows of
    ``weights``; yields its first offset and those rows.  The power is the nested dxi^{p-1}-weighted node sum
    times (1/2pi)^{p-1}, the normalization the flow map gives the transform of a pointwise p-th power.
    """
    L = g_plus.shape[-1]  # the minus box mirrors the plus box node for node
    width = p * (L - 1) + 1
    n_fft = _fast_length(width)
    f_plus = np.fft.fft(g_plus, n_fft, axis=-1)
    f_minus = np.fft.fft(g_minus, n_fft, axis=-1)
    scale = (dxi / (2.0 * np.pi)) ** (p - 1)

    def term(k, start, a, b):  # a function, so that no (tau, n_fft) array outlives its block
        # f**0 and f**1 run numpy's generic complex power; leaving them out gives the same floats
        powers = (f if n == 1 else f**n for f, n in ((f_plus, k), (f_minus, p - k)) if n)
        return np.fft.ifft(functools.reduce(np.multiply, powers), axis=-1)[..., a - start : b - start]

    for k, start in enumerate(_term_starts(N, p, L)):
        a, b = max(start, lo), min(start + width, hi)
        if a < b:
            # sin((t - tau) lam) at the one output time t, directly (through solver._forcing about 2x slower)
            kernel = np.sin(np.outer(lag, lambda_symbol(np.arange(a, b) * dxi)))
            yield a, weights @ (kernel * ((math.comb(p, k) * scale) * term(k, start, a, b)))


def compute_Ap(d, p: int, sign: int, t: float, q: QuadratureConfig | None = None) -> SpectralField:
    """p-th derivative of the flow map at zero along the box data, at time t, on the nodes of ``d.grid``.

    ``d`` is an :class:`IPData`, or the grid-free box data of :func:`inflation_ratio`; on that the field holds
    the term ranges of the power only, on :class:`_Nodes`, and serves the norms only.
    At each of ``q.tau_nodes`` Chebyshev-Lobatto nodes tau of [0, t] the free evolution of the data,
    the solver's ``_free`` on a flow table of the box nodes (pure phases e^{-+i tau lambda} on the two
    boxes), is raised to the p-th convolution power box by box, and weighted by
    -sign * p! * lambda * sin((t - tau) lambda); the part of the power beyond the grid is dropped.
    The solver's Lobatto rule integrates over tau; its change from the nested (n+1)/2-node rule on
    the even nodes, which needs no further transform, must be at most 1e-6 relative over all the nodes,
    else :class:`QuadratureError`.
    """
    q = q or QuadratureConfig()
    if p < 2:
        raise ValueError("p must be >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if t < 0:
        raise ValueError("t must be >= 0")
    nodes = d.grid
    full = isinstance(nodes, FrequencyGrid)
    if t == 0.0:
        return SpectralField(nodes, np.zeros(nodes.node_count, dtype=np.complex128), real_valued=full)
    offsets = range(-(nodes.node_count // 2), nodes.node_count // 2) if full else nodes.offsets
    taus = _lobatto_nodes(q.tau_nodes, t)
    row = _lobatto_weights(q.tau_nodes, t, t)
    weights = np.stack([row, _nested_difference(row, t, t)])
    boxes, u0, u1 = _box_data(d.N, nodes.dxi)
    L = u0.shape[0] // 2
    table = _flow_table(boxes.xi[L:], taus)  # lambda is even: the minus box's table is the plus box's, reversed
    g_minus = _free(u0[:L], u1[:L], _FlowTable(*(column[..., ::-1] for column in table)))
    g_plus = _free(u0[L:], u1[L:], table)
    accum = np.zeros((2, nodes.node_count), dtype=np.complex128)
    lo, hi = int(offsets[0]), int(offsets[-1]) + 1
    for start, block in _box_power_terms(d.N, g_plus, g_minus, p, nodes.dxi, t - taus, weights, lo, hi):
        j = bisect.bisect_left(offsets, start)  # a block's offsets follow each other
        accum[:, j : j + block.shape[-1]] += block
    accum *= -sign * math.factorial(p) * lambda_symbol(nodes.xi)
    value, change = accum
    if np.linalg.norm(change) > 1e-6 * np.linalg.norm(value):
        raise QuadratureError(
            f"time quadrature changed by more than 1e-6 relative from the nested "
            f"{(q.tau_nodes + 1) // 2}-node rule (tau_nodes={q.tau_nodes})"
        )
    return SpectralField(nodes, value, real_valued=full)


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
    signed_lam = -lam
    signed_lam[d.plus] = lam[d.plus]
    out = np.zeros(m, dtype=np.complex128)
    scale = (grid.dxi / (2.0 * np.pi)) ** (p - 1)
    for cell in itertools.product([*range(m)[d.minus], *range(m)[d.plus]], repeat=p):
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


def inflation_ratio(
    N: int, p: int, sign: int, s: float, t: float, q: QuadratureConfig | None = None
) -> InflationRow:
    """Restricted H^s size of the derivative over the p-th power of the data size, with no grid.

    The restriction band is [1/4, 1/2] for even p (where only balanced sign
    patterns land) and [N, N+1] for odd p.  :func:`compute_Ap` fills only the
    term ranges of the power (:func:`_term_starts`), and the data size is summed
    over the 2/dxi box nodes, so the cost does not depend on N.
    """
    q = q or QuadratureConfig()
    band = EVEN_BAND if p % 2 == 0 else BandWindow(float(N), float(N + 1))
    boxes, u0, u1 = _box_data(N, q.dxi)
    L = u0.shape[0] // 2
    starts, w = _term_starts(N, p, L), p * (L - 1) + 1
    # the starts increase with k, so each range, w nodes wide, adds its nodes past the end of the one before it
    offsets = np.concatenate([np.arange(max(a, b + w), a + w) for b, a in zip([starts[0] - w, *starts], starts)])
    numerator = restricted_norm(compute_Ap(_GridFreeBoxes(N, _Nodes(q.dxi, offsets)), p, sign, t, q), band, s)
    denominator = (sobolev_norm(SpectralField(boxes, u0), s) + sobolev_norm(SpectralField(boxes, u1), s)) ** p
    return InflationRow(
        N=N,
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
) -> InflationReport:
    """Inflation ratios over an increasing list of N, each one :func:`inflation_ratio`, with a log-log slope fit."""
    if any(n != int(n) for n in n_list):
        raise ValueError("N values must be whole numbers")
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("N list must be strictly increasing")
    q = q or QuadratureConfig()
    rows = [inflation_ratio(n, p, sign, s, t, q) for n in n_list]
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
    u_final, _ = traj.final()  # the solve ends at its horizon t
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
