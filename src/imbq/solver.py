"""Time evolution for u_tt - u_xx - u_xxtt = sign * (u^p)_xx.

In frequency space the equation reads u_hat_tt = -lambda^2 (u_hat +
sign * (u^p)_hat) with lambda(xi) = |xi|/<xi>, and its Duhamel form is

    u_hat(t) = cos(t lam) u0_hat + (sin(t lam)/lam) u1_hat
               - sign * int_0^t lam sin((t - tau) lam) (u^p)_hat(tau) dtau,

where the composition of the propagator with the symbol of the forcing
has been simplified analytically to lam*sin (no 0/0 at xi = 0).  The
solver iterates this map to its fixed point on time windows (Picard),
sized so that an embedded estimate of the tau-quadrature error meets a
target; a classical RK4 integrator of the first-order system serves as
the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    HERMITIAN_RTOL,
    FrequencyGrid,
    SpectralField,
    _check_finite,
    _column_counts,
    _dealiased_node_count,
    _full_spectrum,
    _half_spectrum,
    _position_matrix,
    _power_matrix,
    _sin_over_lambda,
    _unchecked_field,
    lambda_symbol,
    sobolev_norm,
    sup_norm,
)

__all__ = [
    "CauchyData",
    "SolverConfig",
    "Trajectory",
    "ContractionReport",
    "ConvergenceError",
    "free_propagator",
    "picard_window",
    "solve",
    "rk4_solve",
    "energy",
    "energy_series",
    "dispersion_check",
    "single_mode_data",
    "gaussian_data",
]


class ConvergenceError(RuntimeError):
    """Picard iteration or time stepping failed to converge.

    ``history`` carries the per-step difference norms, ``window_index`` the
    failing window when raised from :func:`solve`.
    """

    def __init__(self, message: str, history=None, window_index: int | None = None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.window_index = window_index


@dataclass(frozen=True)
class CauchyData:
    """Initial position u0 and velocity u1, both real-valued, on one grid."""

    u0: SpectralField
    u1: SpectralField

    def __post_init__(self):
        if self.u0.grid != self.u1.grid:
            raise ValueError("u0 and u1 must share a grid")
        if not (self.u0.real_valued and self.u1.real_valued):
            raise ValueError("Cauchy data must be real_valued")

    @property
    def grid(self) -> FrequencyGrid:
        return self.u0.grid

    def scaled(self, c: float) -> "CauchyData":
        return CauchyData(self.u0.scaled(c), self.u1.scaled(c))


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinearity, horizon, regularity of the stopping norm, and an optional window.

    :func:`solve` sizes its windows by the contraction and their nodes by accuracy.  A probe runs the
    first window of the a-priori tiling, windows of sqrt(:data:`CONTRACTION_TARGET`) * R^{-(p-1)/2}
    with R the summed H^s-plus-sup size of the data, on 9 Chebyshev-Lobatto nodes.  Its contraction
    ratio, scaled like the window squared, reaches :data:`CONTRACTION_TARGET` at the window length,
    and ceil(horizon/window) equal windows tile [0, horizon].  Each window starts on its
    predecessor's node count and doubles it, up to :data:`MAX_QUADRATURE_NODES`, until its embedded
    quadrature estimate (the n-node tau-integral minus the nested (n+1)/2-node one) meets
    :data:`QUADRATURE_TARGET` of the largest node size.  Without forcing one window covers
    [0, horizon]; a set ``window_override`` tiles by that window, without a probe.  A window that does
    not converge, or that misses the target on 65 nodes when sized, halves, and the march goes on
    from there (:func:`_march`).  Picard stops once the max over the window nodes of
    H^s + (dxi/2pi) sum |u_hat| of the iterate difference, an upper bound of its H^s-plus-sup size,
    is below :data:`PICARD_TOL`.  The power is dealiased by the factor (p+1)/2.
    """

    p: int
    sign: int
    horizon: float
    s: float = 0.0
    window_override: float | None = None

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 2):
            raise ValueError(f"p must be an integer >= 2, got {self.p}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0 <= self.s < math.inf:
            raise ValueError(f"s must be non-negative and finite, got {self.s}")
        if self.window_override is not None and not self.window_override > 0:
            raise ValueError(f"window_override must be positive, got {self.window_override}")


@dataclass(frozen=True)
class ContractionReport:
    """Per-window Picard diagnostics.

    ``quadrature_estimate`` is the window's embedded error estimate of the
    tau-quadrature relative to its largest node size (see :func:`_picard`);
    0 without forcing.
    """

    window_length: float
    iterations: int
    differences: tuple[float, ...]
    ratios: tuple[float, ...]
    quadrature_estimate: float = 0.0

    @property
    def contraction_ratio(self) -> float | None:
        """First difference quotient d2/d1, the measured contraction factor."""
        return self.ratios[0] if self.ratios else None


@dataclass(frozen=True)
class Trajectory:
    """Sampled states u(t_i), u_t(t_i) plus per-window solver diagnostics.

    ``u`` and ``u_t`` are (n, M/2 + 1) half-layout matrices, row i the real
    state at ``times[i]``.  ``halvings`` counts the windows the march halved
    on its way (:func:`_march`).  Every row is checked finite,
    and real at xi = 0 (the one Hermitian condition a half row can break),
    on construction; the matrices are taken over read-only, not copied.
    """

    times: np.ndarray
    u: np.ndarray
    u_t: np.ndarray
    grid: FrequencyGrid
    window_edges: tuple[float, ...] = ()
    window_reports: tuple[ContractionReport, ...] = ()
    halvings: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("u", "u_t"):
            rows = np.asarray(getattr(self, name), dtype=np.complex128)
            if rows.shape != (t.shape[0], self.grid.node_count // 2 + 1):
                raise ValueError(f"{name} matrix {rows.shape} does not fit the times and the grid")
            _check_finite(rows)
            if np.any(2.0 * np.abs(rows[:, 0].imag) > HERMITIAN_RTOL * np.max(np.abs(rows), axis=1)):
                raise ValueError(f"{name} has a row whose xi = 0 column is not real")
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def state(self, i: int) -> tuple[SpectralField, SpectralField]:
        """The real-valued fields u(t_i), u_t(t_i): row i of ``u`` and ``u_t`` expanded, read-only."""
        full = _full_spectrum(np.stack((self.u[i], self.u_t[i])))
        full.setflags(write=False)
        return _unchecked_field(self.grid, full[0], True), _unchecked_field(self.grid, full[1], True)

    def final(self) -> tuple[SpectralField, SpectralField]:
        return self.state(-1)


# ----------------------------------------------------------------------
# linear propagator


class _FlowTable(NamedTuple):
    """lam and cos, sin, sin/lam of t*lam at each node; one row per time."""

    lam: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    sin_over: np.ndarray


def _flow_table(xi: np.ndarray, times) -> _FlowTable:
    """Table of the linear flow at the nodes ``xi`` and ``times`` (a scalar gives 1-D rows)."""
    lam = lambda_symbol(xi)
    t = np.asarray(times, dtype=float)[..., None]
    s = t * lam
    return _FlowTable(lam, np.cos(s), np.sin(s), _sin_over_lambda(lam, t))


def free_propagator(d: CauchyData, t: float) -> SpectralField:
    """u_hat(t) = cos(t lam) u0_hat + (sin(t lam)/lam) u1_hat of the free flow.

    At xi = 0 this reduces to u0_hat(0) + t*u1_hat(0).  Computed by
    :func:`_free` on the half layout.
    """
    table = _flow_table(_half_spectrum(d.grid.xi), t)
    amp = _full_spectrum(_free(_half_spectrum(d.u0.amplitudes), _half_spectrum(d.u1.amplitudes), table))
    return SpectralField(d.grid, amp, real_valued=True)


# ----------------------------------------------------------------------
# quadrature over the window nodes


def _lobatto_nodes(n: int, window: float) -> np.ndarray:
    """The n Chebyshev-Lobatto nodes window (1 - cos(pi j/(n-1)))/2; the even ones are the (n+1)/2-node set."""
    return 0.5 * window * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))


def _lobatto_weights(n: int, window: float, times) -> np.ndarray:
    """Rows W with  int_0^t f  ~=  sum_j W[., j] f(t_j)  at each of ``times`` in [0, window], on the n
    nodes t_j of :func:`_lobatto_nodes`.  Each row integrates the degree n-1 interpolant exactly: its
    Chebyshev coefficients in s = 2t/window - 1 are a DCT-I of the node values and T_k integrates to
    T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)), so a row is the DCT-I of those integrals at t, one rfft of
    their even extension; no (n, n) matrix is built.
    """
    m, k = n - 1, np.arange(n)

    def antiderivatives(theta):  # of T_0 .. T_m at s = cos(theta)
        c = np.cos(np.multiply.outer(theta, np.arange(n + 1.0)))
        c[..., 3:] = c[..., 3:] / (2.0 * k[2:] + 2.0) - c[..., 1:-2] / (2.0 * k[2:] - 2.0)
        c[..., 2] *= 0.25
        return c[..., 1:]

    theta = np.arccos(np.clip(2.0 * np.asarray(times, dtype=float) / window - 1.0, -1.0, 1.0))
    # at t = 0 (theta = pi) both terms are the same numbers, so that row is exactly 0
    b = 0.5 * window * (antiderivatives(theta) - antiderivatives(np.pi))
    spectrum = np.fft.rfft(np.concatenate([b, b[..., -2:0:-1]], axis=-1), axis=-1).real
    # the DCT-I halves the end terms; node j = m - l, as s_j = -cos(pi j/m)
    return np.where((k == 0) | (k == m), 0.5, 1.0) / m * spectrum[..., ::-1]


def _nested_difference(rows: np.ndarray, window: float, times) -> np.ndarray:
    """The n-node ``rows`` at ``times`` minus those of the (n+1)/2-node rule on the even nodes, on the even columns."""
    out = rows.copy()
    out[..., ::2] -= _lobatto_weights((rows.shape[-1] + 1) // 2, window, times)
    return out


class _Rule(NamedTuple):
    """Node times, prefix weights and half-layout flow table of one window.  ``embedded`` has the
    :func:`_nested_difference` of the weights at the even nodes t_2, t_4, ..."""

    times: np.ndarray
    weights: np.ndarray
    table: _FlowTable
    embedded: np.ndarray | None


def _rule(grid: FrequencyGrid, window: float, n: int, at=None) -> _Rule:
    """The n-node Chebyshev-Lobatto rule on [0, window] over the half layout of ``grid``; with ``at``,
    its rows and flow table at the times ``at`` instead of the nodes, and no embedded rows."""
    times = _lobatto_nodes(n, window) if at is None else np.asarray(at, float)
    weights = _lobatto_weights(n, window, times)
    embedded = None if at is not None else _nested_difference(weights[2::2], window, times[2::2])
    return _Rule(times, weights, _flow_table(_half_spectrum(grid.xi), times), embedded)


# ----------------------------------------------------------------------
# Duhamel functional and Picard iteration
#
# The Picard iterates are real fields, so everything below works on the half layout of
# grid._half_spectrum: M/2 + 1 columns instead of M.  With g = u^p at the window nodes t_j,
# _tau_integrals forms the products cos(t_j lam) g, sin(t_j lam) g and their prefix tau-integrals (one
# real GEMM, _weighted), and _forcing turns prefix integrals at any times into the forcing term or its
# time derivative.  The iteration, the velocity pass, the embedded estimate and the sample rows use them.


def _free(a0, a1, table: _FlowTable, velocity=False) -> np.ndarray:
    """The free evolution of half-layout data (a0, a1) on the table's times, or its velocity."""
    lam, cos_t, sin_t, sin_over = table
    return -lam * sin_t * a0 + cos_t * a1 if velocity else cos_t * a0 + sin_over * a1


def _weighted(weights: np.ndarray, stack: np.ndarray, out=None) -> np.ndarray:
    """``weights`` (m, n) times the (n, 2, k) complex products ``stack``: (m, 2, k), one real GEMM over
    the float64 views, written into ``out`` if given."""
    m, n = weights.shape
    out = np.empty((m, *stack.shape[1:]), dtype=np.complex128) if out is None else out
    np.matmul(weights, stack.reshape(n, -1).view(np.float64), out=out.reshape(m, -1).view(np.float64))
    return out


def _tau_integrals(u, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig):
    """With g = u^p at half-layout node states ``u``: the (n, 2, k) products cos(t_j lam) g,
    sin(t_j lam) g and their prefix tau-integrals by the rule's weights (:func:`_weighted`)."""
    g = _power_matrix(u, grid, cfg.p)
    n, k = g.shape
    # the GEMM's operand and result share one allocation and the result is combined in place,
    # so an iteration allocates few large arrays
    stack, sums = np.empty((2, n, 2, k), dtype=np.complex128)
    np.multiply(rule.table.cos, g, out=stack[:, 0])
    np.multiply(rule.table.sin, g, out=stack[:, 1])
    del g
    _weighted(rule.weights, stack, out=sums)
    return stack, sums


def _forcing(sums: np.ndarray, table: _FlowTable, sign: int, velocity=False, rows=slice(None)) -> np.ndarray:
    """The forcing term sign lam int_0^t sin((t - tau) lam) g dtau of the Duhamel map, or with ``velocity``
    its time derivative sign lam^2 int_0^t cos((t - tau) lam) g dtau, at the times of the table's ``rows``,
    from the (m, 2, k) prefix tau-integrals ``sums`` of cos(tau lam) g, sin(tau lam) g; in place in ``sums``."""
    lam, cos_t, sin_t, _ = table
    c, s = sums[:, 0], sums[:, 1]
    if velocity:
        # cos((t - tau) lam) = cos(t lam) cos(tau lam) + sin(t lam) sin(tau lam)
        c *= cos_t[rows]
        s *= sin_t[rows]
        c += s
        c *= sign * lam**2
    else:
        # sin((t - tau) lam) = sin(t lam) cos(tau lam) - cos(t lam) sin(tau lam)
        c *= sin_t[rows]
        s *= cos_t[rows]
        c -= s
        c *= sign * lam
    return c


def _node_sizes(half: np.ndarray, grid: FrequencyGrid, s: float) -> np.ndarray:
    """H^s norm plus (dxi/2pi) sum |u_hat| over all M nodes, of each half-layout row.

    Each column counts as :func:`grid._column_counts` says.  The second term
    is the Wiener-algebra bound |u(x)| <= (dxi/2pi) sum_k |u_hat(xi_k)|, so
    each value is at least the row's H^s-plus-sup size.
    """
    mag = np.abs(half)
    c = grid.dxi / (2.0 * np.pi)
    count = _column_counts(half.shape[-1])
    weights = count * (1.0 + _half_spectrum(grid.xi) ** 2) ** s
    # a blown-up difference reads inf, and Picard goes on until the power overflows
    with np.errstate(over="ignore"):
        return np.sqrt(mag**2 @ weights * c) + c * (mag @ count)


def _picard(a0, a1, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig, forcing: bool, at=None):
    """:func:`picard_window` on half-layout data (a0, a1) and a given rule: returns the half-layout node
    states u, u_t and the window's report; given ``at``, the rule's rows at other times (:func:`_rule`)
    and a list, appends the states u, u_t there to the list.

    Each iterate is the free flow minus the :func:`_forcing` of the previous one's :func:`_tau_integrals`.
    The velocity pass forms the converged iterate's products once.  The report's quadrature estimate (the
    :func:`_forcing` of the rule's ``embedded`` rows at the even nodes, over the largest node size) and the
    states at ``at`` (the Duhamel formula there, no interpolation) reuse them, so they cost no transform.
    """
    window = float(rule.times[-1])
    free = _free(a0, a1, rule.table)
    current = free
    diffs: list[float] = []
    try:
        for _ in range(MAX_ITERATIONS):
            new = (
                free - _forcing(_tau_integrals(current, rule, grid, cfg)[1], rule.table, cfg.sign) if forcing else free
            )
            diff = float(np.max(_node_sizes(new - current, grid, cfg.s)))
            diffs.append(diff)
            current = new
            if diff < PICARD_TOL:
                break
        else:
            message = f"within {MAX_ITERATIONS} iterations on a window of length {window:g}"
            raise ConvergenceError(f"Picard iteration did not reach {PICARD_TOL:g} {message}", history=diffs)
        free = _free(a0, a1, rule.table, velocity=True)
        estimate, ut = 0.0, free
        if forcing:
            size = float(np.max(_node_sizes(current, grid, cfg.s)))
            stack, sums = _tau_integrals(current, rule, grid, cfg)
            error = _forcing(_weighted(rule.embedded, stack), rule.table, cfg.sign, rows=slice(2, None, 2))
            estimate = float(np.max(_node_sizes(error, grid, cfg.s))) / size if size > 0 else 0.0
            del error  # freed before the velocity pass allocates its result
            ut = free - _forcing(sums, rule.table, cfg.sign, velocity=True)
        for v in () if at is None else (False, True):  # each pass combines its own prefix integrals in place
            f = _free(a0, a1, at[0].table, velocity=v)
            at[1].append(f - _forcing(_weighted(at[0].weights, stack), at[0].table, cfg.sign, v) if forcing else f)
    except OverflowError as err:
        message = f"Picard iteration on a window of length {window:g} failed after {len(diffs)} iterations: {err}"
        raise ConvergenceError(message, history=diffs) from err
    ratios = tuple(b / a for a, b in zip(diffs[:-1], diffs[1:]) if a > 0)
    report = ContractionReport(window, len(diffs), tuple(diffs), ratios, estimate)
    return current, ut, report


def picard_window(
    d: CauchyData, window: float, cfg: SolverConfig, forcing: bool = True, *, _shared: _Rule | None = None, _at=None
) -> tuple[Trajectory, ContractionReport]:
    """Iterate the Duhamel map to its fixed point on [0, window] (:func:`_picard`).

    Starts from the free evolution, subtracts from it the :func:`_forcing` of each iterate's
    :func:`_tau_integrals` for the next, and stops when the max over the nodes of
    H^s + (dxi/2pi) sum |u_hat| of the iterate difference, the report's
    ``differences``, drops below :data:`PICARD_TOL`; the second term bounds the
    sup norm from above.  Raises :class:`ConvergenceError` with the
    difference history when :data:`MAX_ITERATIONS` is exhausted (window too
    long or data too large) or when the pointwise power overflows.
    The report carries the window's quadrature estimate, the trajectory the half-layout states at the
    rule's nodes, :data:`MAX_QUADRATURE_NODES` Chebyshev-Lobatto nodes by default.  ``_shared`` and
    ``_at`` are :func:`_march`'s rule and the ``at`` of :func:`_picard`.
    """
    if not window > 0:
        raise ValueError("window length must be positive")
    rule = _shared if _shared is not None else _rule(d.grid, window, MAX_QUADRATURE_NODES)
    a0, a1 = _half_spectrum(d.u0.amplitudes), _half_spectrum(d.u1.amplitudes)
    u, ut, report = _picard(a0, a1, rule, d.grid, cfg, forcing, _at)
    return Trajectory(rule.times, u, ut, d.grid, window_edges=(0.0, window), window_reports=(report,)), report


# work budget of the march: windows at its start, ceil(horizon/window), set or data-derived, and
# once the probe has sized them; and window runs, accepted or rejected.  The count ignores nodes and
# iterations, so it does not bound run time.
MAX_SOLVE_WINDOWS = 10**4
# accuracy target of the node count: every window's quadrature estimate, relative to its largest
# node size (ContractionReport.quadrature_estimate), is at most this
QUADRATURE_TARGET = 1e-8
# Picard stops once the stopping norm of the iterate difference is below PICARD_TOL and fails
# after MAX_ITERATIONS; a window's Chebyshev-Lobatto node count doubles from 9 (9, 17, 33, 65) to at
# most MAX_QUADRATURE_NODES; windows are as long as the contraction ratio, modelled a priori as
# (R^{(p-1)/2} w)^2 and scaled like w^2 from the probe's measured one, reads CONTRACTION_TARGET
PICARD_TOL = 1e-12
MAX_ITERATIONS = 50
MAX_QUADRATURE_NODES = 65
CONTRACTION_TARGET = 0.01


def _window_length(d: CauchyData, cfg: SolverConfig, forcing: bool) -> float:
    if cfg.window_override is not None:
        return min(cfg.window_override, cfg.horizon)
    r = sobolev_norm(d.u0, cfg.s) + sup_norm(d.u0) + sobolev_norm(d.u1, cfg.s) + sup_norm(d.u1) if forcing else 0.0
    if r == 0.0:  # no forcing, or zero data: one window
        return cfg.horizon
    # (r^{(p-1)/2} w)^2 = CONTRACTION_TARGET in logs: for r < 1 and a large p, r^{-(p-1)/2} overflows
    log_w = 0.5 * (math.log(CONTRACTION_TARGET) - (cfg.p - 1) * math.log(r))
    return cfg.horizon if log_w >= math.log(cfg.horizon) else math.exp(log_w)


def _window_count(count: float, horizon: float) -> int:
    """ceil(count), at least 1, or :class:`ConvergenceError` past :data:`MAX_SOLVE_WINDOWS`."""
    if not count - 1e-12 <= MAX_SOLVE_WINDOWS:
        raise ConvergenceError(
            f"a window of {horizon / count:.6g} makes {count:.6g} windows over [0, {horizon:g}]; "
            f"limit {MAX_SOLVE_WINDOWS}"
        )
    return max(1, math.ceil(count - 1e-12))


class _Marched(NamedTuple):
    """:func:`_march`'s result: ``probe`` (window, contraction ratio) or None, ``nodes`` each window's node count,
    ``rejected`` (start, window, nodes, estimate or None on a Picard failure, differences) of each rejected run,
    ``halvings`` the halved windows among them, ``sampled`` the states at the requested times or None."""

    times: np.ndarray
    edges: tuple[float, ...]
    reports: tuple[ContractionReport, ...]
    probe: tuple[float, float | None] | None
    nodes: tuple[int, ...]
    rejected: tuple[tuple, ...]
    halvings: int
    sampled: Trajectory | None


def _march(d: CauchyData, cfg: SolverConfig, forcing: bool, take, samples=()) -> _Marched:
    """March Picard windows forward over [0, horizon], each sized where it runs; the march never goes back.

    Window 0 of the a-priori tiling runs first, on 9 Chebyshev-Lobatto nodes.  Unless ``window_override`` is
    set or forcing is off (one window), that run is the probe of :class:`SolverConfig`: it sizes the windows
    by its contraction and stays as window 0 if their count does not change.  Each window starts on its
    predecessor's node count and doubles it (17, 33, 65) while its estimate is above :data:`QUADRATURE_TARGET`.
    A window that does not converge, or, when sized, still misses the target on :data:`MAX_QUADRATURE_NODES`,
    halves, and the rest of [t, horizon] is tiled at the halved length: from the last halving at t_0 into n
    windows, window j spans [t_0 + j (horizon - t_0)/n, t_0 + (j+1) (horizon - t_0)/n].  Nodes never
    decrease and windows never lengthen after the probe.  Each accepted window stamps its last node with
    its end and calls ``take(times, u, u_t)`` with the node rows it adds: all of window 0, then all but the
    first.  Each of the sorted, distinct ``samples`` in [0, horizon] is the Duhamel formula of its window at
    that time: the window's :func:`picard_window` run takes the rule's rows there (``_at``).  Continuation
    data at a window end is the converged state and the velocity of the differentiated Duhamel formula.
    :class:`ConvergenceError` ends a march whose tiling passes :data:`MAX_SOLVE_WINDOWS` windows at its start
    or once sized, and, naming the window and the t reached, one whose window runs, accepted or rejected,
    would pass it, or whose halved window would be shorter than max(sqrt(eps) t, eps horizon).
    """
    horizon = cfg.horizon
    base = _window_length(d, cfg, forcing)
    n = _window_count(horizon / base if base > 0 else math.inf, horizon)
    sized = forcing and cfg.window_override is None
    samples = np.asarray(samples, dtype=float)
    eps = float(np.finfo(float).eps)
    # the tiling is (t0, n) from the last halving and j the next window of it; a new node count or
    # window length drops the shared rule
    t0, j, nodes, rule, data, probe, halvings, reason, history = 0.0, 0, 9, None, d, None, 0, None, ()
    edges, times, reports, counts, rejected, sampled = [0.0], [], [], [], [], []
    while j < n:
        k, start, w = len(reports), edges[-1], (horizon - t0) / n
        end = t0 + (j + 1) * (horizon - t0) / n
        where = f"window {k} ([{start:g}, {end:g}])"
        if k + len(rejected) == MAX_SOLVE_WINDOWS:
            message = f"{where} would pass the limit of {MAX_SOLVE_WINDOWS} window runs (the last rejected: {reason})"
            raise ConvergenceError(f"{message}; the march reached t = {start:.6g}", history, k)
        rule = rule or _rule(d.grid, w, nodes)
        # the window holds the samples in (start, end] (and 0 for window 0), the last one all that are left
        lo = 0 if k == 0 else np.searchsorted(samples, start, side="right")
        at = samples[lo:] if j + 1 == n else samples[lo : np.searchsorted(samples, end, side="right")]
        rows = (_rule(d.grid, w, nodes, at - start), []) if at.size else None
        try:
            traj, report = picard_window(data, w, cfg, forcing, _shared=rule, _at=rows)
        except ConvergenceError as err:
            report, reason, history = None, f"{where} failed: {err}", err.history
        else:
            if sized and probe is None:
                probe = (w, report.contraction_ratio)
                count = _window_count(n * math.sqrt((probe[1] or 0.0) / CONTRACTION_TARGET), horizon)
                if count != n:
                    n, rule = count, None
                    continue
            estimate = report.quadrature_estimate
            if estimate <= QUADRATURE_TARGET or nodes == MAX_QUADRATURE_NODES and not sized:
                t = start + rule.times
                t[-1] = end
                new = slice(0 if k == 0 else 1, None)
                times.append(t[new])
                take(times[-1], traj.u[new], traj.u_t[new])
                edges.append(end)
                reports.append(report)
                counts.append(nodes)
                if rows is not None:
                    sampled.append((at, *rows[1]))
                data, j = CauchyData(*traj.final()), j + 1
                continue
            above = f"its quadrature estimate {estimate:.3g} is above the target {QUADRATURE_TARGET:g}"
            reason, history = f"{where} on {nodes} nodes: {above}", report.differences
        rejected.append((start, w, nodes, None if report is None else report.quadrature_estimate, tuple(history)))
        if report is not None and nodes < MAX_QUADRATURE_NODES:
            nodes, rule = 2 * nodes - 1, None
            continue
        if not w / 2 > max(math.sqrt(eps) * start, eps * horizon):
            message = f"{reason}; halved, it would be shorter than max(sqrt(eps) t, eps T = {eps * horizon:.3g})"
            raise ConvergenceError(f"{message}; the march reached t = {start:.6g}", history, k)
        # the floor keeps the count below 1/eps = 2^52, so it converts to a float exactly
        t0, n, j, rule, halvings = start, 2 * (n - j), 0, None, halvings + 1
    states = Trajectory(*(np.concatenate(part) for part in zip(*sampled)), d.grid) if sampled else None
    marched = (np.concatenate(times), tuple(edges), tuple(reports), probe, tuple(counts), tuple(rejected), halvings)
    return _Marched(*marched, states)


def solve(d: CauchyData, cfg: SolverConfig, forcing: bool = True) -> Trajectory:
    """March the Picard solver over [0, horizon] in windows, sized and halved as :func:`_march` says.

    Each window's node rows are copied once the next window arrives, so its full arrays are freed, and
    stacked once at the end; a single window keeps its rows uncopied."""
    rows: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])

    def take(times, u, ut):
        for part, new in zip(rows, (u, ut)):
            if part:
                part[-1] = part[-1].copy()
            part.append(new)

    marched = _march(d, cfg, forcing, take)
    stacked = []  # a single window is not copied: the copy lifts derivative-check's peak RSS
    for part in rows:  # the u rows are freed before the u_t rows are stacked: the end holds 1.5x the result
        stacked.append(part[0] if len(part) == 1 else np.concatenate(part))
        part.clear()
    return Trajectory(marched.times, *stacked, d.grid, marched.edges, marched.reports, marched.halvings)


# ----------------------------------------------------------------------
# independent integrator


def rk4_solve(
    d: CauchyData,
    cfg: SolverConfig,
    dt: float,
    forcing: bool = True,
    store_stride: int = 1,
) -> Trajectory:
    """Classical RK4 on the first-order system (u_hat, v_hat) in frequency space.

    v_hat_t = -lam^2 (u_hat + sign*(u^p)_hat), nonlinearity dealiased by
    zero padding, stepped on one half-layout row in round(horizon/dt) equal
    steps (:func:`_rk4_steps`).  Stores the initial state, every
    ``store_stride``-th step and the last.  Raises :class:`ConvergenceError`
    once the L^2 size over all M nodes (:func:`grid._column_counts`) grows by
    more than a factor 1e6 (instability guard).
    """
    if store_stride < 1:
        raise ValueError("store_stride must be >= 1")
    n_steps, h, _ = _rk4_steps(cfg.horizon, dt)
    grid = d.grid
    lam2 = lambda_symbol(_half_spectrum(grid.xi)) ** 2

    def rhs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        force = u + cfg.sign * _power_matrix(u, grid, cfg.p) if forcing else u
        return v, -lam2 * force

    u, v = _half_spectrum(d.u0.amplitudes[None]), _half_spectrum(d.u1.amplitudes[None])
    weights = np.sqrt(_column_counts(u.shape[1]))
    limit = 1e6 * max(np.linalg.norm(weights * u), 1e-300)
    times, us, vs = [0.0], [u], [v]
    for step in range(1, n_steps + 1):
        try:
            k1u, k1v = rhs(u, v)
            k2u, k2v = rhs(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u, k3v = rhs(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u, k4v = rhs(u + h * k3u, v + h * k3v)
        except OverflowError as err:
            raise ConvergenceError(f"instability detected at step {step}: {err}") from err
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if np.linalg.norm(weights * u) > limit:
            raise ConvergenceError(f"instability detected at step {step}: norm grew > 1e6x")
        if step % store_stride == 0 or step == n_steps:
            times.append(step * h)
            us.append(u)
            vs.append(v)
    return Trajectory(np.array(times), np.concatenate(us), np.concatenate(vs), grid)


def _rk4_steps(horizon: float, dt: float) -> tuple[int, float, int]:
    """(n_steps, h, stride): RK4's round(horizon/dt) equal steps (at least one) of h,
    and the stride round(0.5/dt) (at least one) between the samples of
    :func:`_mode_amplitude_traces`.  OverflowError if either ratio is infinite.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, round(horizon / dt))
    return n_steps, horizon / n_steps, max(1, round(0.5 / dt))


# ----------------------------------------------------------------------
# conserved energy


def _energy_matrix(u, ut, grid: FrequencyGrid, p: int, sign: int):
    """:func:`energy` of every row pair of the (n, M/2 + 1) half-layout matrices ``u``, ``ut``.

    The quadratic sum skips column 0 (xi = 0) and weights the rest by
    :func:`grid._column_counts`; the potential samples one :func:`_position_matrix`
    batch on :func:`_dealiased_node_count` nodes.  Raises ValueError if any
    row's velocity has a nonzero mean.
    """
    ut2 = ut.real**2 + ut.imag**2
    if np.any(ut2[:, 0] > 1e-16 * np.max(ut2, axis=1)):  # |u_hat_t(0)| > 1e-8 max|u_hat_t|
        raise ValueError("energy requires mean-zero velocity (u_hat_t(0) = 0)")
    lam2 = lambda_symbol(_half_spectrum(grid.xi)[1:]) ** 2
    u2 = u.real[:, 1:] ** 2 + u.imag[:, 1:] ** 2
    quad = 0.5 * np.sum((ut2[:, 1:] / lam2 + u2) * _column_counts(u.shape[1])[1:], axis=1) * grid.dxi
    samples, dx_fine = _position_matrix(u, grid, _dealiased_node_count(grid.node_count, p))
    # u^p * u rather than u^(p+1): numpy squares in place but calls pow() for a cube
    potential = 2.0 * np.pi * sign / (p + 1) * np.sum(samples**p * samples, axis=1) * dx_fine
    return quad + potential


def energy(u: SpectralField, u_t: SpectralField, p: int, sign: int) -> float:
    """Conserved functional of the frequency-space flow.

    E = 1/2 sum_{xi != 0} (|u_hat_t|^2/lam^2 + |u_hat|^2) dxi
        + 2pi*sign/(p+1) * sum_j u(x_j)^{p+1} dx,

    with the potential sum taken on the position grid of the solver's power
    (the fixed factor of :func:`grid._dealiased_node_count`) so that dE/dt
    vanishes identically along the semidiscrete flow -- see the
    directional-derivative identity exercised in the tests.  Requires
    real_valued fields and mean zero velocity (u_hat_t(0) = 0), without
    which the xi = 0 mode grows linearly and is excluded from the quadratic
    sum.  One half-layout row of :func:`_energy_matrix`.
    """
    if u.grid != u_t.grid:
        raise ValueError("grid mismatch")
    if not (u.real_valued and u_t.real_valued):
        raise ValueError("energy requires real_valued fields")
    rows = [_half_spectrum(f.amplitudes[None]) for f in (u, u_t)]
    return float(_energy_matrix(*rows, u.grid, p, sign)[0])


def energy_series(traj: Trajectory, p: int, sign: int) -> np.ndarray:
    """:func:`energy` at every sample of ``traj``, in one batch."""
    return _energy_matrix(traj.u, traj.u_t, traj.grid, p, sign)


# ----------------------------------------------------------------------
# data builders and physical checks


def single_mode_data(grid: FrequencyGrid, k: float, amplitude: float = 1.0) -> CauchyData:
    """u0 = amplitude*cos(k x), u1 = 0; k must be a grid node."""
    amp = np.zeros(grid.node_count, dtype=np.complex128)
    scale = amplitude * np.pi / grid.dxi
    amp[grid.index_of(k)] = scale
    amp[grid.index_of(-k)] = scale
    u0 = SpectralField(grid, amp, real_valued=True)
    return CauchyData(u0, SpectralField.zero(grid))


def gaussian_data(
    grid: FrequencyGrid, amplitude: float = 0.1, width: float = 1.0, velocity_amplitude: float = 0.0
) -> CauchyData:
    """Smooth bump data: u0_hat = a e^{-(xi/w)^2}, u1_hat = b (i xi) e^{-(xi/w)^2}.

    The velocity profile is mean-zero by construction, so the energy
    diagnostics apply.
    """
    xi = grid.xi
    bump = np.exp(-((xi / width) ** 2))
    amp0 = amplitude * bump.astype(np.complex128)
    amp0[0] = 0.0
    amp1 = velocity_amplitude * 1j * xi * bump
    amp1[0] = 0.0
    return CauchyData(
        SpectralField(grid, amp0, real_valued=True),
        SpectralField(grid, amp1, real_valued=True),
    )


def _mode_amplitude_traces(ks, horizon: float = 20.0, dt: float = 2e-3):
    """Uniform samples of the normalized mode amplitude of the free flow, for every k.

    RK4 (:func:`_rk4_steps`) on u0 = cos(kx), u1 = 0 of :func:`single_mode_data`
    with forcing off: one step on mode k is the 2x2 matrix P = sum_{i<=4} (hA)^i/i!,
    A = [[0, 1], [-lambda(k)^2, 0]], whose eigenvalues are r = sum_{i<=4} (i lambda h)^i/i!
    and its conjugate, so n steps carry (u_hat(k), v_hat(k))/u_hat(k, 0) = [1, 0]
    to the amplitude Re r^n, evaluated as |r|^n cos(n arg r).  Returns (times, a),
    a[i] = u_hat(k_i, t)/u_hat(k_i, 0) at t = j * stride * h, j = 0 .. n_steps // stride.
    Raises :class:`ConvergenceError`, naming the first such sample, if a sampled |a|
    exceeds 1e6 or is not finite: the instability guard of :func:`rk4_solve`
    on this mode.
    """
    k = np.array(ks, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0)):
        raise ValueError(f"every k must be positive and finite, got {ks}")
    n_steps, h, stride = _rk4_steps(horizon, dt)
    y = h * lambda_symbol(k)[:, None]
    r = (1.0 - y**2 / 2.0 + y**4 / 24.0) + 1j * (y - y**3 / 6.0)
    n = stride * np.arange(n_steps // stride + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a run that blows up is reported below
        a = np.abs(r) ** n * np.cos(n * np.angle(r))
    unstable = ~np.all(np.abs(a) <= 1e6, axis=0)
    if unstable.any():
        first = int(np.argmax(unstable)) * stride
        raise ConvergenceError(f"instability detected at step {first}: mode amplitude grew > 1e6x")
    return n * h, a


def _fit_mode_frequency(times: np.ndarray, a: np.ndarray) -> float:
    """Fit the oscillation frequency of uniform samples of a cosine mode.

    Recovers omega from the three-term recursion a_{i-1} + a_{i+1} =
    2 cos(omega Delta) a_i satisfied by uniform samples of cos(omega t).
    """
    if a.shape[0] < 5:
        raise RuntimeError("dispersion fit needs at least 5 samples")
    denom = 2.0 * np.sum(a[1:-1] ** 2)
    if denom <= 0:
        raise RuntimeError("dispersion fit failed: degenerate mode amplitude")
    c = float(np.sum(a[1:-1] * (a[:-2] + a[2:])) / denom)
    if not -1.0 < c < 1.0:
        raise RuntimeError(f"dispersion fit failed: cos(omega*dt) = {c}")
    delta = times[1] - times[0]
    return math.acos(c) / delta


def dispersion_check(k: float, horizon: float = 20.0, dt: float = 2e-3) -> float:
    """Fitted oscillation frequency of a linearly evolved cosine mode.

    :func:`_fit_mode_frequency` on the one-row :func:`_mode_amplitude_traces`
    (RK4 through its one-step matrix); ``imbq dispersion`` fits every k from
    one batch of traces, each row of it, with the same result.
    """
    times, a = _mode_amplitude_traces([k], horizon, dt)
    return _fit_mode_frequency(times, a[0])
