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
    """Nonlinearity, horizon, and iteration controls.

    :func:`solve` sizes its windows by accuracy.  A probe runs the first
    window of the a-priori tiling, windows of ``window_safety *
    R^{-(p-1)/2}`` with R the summed H^s-plus-sup size of the data.  Its
    embedded quadrature estimate, the 33-node prefix-Simpson tau-integral
    minus the 17-node one on the even nodes, falls like h^4 in the node
    spacing h, so the probe window is
    scaled by (target/estimate)^{1/4} with the target
    :data:`QUADRATURE_TARGET` of the largest node size, and [0, horizon] is
    tiled by ceil(horizon/window) equal windows.  A set ``window_override``,
    a ``quadrature_nodes`` other than 33, or a run without forcing tiles by
    that window or by the a-priori one, without a probe.  A window that
    does not converge, or whose estimate misses the target, halves all
    windows, up to ``max_window_halvings`` times.  Picard stops once the
    max over the window nodes of H^s + (dxi/2pi) sum |u_hat| of the iterate
    difference, an upper bound of its H^s-plus-sup size, is below
    ``picard_tol``.  The power is dealiased by the fixed factor (p+1)/2.
    """

    p: int
    sign: int
    horizon: float
    s: float = 0.0
    picard_tol: float = 1e-12
    max_iterations: int = 50
    quadrature_nodes: int = 33
    window_safety: float = 0.1
    window_override: float | None = None
    max_window_halvings: int = 5

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 2):
            raise ValueError(f"p must be an integer >= 2, got {self.p}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.s < 0:
            raise ValueError("solver regularity s must be >= 0")
        if not self.picard_tol > 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.quadrature_nodes % 2 == 0 or self.quadrature_nodes < 5:
            raise ValueError("quadrature_nodes must be odd and >= 5")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.window_safety < math.inf:
            raise ValueError(f"window_safety must be positive and finite, got {self.window_safety}")
        if self.window_override is not None and not self.window_override > 0:
            raise ValueError(f"window_override must be positive, got {self.window_override}")
        if self.max_window_halvings < 0:
            raise ValueError(f"max_window_halvings must be >= 0, got {self.max_window_halvings}")


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
    state at ``times[i]``.  ``halvings`` counts the failed march attempts
    before the one that produced the windows.  Every row is checked finite,
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

    def index_at(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"no sample at t = {t}")
        return i


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

_HALF_STEP_ROW = np.array([5.0, 8.0, -1.0]) / 12.0
_THREE_EIGHTHS_ROW = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)


def _simpson_row(i: int) -> np.ndarray:
    w = np.ones(i + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _prefix_weights(n_nodes: int, h: float) -> np.ndarray:
    """Rows W[i] with  int_0^{t_i} f  ~=  sum_j W[i, j] f(t_j),  t_j = j*h.

    Even prefixes use composite Simpson; odd prefixes splice a 3/8 block
    (or, for i = 1, the half-interval rule through nodes 0..2) so every row
    is fourth-order accurate and closed over the node set.
    """
    w = np.zeros((n_nodes, n_nodes))
    for i in range(1, n_nodes):
        if i == 1:
            w[1, :3] = _HALF_STEP_ROW
        elif i % 2 == 0:
            w[i, : i + 1] = _simpson_row(i)
        else:
            if i > 3:
                w[i, : i - 2] = _simpson_row(i - 3)
            w[i, i - 3 : i + 1] += _THREE_EIGHTHS_ROW
    return w * h


class _Rule(NamedTuple):
    """Node times, prefix weights and half-layout flow table of one window length.

    ``embedded`` has the rows W[2i] - V[i] for i >= 1: the prefix weights at
    the even nodes minus those V of the rule on the even nodes alone,
    spread onto the even columns.
    """

    times: np.ndarray
    weights: np.ndarray
    table: _FlowTable
    embedded: np.ndarray


def _rule(grid: FrequencyGrid, times: np.ndarray) -> _Rule:
    """The rule on uniform ``times`` starting at 0, over the half layout of ``grid``."""
    n, h = times.shape[0], times[1]
    weights = _prefix_weights(n, h)
    embedded = weights[2::2].copy()
    embedded[:, ::2] -= _prefix_weights((n + 1) // 2, 2 * h)[1:]
    return _Rule(times, weights, _flow_table(_half_spectrum(grid.xi), times), embedded)


# ----------------------------------------------------------------------
# Duhamel functional and Picard iteration
#
# The Picard iterates are real fields, so everything below works on the
# half layout of grid._half_spectrum: M/2 + 1 columns instead of M.


def _free(a0, a1, table: _FlowTable, velocity=False) -> np.ndarray:
    """The free evolution of half-layout data (a0, a1) on the table's times, or its velocity."""
    lam, cos_t, sin_t, sin_over = table
    return -lam * sin_t * a0 + cos_t * a1 if velocity else cos_t * a0 + sin_over * a1


def _reals(stack: np.ndarray) -> np.ndarray:
    """The float64 view of (n, 2, k) complex products, one row per node."""
    return stack.reshape(stack.shape[0], -1).view(np.float64)


def _tau_integrals(u, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig):
    """With g = u^p at half-layout node states ``u``: the (n, 2, k) products
    cos(t_j lam) g, sin(t_j lam) g and their prefix tau-integrals, the
    latter one real GEMM over the float64 view of the former.
    """
    g = _power_matrix(u, grid, cfg.p)
    n, k = g.shape
    # the GEMM's operand and result share one allocation and the result is combined in place,
    # so an iteration allocates few large arrays
    stack, sums = np.empty((2, n, 2, k), dtype=np.complex128)
    np.multiply(rule.table.cos, g, out=stack[:, 0])
    np.multiply(rule.table.sin, g, out=stack[:, 1])
    del g
    np.matmul(rule.weights, _reals(stack), out=_reals(sums))
    return stack, sums


def _duhamel(u, free, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig, velocity=False, sums=None) -> np.ndarray:
    """``free`` plus the forcing term of the Duhamel map (with ``velocity``, of its
    time derivative) at half-layout node states ``u``, or from their given
    :func:`_tau_integrals` ``sums``, which it combines in place.
    """
    if sums is None:
        sums = _tau_integrals(u, rule, grid, cfg)[1]
    lam, cos_t, sin_t, _ = rule.table
    c, s = sums[:, 0], sums[:, 1]
    if velocity:
        c *= cos_t
        s *= sin_t
        c += s
        c *= cfg.sign * lam**2
    else:
        # sin((t_i - t_j) lam) = sin(t_i lam) cos(t_j lam) - cos(t_i lam) sin(t_j lam)
        c *= sin_t
        s *= cos_t
        c -= s
        c *= cfg.sign * lam
    return free - c


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


def _embedded_error(stack, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig) -> float:
    """Largest node size, over the even nodes, of the difference between the
    forcing terms from the window's prefix-Simpson rule and from the rule on
    its even nodes alone, with the (n, 2, k) products ``stack``.
    """
    lam, cos_t, sin_t, _ = rule.table
    diff = np.matmul(rule.embedded, _reals(stack)).view(np.complex128).reshape(-1, *stack.shape[1:])
    c, s = diff[:, 0], diff[:, 1]
    c *= sin_t[2::2]
    s *= cos_t[2::2]
    c -= s
    c *= lam
    return float(np.max(_node_sizes(c, grid, cfg.s)))


def _picard(a0, a1, rule: _Rule, grid: FrequencyGrid, cfg: SolverConfig, forcing: bool):
    """:func:`picard_window` on half-layout data (a0, a1) and a given rule:
    returns the half-layout node states u, u_t and the window's report.

    The report's quadrature estimate is :func:`_embedded_error` on the
    converged iterate over its largest node size.  It takes the products of
    the velocity pass, which has them anyway, so it costs no transform, and
    its arrays are dropped before that pass allocates its result.
    """
    window = float(rule.times[-1])
    free = _free(a0, a1, rule.table)
    current = free
    diffs: list[float] = []
    try:
        for _ in range(cfg.max_iterations):
            new = _duhamel(current, free, rule, grid, cfg) if forcing else free
            diff = float(np.max(_node_sizes(new - current, grid, cfg.s)))
            diffs.append(diff)
            current = new
            if diff < cfg.picard_tol:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not reach {cfg.picard_tol:g} within "
                f"{cfg.max_iterations} iterations on a window of length {window:g}",
                history=diffs,
            )
        free = _free(a0, a1, rule.table, velocity=True)
        estimate, ut = 0.0, free
        if forcing:
            size = float(np.max(_node_sizes(current, grid, cfg.s)))
            stack, sums = _tau_integrals(current, rule, grid, cfg)
            estimate = _embedded_error(stack, rule, grid, cfg) / size if size > 0 else 0.0
            ut = _duhamel(current, free, rule, grid, cfg, velocity=True, sums=sums)
    except OverflowError as err:
        raise ConvergenceError(
            f"Picard iteration on a window of length {window:g} failed after "
            f"{len(diffs)} iterations: {err}",
            history=diffs,
        ) from err
    ratios = tuple(b / a for a, b in zip(diffs[:-1], diffs[1:]) if a > 0)
    report = ContractionReport(window, len(diffs), tuple(diffs), ratios, estimate)
    return current, ut, report


def picard_window(
    d: CauchyData, window: float, cfg: SolverConfig, forcing: bool = True, *, _shared: _Rule | None = None
) -> tuple[Trajectory, ContractionReport]:
    """Iterate the Duhamel map to its fixed point on [0, window].

    Starts from the free evolution and stops when the max over the nodes of
    H^s + (dxi/2pi) sum |u_hat| of the iterate difference, the report's
    ``differences``, drops below ``picard_tol``; the second term bounds the
    sup norm from above.  Raises :class:`ConvergenceError` with the
    difference history when ``max_iterations`` is exhausted (window too
    long or data too large) or when the pointwise power overflows.
    The report carries the window's quadrature estimate, the trajectory the
    half-layout node states.  ``_shared`` is internal: the rule of ``window``
    that :func:`_march` builds once for all windows of an attempt.
    """
    if not window > 0:
        raise ValueError("window length must be positive")
    rule = _shared if _shared is not None else _rule(d.grid, np.linspace(0.0, window, cfg.quadrature_nodes))
    a0, a1 = _half_spectrum(d.u0.amplitudes), _half_spectrum(d.u1.amplitudes)
    u, ut, report = _picard(a0, a1, rule, d.grid, cfg, forcing)
    return Trajectory(rule.times, u, ut, d.grid, window_edges=(0.0, window), window_reports=(report,)), report


# work budget of the march: windows at its start, ceil(horizon/window), set or data-derived, and
# again once the probe has sized them and before a halving.  At the limit `imbq solve` with
# 512 nodes, p = 2 and 33 quadrature nodes takes 57 s on a 2-vCPU container when the window is
# set; data whose a-priori tiling is at the limit are sized to ~3,400 windows (25 s).  The count
# ignores nodes and iterations, so it does not bound run time.
MAX_SOLVE_WINDOWS = 10**4
# accuracy target of the window rule: every window's quadrature estimate, relative to its largest
# node size (ContractionReport.quadrature_estimate), is at most this
QUADRATURE_TARGET = 1e-8


def _window_length(d: CauchyData, cfg: SolverConfig) -> float:
    if cfg.window_override is not None:
        return min(cfg.window_override, cfg.horizon)
    r = sobolev_norm(d.u0, cfg.s) + sup_norm(d.u0) + sobolev_norm(d.u1, cfg.s) + sup_norm(d.u1)
    if r == 0.0:
        return cfg.horizon
    # in logs: for r < 1 and a large p, r^{-(p-1)/2} overflows a float
    log_w = math.log(cfg.window_safety) - 0.5 * (cfg.p - 1) * math.log(r)
    return cfg.horizon if log_w >= math.log(cfg.horizon) else math.exp(log_w)


def _window_count(count: float, horizon: float) -> int:
    """ceil(count), at least 1, or :class:`ConvergenceError` past :data:`MAX_SOLVE_WINDOWS`."""
    if not count - 1e-12 <= MAX_SOLVE_WINDOWS:
        raise ConvergenceError(
            f"a window of {horizon / count:.6g} makes {count:.6g} windows over [0, {horizon:g}]; "
            f"limit {MAX_SOLVE_WINDOWS}"
        )
    return max(1, math.ceil(count - 1e-12))


class _Attempt(NamedTuple):
    """A failed march attempt: its window count, failing window and that window's history."""

    windows: int
    window_index: int
    differences: tuple[float, ...]


class _Marched(NamedTuple):
    """What :func:`_march` returns; ``probe`` is (window, quadrature estimate) or None."""

    times: np.ndarray
    edges: tuple[float, ...]
    reports: tuple[ContractionReport, ...]
    probe: tuple[float, float] | None
    failures: tuple[_Attempt, ...]


def _march(d: CauchyData, cfg: SolverConfig, forcing: bool, take) -> _Marched:
    """March Picard windows of one length over [0, horizon], halving them on a failure.

    The probe of :class:`SolverConfig` sizes the windows (it runs without
    ``window_override``, with 33 quadrature nodes and with forcing); a probe
    window that matches the sized tiling is kept as its window 0, since its
    estimate meets the target up to the rounding of the count.  A window
    fails when it does not converge or, when sized, when its estimate is
    above :data:`QUADRATURE_TARGET`; an attempt that fails before anything
    was sized probes again.  Window k of an attempt with n windows calls
    ``take(n, k, times, u, u_t)`` with the rows it adds: all of window 0,
    then every row but the first (the previous window's last state).
    ``k == 0`` starts an attempt, and the consumer drops whatever it kept
    of a failed one.  The windows of an attempt share one
    :class:`_Rule`, and node j of window k is stamped at
    (k (Q-1) + j) horizon / (n (Q-1)), so a time the tiling hits prints
    exactly.  Continuation data at each window end is the converged state
    and the velocity from the differentiated Duhamel formula (spectrally
    exact, no finite-difference stencil).  More than
    :data:`MAX_SOLVE_WINDOWS` windows, before any window runs, once sized
    or by a halving, or a window that underflows to 0, raise
    :class:`ConvergenceError`.
    """
    base = _window_length(d, cfg)
    n_windows = _window_count(cfg.horizon / base if base > 0 else math.inf, cfg.horizon)
    step = cfg.quadrature_nodes - 1
    # the dataclass default: another node count is an override
    sized = cfg.window_override is None and cfg.quadrature_nodes == SolverConfig.quadrature_nodes and forcing
    target = QUADRATURE_TARGET if sized else None
    probe, failures = None, []
    while True:
        w, first = cfg.horizon / n_windows, None
        rule = _rule(d.grid, np.linspace(0.0, w, cfg.quadrature_nodes))
        times, edges, reports = [], [0.0], []
        data = d
        try:
            if sized and probe is None:
                first = _run_window(d, w, cfg, forcing, rule, 0, 0.0)
                probe = (w, first[1].quadrature_estimate)
                count = _window_count(n_windows * (probe[1] / target) ** 0.25, cfg.horizon)
                if count != n_windows:
                    n_windows = count
                    continue
            for k in range(n_windows):
                start = k * cfg.horizon / n_windows
                traj, report = first if k == 0 and first else _run_window(data, w, cfg, forcing, rule, k, start, target)
                new = slice(0 if k == 0 else 1, None)
                times.append((k * step + np.arange(cfg.quadrature_nodes)[new]) * cfg.horizon / (n_windows * step))
                take(n_windows, k, times[-1], traj.u[new], traj.u_t[new])
                edges.append((k + 1) * cfg.horizon / n_windows)
                reports.append(report)
                data = CauchyData(*traj.final())
        except ConvergenceError as err:
            if err.window_index is None:  # the sized count is over the budget
                raise
            failures.append(_Attempt(n_windows, err.window_index, tuple(err.history)))
            if len(failures) > cfg.max_window_halvings:
                raise
            if 2 * n_windows > MAX_SOLVE_WINDOWS:
                message = f"{err}; halved, {2 * n_windows} windows would pass the limit {MAX_SOLVE_WINDOWS}"
                raise ConvergenceError(message, history=err.history, window_index=err.window_index) from err
            n_windows *= 2
            continue
        return _Marched(np.concatenate(times), tuple(edges), tuple(reports), probe, tuple(failures))


def _run_window(data: CauchyData, w, cfg: SolverConfig, forcing: bool, rule: _Rule, k: int, start, target=None):
    """:func:`picard_window` as window ``k`` of a march: a failure, or a quadrature
    estimate above ``target``, raises :class:`ConvergenceError` naming the window.
    """
    try:
        traj, report = picard_window(data, w, cfg, forcing, _shared=rule)
        if target is not None and report.quadrature_estimate > target:
            message = f"its quadrature estimate {report.quadrature_estimate:.3g} is above the target {target:g}"
            raise ConvergenceError(message, history=report.differences)
    except ConvergenceError as err:
        message = f"window {k} ([{start:g}, {start + w:g}]) failed: {err}"
        raise ConvergenceError(message, history=err.history, window_index=k) from err
    return traj, report


def solve(d: CauchyData, cfg: SolverConfig, forcing: bool = True) -> Trajectory:
    """March the Picard solver over [0, horizon] in windows.

    Windows halve on non-convergence, up to ``max_window_halvings`` times
    (see :func:`_march`).  Each window's rows are written into (n, M/2 + 1)
    matrices allocated once per attempt; a single window keeps its own.
    """
    step, width = cfg.quadrature_nodes - 1, d.grid.node_count // 2 + 1
    mats: list[np.ndarray] = []

    def take(n_windows, k, times, u, ut):
        if n_windows == 1:
            # a single window is not copied: the copy lifts derivative-check's peak RSS from 113 to 130 MB
            mats[:] = [u, ut]
            return
        if k == 0:  # a new attempt: the matrices of a failed one go before the new ones are allocated
            mats.clear()
            mats.extend(np.empty((n_windows * step + 1, width), np.complex128) for _ in range(2))
        rows = slice(k * step + (k > 0), (k + 1) * step + 1)
        mats[0][rows] = u
        mats[1][rows] = ut

    marched = _march(d, cfg, forcing, take)
    return Trajectory(marched.times, mats[0], mats[1], d.grid, marched.edges, marched.reports, len(marched.failures))


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
    A = [[0, 1], [-lambda(k)^2, 0]], acting on (u_hat(k), v_hat(k))/u_hat(k, 0).
    P^stride carries [1, 0] from one sample to the next, so the cost is
    independent of the step count.  Returns (times, a), a[i] = u_hat(k_i, t)/u_hat(k_i, 0)
    at t = j * stride * h, j = 0 .. n_steps // stride.  Raises
    :class:`ConvergenceError`, naming the first such sample, if a sampled |a|
    exceeds 1e6 or is not finite: the instability guard of :func:`rk4_solve`
    on this mode.
    """
    k = np.array(ks, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0)):
        raise ValueError(f"every k must be positive and finite, got {ks}")
    n_steps, h, stride = _rk4_steps(horizon, dt)
    ha = np.zeros((k.shape[0], 2, 2))
    ha[:, 0, 1] = h
    ha[:, 1, 0] = -h * lambda_symbol(k) ** 2
    step = sum(np.linalg.matrix_power(ha, i) / math.factorial(i) for i in range(5))
    sample_map = np.linalg.matrix_power(step, stride)
    y = np.zeros((n_steps // stride + 1, k.shape[0], 2, 1))  # (sample, mode, [u, v])
    y[0, :, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a run that blows up is reported below
        for j in range(1, y.shape[0]):
            np.matmul(sample_map, y[j - 1], out=y[j])
    a = y[:, :, 0, 0].T.copy()
    unstable = ~np.all(np.abs(a) <= 1e6, axis=0)
    if unstable.any():
        first = int(np.argmax(unstable)) * stride
        raise ConvergenceError(f"instability detected at step {first}: mode amplitude grew > 1e6x")
    return np.arange(y.shape[0]) * float(stride) * h, a


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
