import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbq.grid import (
    SpectralField,
    lambda_symbol,
    make_grid,
    sobolev_norm,
    sup_norm,
)
from imbq.solver import (
    CauchyData,
    ConvergenceError,
    SolverConfig,
    Trajectory,
    dispersion_check,
    energy,
    energy_series,
    free_propagator,
    gaussian_data,
    picard_window,
    rk4_solve,
    single_mode_data,
    solve,
)
from imbq.grid import (
    _full_spectrum,
    _half_spectrum,
    _padded_node_count,
    _power_matrix,
    random_real_field,
)
from imbq.solver import (
    _duhamel,
    _energy_matrix,
    _fit_mode_frequency,
    _flow_table,
    _free,
    _mode_amplitude_traces,
    _lobatto_nodes,
    _lobatto_weights,
    _node_sizes,
    _rule,
)
from imbq.symbols import Symbol, eval_symbol
from imbq import solver as solver_module


def small_data(grid=None, amplitude=0.2):
    grid = grid or make_grid(16.0, 512)
    return gaussian_data(grid, amplitude=amplitude, width=1.0, velocity_amplitude=amplitude / 2)


def free_velocity(d, t):
    """Time derivative of the free flow at t: the velocity rows of solver._free."""
    a0, a1 = _half_spectrum(d.u0.amplitudes), _half_spectrum(d.u1.amplitudes)
    amp = _full_spectrum(_free(a0, a1, _flow_table(_half_spectrum(d.grid.xi), t), velocity=True))
    return SpectralField(d.grid, amp, real_valued=True)


def duhamel_rows(d, window, n, u, cfg):
    """One application of the Duhamel map (solver._rule plus solver._duhamel) to the (n, M) rows ``u``
    at the n Chebyshev-Lobatto nodes of [0, window]."""
    rule = _rule(d.grid, window, n)
    free = _free(_half_spectrum(d.u0.amplitudes), _half_spectrum(d.u1.amplitudes), rule.table)
    return _full_spectrum(_duhamel(_half_spectrum(u), free, rule, d.grid, cfg))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=1, sign=1, horizon=1.0)
    with pytest.raises(ValueError):
        SolverConfig(p=2, sign=0, horizon=1.0)
    with pytest.raises(ValueError):
        SolverConfig(p=2, sign=1, horizon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(p=2, sign=1, horizon=1.0, s=-0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", math.inf),
        ("s", -0.5),
        ("s", math.nan),
        ("s", math.inf),
        ("window_override", 0.0),
        ("window_override", -1.0),
        ("window_override", math.nan),
    ],
)
def test_solver_config_rejects_each_setting_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverConfig(**{"p": 2, "sign": 1, "horizon": 1.0, field: value})


def test_cauchy_data_validation():
    g1, g2 = make_grid(4.0, 32), make_grid(4.0, 64)
    with pytest.raises(ValueError):
        CauchyData(SpectralField.zero(g1), SpectralField.zero(g2))
    with pytest.raises(ValueError):
        CauchyData(SpectralField.zero(g1), SpectralField.zero(g1, real_valued=False))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 17, 33, 65, 129, 257])
def test_lobatto_weights_integrate_polynomials_exactly(n):
    # every degree <= n - 1, at each node and at off-node times: with s = 2t/w - 1,
    # int_0^t s^d = (w/2)(s^{d+1} - (-1)^{d+1})/(d+1), and |s^d| <= 1 on [0, w];
    # n = 3 is the nested rule of compute_Ap's smallest tau_nodes, 7 and 11 are not 2^k + 1
    window = 3.7
    nodes = _lobatto_nodes(n, window)
    off = np.array([0.0, 1e-3, 0.123, 1.85, 3.0, window])
    for times in (nodes, off):
        rows = _lobatto_weights(n, window, times)
        s_nodes, s_t = 2.0 * nodes / window - 1.0, 2.0 * times / window - 1.0
        for d in range(n):
            exact = 0.5 * window * (s_t ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(rows @ s_nodes**d - exact)) <= 1e-13 * window
        assert not np.any(rows[0])  # the row at t = 0 is exactly 0


@pytest.mark.parametrize("n", [7, 9, 11, 17, 33, 65, 129])
def test_lobatto_even_nodes_are_the_nested_set(n):
    g = make_grid(4.0, 16)
    fine, coarse = _rule(g, 2.5, n), _rule(g, 2.5, (n + 1) // 2)
    assert np.array_equal(fine.times[::2], coarse.times)
    assert fine.times[0] == 0.0 and fine.times[-1] == 2.5 and np.all(np.diff(fine.times) > 0)
    # the embedded rows: the n-node rows at the even nodes minus the nested rule's rows there
    expect = fine.weights[2::2].copy()
    expect[:, ::2] -= coarse.weights[1:]
    assert np.max(np.abs(fine.embedded - expect)) <= 1e-15 * 2.5


def test_lobatto_row_builds_no_square_matrix():
    # one row at n = 4097, the Clenshaw-Curtis weights of [0, 1]: an (n, n) construction alone
    # would hold n^2 x 8 bytes = 134 MB
    n = 4097
    tracemalloc.start()
    try:
        row = _lobatto_weights(n, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * n * n * 8
    assert row.shape == (n,) and np.all(row > 0) and abs(row.sum() - 1.0) <= 1e-13


def test_flow_table_rows_equal_the_symbols():
    # one sin(t lam)/lam helper: the vectorised table reproduces the
    # per-time symbols bit for bit, the series branch (|t lam| < 1e-4) included
    g = make_grid(16.0, 512)
    times = np.concatenate([np.linspace(0.0, 0.4, 9), [1e-3, 5.0]])
    table = _flow_table(g.xi, times)
    for i, t in enumerate(times):
        assert np.array_equal(table.sin_over[i], eval_symbol(Symbol("R_t", float(t)), g.xi))
        assert np.array_equal(table.cos[i], eval_symbol(Symbol("Q_t", float(t)), g.xi))
        assert np.array_equal(table.sin[i], np.sin(t * table.lam))


def hermitian_rows(m, n, rng):
    """Random rows with a[M-k] = conj(a[k]), a real zero mode and a free k = 0 node."""
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    h = m // 2
    a[:, h] = a[:, h].real
    a[:, h + 1 :] = np.conj(a[:, h - 1 : 0 : -1])
    return a


def _reference_power(amp, g, p, factor):
    """u^p of one Hermitian row through complex transforms of the zero-padded row."""
    m = amp.shape[0]
    padded = _padded_node_count(m, factor)
    dx_fine = 2 * np.pi / (padded * g.dxi)
    lo = padded // 2 - m // 2
    full = np.zeros(padded, dtype=complex)
    full[lo : lo + m] = amp
    samples = np.fft.ifft(np.fft.ifftshift(full)).real / dx_fine
    return (dx_fine * np.fft.fftshift(np.fft.fft(samples**p)))[lo : lo + m]


@pytest.mark.parametrize("m", [10, 512])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_power_matrix_matches_per_row_power(p, m):
    g = make_grid(4.0, m)
    rows = hermitian_rows(m, 7, np.random.default_rng(100 * p + m))
    assert np.all(rows[:, 0] != 0)  # the unpaired node takes part
    # the half-layout power, expanded to full rows, against the complex-transform reference
    got = _full_spectrum(_power_matrix(_half_spectrum(rows), g, p))
    ref = np.vstack([_reference_power(r, g, p, (p + 1) / 2) for r in rows])
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_power_matrix_overflow_raises():
    g = make_grid(4.0, 32)
    rows = hermitian_rows(32, 3, np.random.default_rng(1))
    rows[1] *= 1e200
    with pytest.raises(OverflowError):
        _power_matrix(_half_spectrum(rows), g, 3)


def test_stopping_norm_bounds_sobolev_plus_sup():
    # (dxi/2pi) sum |u_hat| never falls below sup|u|, so the stopping test
    # never lets Picard stop earlier than an H^s-plus-sup test would
    for seed in range(8):
        rng = np.random.default_rng(seed)
        g = make_grid(8.0 + seed, 64 * (1 + seed % 3))
        fields = [random_real_field(g, rng, decay=dec) for dec in (0.0, 1.0, 3.0)]
        amps = np.vstack([f.amplitudes for f in fields])
        for s in (0.0, 0.5, 1.0):
            sizes = _node_sizes(_half_spectrum(amps), g, s)
            for f, size in zip(fields, sizes):
                l1 = g.dxi / (2 * np.pi) * np.sum(np.abs(f.amplitudes))
                assert l1 >= sup_norm(f)
                assert size == pytest.approx(sobolev_norm(f, s) + l1, rel=1e-14)


@pytest.mark.parametrize("m", [10, 512])
def test_half_stopping_norm_equals_the_full_sum(m):
    # each xi > 0 column counts twice, xi = 0 and the unpaired node k = 0 once
    g = make_grid(4.0, m)
    half = _half_spectrum(hermitian_rows(m, 5, np.random.default_rng(m)))
    rows = _full_spectrum(half)
    assert np.all(rows[:, 0] != 0)
    c = g.dxi / (2 * np.pi)
    for s in (0.0, 0.5, 1.0):
        weights = (1.0 + g.xi**2) ** s
        full = np.sqrt(np.sum(weights * np.abs(rows) ** 2, axis=1) * c) + c * np.sum(np.abs(rows), axis=1)
        assert np.max(np.abs(_node_sizes(half, g, s) - full) / full) <= 1e-14


def _count_flow_tables(monkeypatch):
    calls = []

    def counted(xi, times):
        calls.append(np.size(times))
        return _flow_table(xi, times)

    monkeypatch.setattr(solver_module, "_flow_table", counted)
    return calls


def test_one_flow_table_per_march_attempt(monkeypatch):
    calls = _count_flow_tables(monkeypatch)
    traj = solve(small_data(), SolverConfig(p=2, sign=1, horizon=2.0, window_override=0.25))
    assert len(traj.window_reports) == 8
    assert calls == [9]  # window 0 meets the target on 9 nodes, and the eight windows share its table
    calls.clear()
    traj = solve(small_data(), SolverConfig(p=2, sign=1, horizon=2.0))
    assert len(traj.window_reports) == 2
    # the probe's table (window 0 of the a-priori nine, 9 nodes), then one per node count that
    # window 0 of the two sized windows tries; both windows share the last
    assert calls == [9, 9, 17]


def test_halved_attempt_builds_a_new_flow_table(monkeypatch):
    # the first attempt fails in window 1, the halved one marches eight windows
    d = gaussian_data(make_grid(8.0, 64), amplitude=0.05, width=1.0, velocity_amplitude=1.0)
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 4)
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 1)
    cfg = SolverConfig(p=2, sign=1, horizon=2.0, window_override=0.5)
    calls = _count_flow_tables(monkeypatch)
    traj = solve(d, cfg)
    assert len(traj.window_reports) == 8
    # window 0 of the first attempt doubles 9 -> 17 nodes; the halved attempt sizes afresh, at 9
    assert calls == [9, 17, 9]


def test_failed_attempt_holds_only_the_rows_of_the_windows_it_ran(monkeypatch):
    # 2,000 set windows of 9 nodes on 512 nodes that fail at window 1: rows allocated up front for
    # every window would take 2 (2000 * 8 + 1) 257 complex numbers, 132 MB
    calls = []

    def failing(d, window, *args, **kwargs):
        calls.append(window)
        if len(calls) == 2:
            raise ConvergenceError("made to fail")
        return picard_window(d, window, *args, **kwargs)

    monkeypatch.setattr(solver_module, "picard_window", failing)
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 0)
    d = small_data()
    up_front = 2 * (2000 * 8 + 1) * (d.grid.node_count // 2 + 1) * 16
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="window 1 .* made to fail") as exc:
            solve(d, SolverConfig(p=2, sign=1, horizon=1.0, window_override=1 / 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.window_index == 1 and len(calls) == 2
    assert peak < up_front / 20


def test_march_refuses_more_windows_than_the_budget(monkeypatch):
    calls = _count_flow_tables(monkeypatch)
    cfg = SolverConfig(p=2, sign=1, horizon=1.0, window_override=1e-9)
    with pytest.raises(ConvergenceError, match=f"limit {solver_module.MAX_SOLVE_WINDOWS}"):
        solve(gaussian_data(make_grid(8.0, 64), 0.1, 1.0, 0.0), cfg)
    assert calls == []  # refused before any window runs


def test_probe_refuses_to_size_past_the_budget(monkeypatch):
    # an a-priori window of 0.75 (four windows) on focusing data: the probe's ratio 0.054
    # sizes ceil(4 sqrt(5.4)) = 10 windows, past a budget of eight
    monkeypatch.setattr(solver_module, "_window_length", lambda d, cfg, forcing: 0.75)
    monkeypatch.setattr(solver_module, "MAX_SOLVE_WINDOWS", 8)
    d = gaussian_data(make_grid(16.0, 64), amplitude=3.0)
    with pytest.raises(ConvergenceError, match="makes 9.3.* windows over .*; limit 8") as exc:
        solve(d, SolverConfig(p=3, sign=-1, horizon=3.0))
    assert exc.value.window_index is None  # refused once sized, not halved


def test_march_refuses_to_halve_past_the_budget(monkeypatch):
    # 6,000 windows fail in window 0; halved, 12,000 would pass the limit
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 1)
    cfg = SolverConfig(p=2, sign=1, horizon=1.0, window_override=1 / 6000)
    with pytest.raises(ConvergenceError, match="12000 windows would pass the limit") as exc:
        solve(gaussian_data(make_grid(8.0, 64), 0.1, 1.0, 0.0), cfg)
    assert exc.value.window_index == 0 and len(exc.value.history) == 1


def test_picard_iteration_counts_on_quick_start_data():
    # the probe's contraction sizes two windows of 1 from the a-priori nine; each converges in five iterations
    d = small_data()
    traj = solve(d, SolverConfig(p=2, sign=1, horizon=2.0))
    counts = [r.iterations for r in traj.window_reports]
    assert (len(counts), sum(counts)) == (2, 10)


def test_sized_solve_matches_half_its_window():
    # solve-long's data and horizon: the probe's contraction sizes 14 windows of 17 nodes from the
    # a-priori 85
    d = small_data()
    marched = solver_module._march(d, SolverConfig(p=2, sign=1, horizon=20.0), True, lambda *rows: None)
    assert marched.probe[0] == 20.0 / 85 and marched.doubling[-1][1] == 17
    sized = solve(d, SolverConfig(p=2, sign=1, horizon=20.0))
    assert len(sized.window_reports) == 14 and sized.halvings == 0
    assert all(r.quadrature_estimate <= solver_module.QUADRATURE_TARGET for r in sized.window_reports)
    half = sized.window_reports[0].window_length / 2
    fine = solve(d, SolverConfig(p=2, sign=1, horizon=20.0, window_override=half))
    assert len(fine.window_reports) == 2 * 14
    for a, b in zip(sized.final(), fine.final()):
        assert sobolev_norm(a - b, 0.0) <= 1e-9 * sobolev_norm(b, 0.0)


def test_sample_inside_a_window_matches_a_window_edge():
    # a requested t inside the one sized window of [0, 0.5] equals the end state of a solve set to
    # windows of t, where t is a node: the Duhamel formula at t, not an interpolation
    d = small_data(make_grid(8.0, 128))
    cfg = SolverConfig(p=2, sign=1, horizon=0.5)
    t = 0.5 * 3 / 7
    marched = solver_module._march(d, cfg, True, lambda *rows: None, [0.0, t, 0.5])
    assert marched.edges == (0.0, 0.5) and np.array_equal(marched.sampled.times, [0.0, t, 0.5])
    assert not np.any(np.isclose(marched.times, t, rtol=1e-3))  # t is far from every node
    edge = solve(d, SolverConfig(p=2, sign=1, horizon=t))
    assert edge.window_edges == (0.0, t)
    for got, want in zip(marched.sampled.state(1), edge.final()):
        assert sobolev_norm(got - want, 0.0) <= 1e-12 * sobolev_norm(want, 0.0)
    # at 0 the sample is the data, at the window end the converged end state
    assert np.array_equal(marched.sampled.u[0], _half_spectrum(d.u0.amplitudes))
    whole = solve(d, cfg)
    for got, want in zip(marched.sampled.state(2), whole.final()):
        assert sobolev_norm(got - want, 0.0) <= 1e-12 * sobolev_norm(want, 0.0)


def test_sized_solve_agrees_with_rk4():
    # criterion 6's tolerance, over two sized windows
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=2.0)
    picard = solve(d, cfg)
    assert len(picard.window_reports) == 2
    rk = rk4_solve(d, cfg, dt=1e-3, store_stride=10**9)
    diff = picard.final()[0] - rk.final()[0]
    assert sobolev_norm(diff, 0.0) <= 1e-6 * sobolev_norm(rk.final()[0], 0.0)


def test_window_missing_the_quadrature_target_is_halved(monkeypatch):
    # focusing data whose estimate grows in time: of the ten sized windows of 9 nodes, window 6
    # converges but misses the target, and the halved attempt's twenty windows meet it
    d = gaussian_data(make_grid(16.0, 64), amplitude=3.0)
    cfg = SolverConfig(p=3, sign=-1, horizon=3.0)
    marched = solver_module._march(d, cfg, True, lambda *rows: None)
    assert [f[:2] + (f.nodes,) for f in marched.failures] == [(10, 6, 9)]
    assert marched.failures[0].differences[-1] < solver_module.PICARD_TOL  # converged: rejected on its estimate
    assert len(marched.reports) == 20
    assert all(r.quadrature_estimate <= 1e-8 for r in marched.reports)
    assert solve(d, cfg).halvings == 1
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 0)
    with pytest.raises(ConvergenceError, match="quadrature estimate .* is above the target 1e-08") as exc:
        solve(d, cfg)
    assert exc.value.window_index == 6


def test_window_too_long_for_the_largest_rule_is_cut_without_a_halving(monkeypatch):
    # small data over a long horizon: the probe's contraction sizes one window of 600, which 65 nodes
    # cannot integrate; window 0 is cut to 18.75 (33 nodes) without spending a halving, so the one
    # halving allowed is left for window 1's miss, and 64 windows of 33 nodes meet the target
    d = gaussian_data(make_grid(40.0, 64), amplitude=0.07)
    cfg = SolverConfig(p=5, sign=1, horizon=600.0)
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 1)
    marched = solver_module._march(d, cfg, True, lambda *rows: None)
    assert [f[:2] + (f.nodes,) for f in marched.failures] == [(32, 1, 33)]
    assert [run[:2] for run in marched.doubling] == [(9.375, 9), (9.375, 17), (9.375, 33)]
    assert len(marched.reports) == 64
    assert all(r.quadrature_estimate <= 1e-8 for r in marched.reports)
    sized = solve(d, cfg)
    fine = solve(d, SolverConfig(p=5, sign=1, horizon=600.0, window_override=600.0 / 128))
    for a, b in zip(sized.final(), fine.final()):
        assert sobolev_norm(a - b, 0.0) <= 1e-9 * sobolev_norm(b, 0.0)
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 0)
    with pytest.raises(ConvergenceError, match=r"window 1 \(\[18.75, 37.5\]\) failed: its quadrature estimate"):
        solve(d, cfg)
    # the window budget bounds the cuts: the a-priori 17 windows pass it, the probe sizes one, window 0
    # misses at 1, 2, 4, 8 and 16 windows, and the cut to 32 is refused
    monkeypatch.setattr(solver_module, "MAX_SOLVE_WINDOWS", 24)
    with pytest.raises(ConvergenceError, match=r"makes 32 windows over \[0, 600\]; limit 24") as exc:
        solve(d, cfg)
    assert exc.value.window_index is None


@pytest.mark.parametrize(
    "constants, extent, data, cfg, windows",
    [
        # the focusing case above: ten sized windows, halved to twenty
        (dict(), 16.0, dict(amplitude=3.0), dict(p=3, sign=-1, horizon=3.0), 20),
        # window 1 of four needs a fifth iteration, halved to eight
        (
            dict(MAX_ITERATIONS=4, MAX_WINDOW_HALVINGS=1),
            8.0,
            dict(amplitude=0.05, velocity_amplitude=1.0),
            dict(p=2, sign=1, horizon=2.0, window_override=0.5),
            8,
        ),
    ],
    ids=["focusing", "max_iterations"],
)
def test_halved_solve_equals_a_solve_at_the_halved_window(monkeypatch, constants, extent, data, cfg, windows):
    # the failed attempt's rows are dropped: the halved march is bit-equal to one set to its window
    for name, value in constants.items():
        monkeypatch.setattr(solver_module, name, value)
    d = gaussian_data(make_grid(extent, 64), **data)
    cfg = SolverConfig(**cfg)
    halved = solve(d, cfg)
    assert (halved.halvings, len(halved.window_reports)) == (1, windows)
    direct = solve(d, replace(cfg, window_override=cfg.horizon / windows))
    assert (direct.halvings, len(direct.window_reports)) == (0, windows)
    for name in ("times", "u", "u_t"):
        assert np.array_equal(getattr(halved, name), getattr(direct, name))


def test_quadrature_estimate_falls_spectrally_in_the_node_count():
    # one window of 2 on the quick-start data: each doubling of the nodes gains more than the last,
    # 4.5e3 for 9 -> 17 and 1.9e8 for 17 -> 33, down to round-off (a fourth-order rule gains 16)
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=2.0)
    est = [picard_window(d, 2.0, cfg, _shared=_rule(d.grid, 2.0, n))[1].quadrature_estimate for n in (9, 17, 33)]
    assert est[0] / est[1] > 1e3 and est[1] / est[2] > 1e6 and est[2] < 1e-15
    assert picard_window(d, 0.2, cfg, forcing=False)[1].quadrature_estimate == 0.0


def test_free_propagator_identity_at_zero():
    d = small_data()
    out = free_propagator(d, 0.0)
    assert np.array_equal(out.amplitudes, d.u0.amplitudes)
    assert np.array_equal(free_velocity(d, 0.0).amplitudes, d.u1.amplitudes)


def test_free_propagator_single_mode():
    g = make_grid(4.0, 64)
    k, t = 1.0, 0.9
    d = single_mode_data(g, k)
    out = free_propagator(d, t)
    idx = g.index_of(k)
    assert out.amplitudes[idx] == pytest.approx(
        np.cos(t * lambda_symbol(k)) * d.u0.amplitudes[idx], rel=1e-14
    )
    vel = free_velocity(d, t)
    assert vel.amplitudes[idx] == pytest.approx(
        -lambda_symbol(k) * np.sin(t * lambda_symbol(k)) * d.u0.amplitudes[idx], rel=1e-13
    )


def test_free_velocity_matches_central_difference():
    d = small_data(make_grid(8.0, 128))
    t, dt = 0.6, 1e-4
    fd = (free_propagator(d, t + dt).amplitudes - free_propagator(d, t - dt).amplitudes) / (2 * dt)
    exact = free_velocity(d, t).amplitudes
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) < 1e-7 * scale  # O(dt^2)


def test_free_propagator_time_reversal():
    d = small_data(make_grid(8.0, 128))
    t = 0.7
    fwd = CauchyData(free_propagator(d, t), free_velocity(d, t))
    back = free_propagator(fwd, -t)
    assert np.max(np.abs(back.amplitudes - d.u0.amplitudes)) < 1e-10


def test_trajectory_validates_every_row():
    g = make_grid(4.0, 32)
    rng = np.random.default_rng(5)
    fields = [random_real_field(g, rng) for _ in range(4)]
    rows = _half_spectrum(np.vstack([f.amplitudes for f in fields]))
    assert rows.shape == (4, g.node_count // 2 + 1)
    times = np.arange(4.0)
    traj = Trajectory(times, rows.copy(), rows.copy(), g)
    for i, f in enumerate(fields):
        u, ut = traj.state(i)
        assert u.real_valued and ut.real_valued
        assert np.array_equal(u.amplitudes, f.amplitudes) and np.array_equal(ut.amplitudes, f.amplitudes)
    assert not traj.u.flags.writeable and not traj.state(0)[0].amplitudes.flags.writeable
    bad = rows.copy()
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times, bad, rows, g)
    bad, scale = rows.copy(), np.max(np.abs(rows[2]))
    bad[2, 0] += 1e-6j * scale  # the xi = 0 column of one row is not real
    with pytest.raises(ValueError, match="xi = 0"):
        Trajectory(times, rows, bad, g)
    bad[2, 0] = rows[2, 0] + 0.4e-12j * scale  # within HERMITIAN_RTOL of the full row
    assert Trajectory(times, rows, bad, g).state(2)[1].hermitian_defect() <= 1e-12
    with pytest.raises(ValueError, match="does not fit"):
        Trajectory(times, _full_spectrum(rows), rows, g)  # full rows are the wrong width
    with pytest.raises(ValueError, match="does not fit"):
        Trajectory(times[:3], rows, rows, g)


def _assert_half_rows(traj):
    """``traj`` holds half-layout rows, and every state it expands is exactly Hermitian."""
    width = traj.grid.node_count // 2 + 1
    assert traj.u.shape == traj.u_t.shape == (traj.times.shape[0], width)
    for i in range(traj.times.shape[0]):
        assert all(f.hermitian_defect() == 0 for f in traj.state(i))


def test_solvers_return_half_layout_trajectories():
    d = small_data(make_grid(8.0, 128))
    cfg = SolverConfig(p=2, sign=1, horizon=0.5)
    _assert_half_rows(picard_window(d, 0.25, cfg)[0])
    _assert_half_rows(solve(d, replace(cfg, window_override=0.125)))
    _assert_half_rows(rk4_solve(d, cfg, dt=0.01, store_stride=5))


def test_duhamel_zero_trajectory_reduces_to_free():
    g = make_grid(8.0, 128)
    d = small_data(g)
    cfg = SolverConfig(p=2, sign=1, horizon=0.2)
    n = solver_module.MAX_QUADRATURE_NODES
    times = _rule(g, 0.2, n).times
    z = duhamel_rows(d, 0.2, n, np.zeros((n, g.node_count)), cfg)
    for i, t in enumerate(times):
        free = free_propagator(d, t)
        assert np.max(np.abs(z[i] - free.amplitudes)) < 1e-13
    assert np.array_equal(z[0], d.u0.amplitudes)


def test_duhamel_against_refined_quadrature():
    # one application on the free trajectory, on 9 nodes vs 65
    g = make_grid(8.0, 128)
    d = small_data(g)
    t_end = 0.2
    cfg = SolverConfig(p=2, sign=1, horizon=t_end)

    def apply_with(nodes):
        times = _rule(g, t_end, nodes).times
        free = np.stack([free_propagator(d, t).amplitudes for t in times])
        return SpectralField(g, duhamel_rows(d, t_end, nodes, free, cfg)[-1], real_valued=True)

    uc = apply_with(9)
    uf = apply_with(65)
    assert sobolev_norm(uc - uf, 0.0) <= 1e-8 * sobolev_norm(uf, 0.0)


def test_picard_without_forcing_converges_in_one_iteration():
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=0.3)
    traj, report = picard_window(d, 0.3, cfg, forcing=False)
    assert report.iterations == 1
    assert report.ratios == ()
    final = free_propagator(d, 0.3)
    assert np.max(np.abs(traj.final()[0].amplitudes - final.amplitudes)) < 1e-13


def test_picard_contraction_is_at_least_geometric(monkeypatch):
    g = make_grid(16.0, 512)
    d = gaussian_data(g, amplitude=0.8, width=1.0, velocity_amplitude=0.4)
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 80)
    cfg = SolverConfig(p=2, sign=1, horizon=1.5)
    _, report = picard_window(d, 1.5, cfg)
    assert len(report.ratios) >= 4
    assert all(r < 1 for r in report.ratios)
    # quotients never exceed the first one: differences decay at least
    # geometrically at the measured contraction factor (the prefix-integral
    # structure in fact makes them shrink further with each sweep)
    first = report.ratios[0]
    assert all(r <= first * 1.05 for r in report.ratios)
    d_pred = report.differences[0] * first ** np.arange(len(report.differences))
    assert np.all(np.array(report.differences) <= d_pred * 1.05)


def test_picard_contraction_scales_as_window_squared():
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=0.25)
    _, rep_full = picard_window(d, 0.2, cfg)
    _, rep_half = picard_window(d, 0.1, cfg)
    factor = rep_full.contraction_ratio / rep_half.contraction_ratio
    assert 3.0 <= factor <= 5.0


def test_picard_nonconvergence_reports_history(monkeypatch):
    g = make_grid(16.0, 256)
    d = gaussian_data(g, amplitude=5.0, width=2.0)
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 6)
    cfg = SolverConfig(p=2, sign=1, horizon=1.0)
    with pytest.raises(ConvergenceError) as exc:
        picard_window(d, 1.0, cfg)
    assert len(exc.value.history) == 6


def test_solve_zero_data_stays_zero():
    g = make_grid(8.0, 64)
    d = CauchyData(SpectralField.zero(g), SpectralField.zero(g))
    traj = solve(d, SolverConfig(p=3, sign=-1, horizon=1.0))
    assert np.all(traj.u == 0)


def test_solve_linear_single_mode_two_windows_exact():
    g = make_grid(4.0, 64)
    k, t_final = 1.0, 0.8
    d = single_mode_data(g, k)
    cfg = SolverConfig(p=2, sign=1, horizon=t_final, window_override=t_final / 2)
    traj = solve(d, cfg, forcing=False)
    assert len(traj.window_reports) == 2
    idx = g.index_of(k)
    expect = np.cos(t_final * lambda_symbol(k)) * d.u0.amplitudes[idx]
    u_final = traj.final()[0].amplitudes
    got = u_final[idx]
    assert abs(got - expect) <= 1e-10 * abs(expect)
    others = np.delete(np.abs(u_final), [idx, g.index_of(-k)])
    assert np.max(others) < 1e-12 * abs(expect)


def test_linear_solve_without_a_window_marches_one_window(monkeypatch):
    # without forcing there is no probe: one Picard window of T, on 9 nodes (its estimate is 0)
    windows = []

    def counted(d, window, *args, **kwargs):
        windows.append(window)
        return picard_window(d, window, *args, **kwargs)

    monkeypatch.setattr(solver_module, "picard_window", counted)
    g = make_grid(4.0, 64)
    k, t_final = 1.0, 3.0
    d = single_mode_data(g, k)
    traj = solve(d, SolverConfig(p=2, sign=1, horizon=t_final), forcing=False)
    assert windows == [t_final] and traj.times.shape == (9,)
    assert traj.window_edges == (0.0, t_final) and traj.halvings == 0
    idx = g.index_of(k)
    expect = np.cos(t_final * lambda_symbol(k)) * d.u0.amplitudes[idx]
    assert abs(traj.final()[0].amplitudes[idx] - expect) <= 1e-10 * abs(expect)


def test_solver_config_fields_are_the_constructive_ones():
    # the Picard and window controls are module constants, not settings
    assert [f.name for f in fields(SolverConfig)] == ["p", "sign", "horizon", "s", "window_override"]


def test_solve_agrees_with_rk4():
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=0.25)
    picard = solve(d, cfg)
    rk = rk4_solve(d, cfg, dt=1e-3, store_stride=10**9)
    diff = picard.final()[0] - rk.final()[0]
    assert sobolev_norm(diff, 0.0) <= 1e-6 * sobolev_norm(rk.final()[0], 0.0)


def test_solve_fixed_point_is_stable_under_extra_application():
    d = small_data()
    cfg = SolverConfig(p=2, sign=1, horizon=0.2)
    traj, _ = picard_window(d, 0.2, cfg)
    again = duhamel_rows(d, 0.2, traj.times.shape[0], _full_spectrum(traj.u), cfg)
    diffs = [SpectralField(d.grid, a, real_valued=True) - traj.state(i)[0] for i, a in enumerate(again)]
    change = max(sobolev_norm(e, cfg.s) + sup_norm(e) for e in diffs)
    assert change < 10 * solver_module.PICARD_TOL


def test_solve_small_amplitude_stays_near_free_flow():
    g = make_grid(16.0, 512)
    eps = 1e-4
    d = gaussian_data(g, amplitude=eps, width=1.0, velocity_amplitude=eps / 2)
    cfg = SolverConfig(p=2, sign=1, horizon=1.0)
    traj = solve(d, cfg)
    worst = 0.0
    for i, t in enumerate(traj.times):
        diff = traj.state(i)[0] - free_propagator(d, t)
        worst = max(worst, sobolev_norm(diff, 0.0) + sup_norm(diff))
    assert worst <= 2 * eps


def test_solve_grid_convergence_for_band_limited_data():
    finals = []
    for m in (256, 512):
        g = make_grid(16.0, m)
        d = gaussian_data(g, amplitude=0.3, width=1.5, velocity_amplitude=0.1)
        traj = solve(d, SolverConfig(p=2, sign=1, horizon=0.25))
        finals.append(sobolev_norm(traj.final()[0], 0.0))
    assert abs(finals[1] - finals[0]) < 1e-6


def test_picard_power_overflow_is_a_convergence_error():
    g = make_grid(16.0, 64)
    d = gaussian_data(g, amplitude=1e120)
    cfg = SolverConfig(p=3, sign=-1, horizon=1.0)
    with pytest.raises(ConvergenceError, match="overflowed") as exc:
        picard_window(d, 1e-3, cfg)
    assert exc.value.history == []


def test_solve_propagates_window_index_on_failure(monkeypatch):
    g = make_grid(16.0, 256)
    d = gaussian_data(g, amplitude=5.0, width=2.0)
    monkeypatch.setattr(solver_module, "MAX_WINDOW_HALVINGS", 0)
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 6)
    cfg = SolverConfig(p=2, sign=1, horizon=1.0, window_override=1.0)
    with pytest.raises(ConvergenceError) as exc:
        solve(d, cfg)
    assert exc.value.window_index == 0
    assert "window 0" in str(exc.value)


def test_rk4_zero_data():
    g = make_grid(8.0, 64)
    d = CauchyData(SpectralField.zero(g), SpectralField.zero(g))
    traj = rk4_solve(d, SolverConfig(p=2, sign=1, horizon=0.5), dt=0.05)
    assert np.all(traj.u == 0)


def test_rk4_self_convergence_order():
    g = make_grid(4.0, 64)
    k = 1.0
    d = single_mode_data(g, k)
    idx = g.index_of(k)
    errs = []
    for dt in (2e-2, 1e-2):
        cfg = SolverConfig(p=2, sign=1, horizon=1.0)
        traj = rk4_solve(d, cfg, dt, forcing=False, store_stride=10**9)
        exact = np.cos(lambda_symbol(k)) * d.u0.amplitudes[idx]
        errs.append(abs(traj.final()[0].amplitudes[idx] - exact))
    assert 10 < errs[0] / errs[1] < 24  # fourth order: ~16x per halving


def test_rk4_instability_detected():
    g = make_grid(16.0, 128)
    d = gaussian_data(g, amplitude=50.0, width=2.0)
    cfg = SolverConfig(p=3, sign=-1, horizon=50.0)
    with pytest.raises(ConvergenceError):
        rk4_solve(d, cfg, dt=0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "horizon, dt, stable", [(300.0, 3.0, False), (1e4, 3.0, False), (300.0, 2.8, True)],
    ids=["unstable", "unstable-overflowing", "stable"],
)
def test_mode_traces_guard_trips_past_the_rk4_stability_limit(horizon, dt, stable):
    # k = 100: h lam = 2.99994 > 2 sqrt(2) at dt = 3 grows past 1e6 at step 34 (t = 102), and past the
    # float range by T = 1e4, without a numpy warning; h lam = 2.79994 < 2 sqrt(2) at dt = 2.8 stays bounded
    if stable:
        times, a = _mode_amplitude_traces([100.0], horizon, dt)
        assert np.all(np.abs(a) <= 1.0 + 1e-12) and times[-1] == pytest.approx(horizon, rel=0.01)
    else:
        with pytest.raises(ConvergenceError, match="at step 34: mode amplitude grew"):
            _mode_amplitude_traces([100.0], horizon, dt)


def test_rk4_guard_counts_each_paired_column_twice():
    # u0 only at xi = 0, one node; u1 only at xi = +-1, a mirror pair that u grows on.  The guard's L^2
    # size over all M nodes counts that pair twice, which trips it steps before one count per column would.
    g = make_grid(4.0, 32)
    amp0, amp1 = np.zeros((2, g.node_count), dtype=complex)
    amp0[g.index_of(0.0)] = 1.0
    amp1[[g.index_of(1.0), g.index_of(-1.0)]] = 1.0
    d = CauchyData(SpectralField(g, amp0, real_valued=True), SpectralField(g, amp1, real_valued=True))
    lam = lambda_symbol(1.0)
    h = 2.85 / lam  # past the RK4 stability limit h lam = 2 sqrt(2): the pair grows ~6% per step
    ha = h * np.array([[0.0, 1.0], [-(lam**2), 0.0]])
    rk4_step = sum(np.linalg.matrix_power(ha, i) / math.factorial(i) for i in range(5))
    y, pair = np.array([0.0, 1.0]), []
    for _ in range(400):
        y = rk4_step @ y
        pair.append(abs(y[0]))
    # the first step whose size exceeds 1e6 times the initial size 1, with each pair node counted `copies` times
    trip = lambda copies: 1 + int(np.argmax(np.sqrt(1.0 + copies * np.array(pair) ** 2) > 1e6))
    assert trip(2) < trip(1) < 400
    with pytest.raises(ConvergenceError, match=f"at step {trip(2)}: norm grew"):
        rk4_solve(d, SolverConfig(p=2, sign=1, horizon=400 * h), h, forcing=False)


def test_stacked_mode_traces_equal_single_mode_traces():
    ks = [1.0, 10.0, 100.0]
    times, traces = _mode_amplitude_traces(ks, horizon=3.0)
    assert traces.shape == (3, times.shape[0])
    for k, row in zip(ks, traces):
        t1, a1 = _mode_amplitude_traces([k], horizon=3.0)
        assert np.array_equal(t1, times) and np.array_equal(a1[0], row)
        assert _fit_mode_frequency(times, row) == dispersion_check(k, horizon=3.0)


@pytest.mark.parametrize("k", [1.0, 10.0, 100.0])
def test_mode_traces_equal_stepped_rk4(k):
    # the one-step matrix route against rk4_solve stepping the same mode on a 32-node grid of spacing k/8
    times, a = _mode_amplitude_traces([k], horizon=3.0)
    g = make_grid(2.0 * k, 32)
    d = single_mode_data(g, k)
    traj = rk4_solve(d, SolverConfig(p=2, sign=1, horizon=3.0), 2e-3, forcing=False, store_stride=250)
    node = g.index_of(k)
    stepped = np.array([traj.state(i)[0].amplitudes[node] for i in range(len(traj.times))])
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(a[0] - stepped / d.u0.amplitudes[node])) < 1e-12


def test_energy_zero_state():
    g = make_grid(8.0, 64)
    z = SpectralField.zero(g)
    assert energy(z, z, 2, 1) == 0.0


def test_energy_requires_mean_zero_velocity():
    g = make_grid(8.0, 64)
    amp = np.zeros(g.node_count, dtype=complex)
    amp[g.node_count // 2] = 1.0
    u1 = SpectralField(g, amp, real_valued=True)
    with pytest.raises(ValueError):
        energy(SpectralField.zero(g), u1, 2, 1)


def test_energy_rejects_fields_not_marked_real_valued():
    d = small_data(make_grid(8.0, 64))
    assert math.isfinite(energy(d.u0, d.u1, 2, 1))
    for u, ut in ((SpectralField(d.grid, d.u0.amplitudes), d.u1), (d.u0, SpectralField(d.grid, d.u1.amplitudes))):
        with pytest.raises(ValueError, match="real_valued"):
            energy(u, ut, 2, 1)


def _padded_samples(f, padded):
    """Complex samples of ``f`` on the grid padded to ``padded`` nodes: the zero-padded row through one ifft."""
    m = f.grid.node_count
    row = np.zeros(padded, dtype=complex)
    row[padded // 2 - m // 2 : padded // 2 + m // 2] = f.amplitudes
    return np.fft.ifft(np.fft.ifftshift(row)) / (2.0 * np.pi / (padded * f.grid.dxi))


def _reference_energy_terms(u, u_t, p, sign):
    """Quadratic and potential terms of the energy, one field at a time with a complex ifft."""
    grid = u.grid
    zero_idx = grid.node_count // 2
    lam = lambda_symbol(grid.xi)
    mask = np.arange(grid.node_count) != zero_idx
    kinetic = np.abs(u_t.amplitudes[mask]) ** 2 / lam[mask] ** 2
    quad = 0.5 * np.sum(kinetic + np.abs(u.amplitudes[mask]) ** 2) * grid.dxi
    padded = _padded_node_count(grid.node_count, (p + 1) / 2)
    samples = _padded_samples(u, padded).real
    dx_fine = 2.0 * np.pi / (padded * grid.dxi)
    potential = 2.0 * np.pi * sign / (p + 1) * np.sum(samples ** (p + 1)) * dx_fine
    return quad, potential


def _random_rows(g, rng, n, mean_zero):
    rows = []
    for _ in range(n):
        amp = random_real_field(g, rng, decay=rng.uniform(0.0, 2.0), band_fraction=1.0).amplitudes.copy()
        amp[0] = complex(*rng.standard_normal(2))  # the unpaired node k = 0, nonzero
        if mean_zero:
            amp[g.node_count // 2] = 0.0
        rows.append(amp)
    return np.array(rows)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3, 4]),
    sign=st.sampled_from([1, -1]),
    n=st.integers(1, 5),
    m=st.sampled_from([16, 64, 128]),
)
def test_batched_energy_matches_per_row_reference(seed, p, sign, n, m):
    rng = np.random.default_rng(seed)
    g = make_grid(rng.uniform(1.0, 16.0), m)
    u, ut = _random_rows(g, rng, n, False), _random_rows(g, rng, n, True)
    got = _energy_matrix(_half_spectrum(u), _half_spectrum(ut), g, p, sign)
    for i in range(n):
        quad, potential = _reference_energy_terms(
            SpectralField(g, u[i], real_valued=True), SpectralField(g, ut[i], real_valued=True), p, sign
        )
        # relative to the size of the two terms: their sum may cancel
        assert abs(got[i] - (quad + potential)) <= 1e-13 * (abs(quad) + abs(potential))
    bad = _half_spectrum(ut)
    bad[-1, 0] = 1e-3 * np.max(np.abs(bad[-1]))  # one row with a nonzero mean velocity
    with pytest.raises(ValueError, match="mean-zero"):
        _energy_matrix(_half_spectrum(u), bad, g, p, sign)


def test_energy_constant_on_single_mode_nonlinear_flow():
    g = make_grid(4.0, 64)
    d = single_mode_data(g, 1.0, amplitude=0.1)
    cfg = SolverConfig(p=2, sign=1, horizon=0.5)
    traj = rk4_solve(d, cfg, 5e-4, store_stride=100)
    e = energy_series(traj, 2, 1)
    assert np.max(np.abs(e - e[0])) <= 1e-10 * abs(e[0])


def test_energy_drift_vanishes_under_dt_refinement():
    g = make_grid(16.0, 256)
    d = gaussian_data(g, amplitude=150.0, width=2.0, velocity_amplitude=45.0)
    cfg = SolverConfig(p=2, sign=1, horizon=0.5)
    drifts = []
    for dt in (1e-3, 5e-4):
        traj = rk4_solve(d, cfg, dt, store_stride=100)
        e = energy_series(traj, 2, 1)
        drifts.append(np.max(np.abs(e - e[0])) / abs(e[0]))
    assert drifts[0] <= 1e-8
    assert drifts[0] / drifts[1] >= 8.0


def test_energy_directional_derivative_vanishes():
    # machine-precision check that dE/dt = 0 along the semidiscrete flow,
    # evaluated analytically (no time stepping) on random states

    rng = np.random.default_rng(61)
    g = make_grid(8.0, 128)
    p, sign = 2, 1
    lam = lambda_symbol(g.xi)
    zero_idx = g.node_count // 2
    mask = np.arange(g.node_count) != zero_idx
    for _ in range(10):
        u = random_real_field(g, rng)
        ut_amp = random_real_field(g, rng).amplitudes.copy()
        ut_amp[zero_idx] = 0.0
        ut = SpectralField(g, ut_amp, real_valued=True)
        ghat = _full_spectrum(_power_matrix(_half_spectrum(u.amplitudes[None]), g, p))[0]
        utt = -(lam**2) * (u.amplitudes + sign * ghat)
        d_quad = float(
            np.sum((np.conj(ut_amp[mask]) * (utt[mask] / lam[mask] ** 2 + u.amplitudes[mask])).real)
            * g.dxi
        )
        padded = _padded_node_count(g.node_count, (p + 1) / 2)
        dx_fine = 2 * np.pi / (padded * g.dxi)
        us = _padded_samples(u, padded).real
        uts = _padded_samples(ut, padded).real
        d_pot = 2 * np.pi * sign * float(np.sum(us**p * uts)) * dx_fine
        scale = abs(d_quad) + abs(d_pot) + 1e-30
        assert abs(d_quad + d_pot) < 1e-12 * scale


@pytest.mark.parametrize(
    "k,expected",
    [(1.0, 0.7071067811865475), (100.0, 0.9999500037496876)],
)
def test_dispersion_fitted_omega(k, expected):
    got = dispersion_check(k)
    assert got == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(k / np.sqrt(1 + k * k), rel=1e-12)


def test_dispersion_long_wave_limit():
    k = 0.125
    om = dispersion_check(k)
    assert om / k == pytest.approx(1.0, abs=1e-2)
    assert om / k < 1.0


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3]),
    sign=st.sampled_from([1, -1]),
    size=st.floats(0.01, 0.3),
    band=st.floats(0.1, 0.5),
    horizon=st.floats(0.5, 3.0),
)
def test_energy_conserved_by_solve_on_random_small_data(seed, p, sign, size, band, horizon):
    rng = np.random.default_rng(seed)
    g = make_grid(8.0, 64)
    u0, u1 = (random_real_field(g, rng, decay=rng.uniform(0.5, 2.0), band_fraction=band) for _ in range(2))
    u1_amp = u1.amplitudes.copy()
    u1_amp[g.node_count // 2] = 0.0  # mean-zero velocity
    u1 = SpectralField(g, u1_amp, real_valued=True)
    d = CauchyData(u0.scaled(size / sup_norm(u0)), u1.scaled(size / max(sup_norm(u1), 1e-300)))
    e = energy_series(solve(d, SolverConfig(p=p, sign=sign, horizon=horizon)), p, sign)
    assert np.max(np.abs(e - e[0])) <= 1e-8 * abs(e[0])
