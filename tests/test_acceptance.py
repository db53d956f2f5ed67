"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np
from scipy.integrate import quad

from imbq.grid import (
    BandWindow,
    FrequencyGrid,
    lambda_symbol,
    make_grid,
    random_real_field,
    restricted_norm,
    sobolev_norm,
    sup_norm,
)
from imbq.inflation import (
    QuadratureConfig,
    brute_force_Ap,
    compute_Ap,
    generic_term_complex,
    flowmap_derivative_check,
    grid_for_boxes,
    make_ip_data,
    ratio_sweep,
)
from imbq.solver import (
    SolverConfig,
    dispersion_check,
    energy_series,
    gaussian_data,
    picard_window,
    rk4_solve,
    single_mode_data,
    solve,
)
from imbq.symbols import Symbol, apply_symbol, besov_seminorm, kernel_ratio_sweep


def report(number: int, description: str, passed: bool):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_inflation_slope_even_case():
    start = time.time()
    rep = ratio_sweep([16, 32, 64, 128], p=2, sign=1, s=-0.5, t=0.5)
    elapsed = time.time() - start
    ratios = [r.ratio for r in rep.rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = abs(rep.slope - 1.0) <= 0.2 and increasing and elapsed <= 300.0
    report(
        1,
        f"even-case slope {rep.slope:.4f} within 1.0+-0.2, ratios increasing={increasing}, "
        f"runtime {elapsed:.0f}s <= 300s",
        ok,
    )


def test_criterion_2_inflation_slope_odd_case():
    t = 0.5
    # the slope from the rows `imbq inflate` runs; the full-grid compute_Ap for the |A_3| L2 drift
    rep = ratio_sweep([16, 32, 64, 128], p=3, sign=1, s=-0.5, t=t)
    grid = grid_for_boxes(128, 3)
    l2_by_n = {}
    for n in (64, 128):
        ap = compute_Ap(make_ip_data(n, grid), 3, 1, t)
        l2_by_n[n] = restricted_norm(ap, BandWindow(float(n), float(n + 1)), 0.0) / (t * np.sin(t))
    drift = abs(l2_by_n[128] - l2_by_n[64]) / l2_by_n[64]
    ok = abs(rep.slope - 1.0) <= 0.2 and drift < 0.10
    report(
        2,
        f"odd-case slope {rep.slope:.4f} within 1.0+-0.2, "
        f"|A_3| L2/(t sin t) change 64->128 = {drift:.2%} < 10%",
        ok,
    )


def test_criterion_3_oracle_equivalence():
    grid = FrequencyGrid(1.0 / 16.0, 2 * 40 * 16)
    d = make_ip_data(8, grid)
    rels = {}
    for p in (2, 3):
        a_fft = compute_Ap(d, p, 1, 0.5)
        a_sum = brute_force_Ap(d, p, 1, 0.5)
        rels[p] = sobolev_norm(a_fft - a_sum, 0.0) / sobolev_norm(a_sum, 0.0)
    ok = all(v <= 1e-8 for v in rels.values())
    report(
        3,
        f"compute_Ap vs brute force rel L2: p=2 {rels[2]:.2e}, p=3 {rels[3]:.2e} (<= 1e-8)",
        ok,
    )


def test_criterion_4_closed_form_time_integral():
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_degenerate = 0
    for i in range(1000):
        a = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.05, 1.0)
        if i < 50:
            b = a + rng.uniform(-1e-7, 1e-7)
            n_degenerate += 1
        else:
            b = rng.uniform(0.0, 3.0)
        oracle, _ = quad(
            lambda tau: np.sin(a * (t - tau)) * np.cos(b * tau), 0.0, t,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        worst = max(worst, abs(generic_term_complex(a, b, t).real - oracle))
    ok = worst <= 1e-8 and n_degenerate >= 50
    report(
        4,
        f"closed form vs adaptive quadrature over 1000 triples "
        f"({n_degenerate} near-degenerate): max error {worst:.2e} <= 1e-8",
        ok,
    )


def test_criterion_5_linear_solver_exactness():
    g = make_grid(4.0, 64)
    k, t_final = 1.0, 0.8
    d = single_mode_data(g, k)
    cfg = SolverConfig(p=2, sign=1, horizon=t_final, window_override=t_final / 2)
    traj = solve(d, cfg, forcing=False)
    idx = g.index_of(k)
    expect = np.cos(t_final * lambda_symbol(k)) * d.u0.amplitudes[idx]
    err = abs(traj.final()[0].amplitudes[idx] - expect) / abs(expect)
    ok = err <= 1e-10 and len(traj.window_reports) == 2
    report(5, f"two-window linear single mode error {err:.2e} <= 1e-10", ok)


def test_criterion_6_picard_versus_rk4_and_contraction():
    g = make_grid(16.0, 512)
    d = gaussian_data(g, amplitude=0.2, width=1.0, velocity_amplitude=0.1)
    cfg = SolverConfig(p=2, sign=1, horizon=0.25)
    picard = solve(d, cfg)
    rk = rk4_solve(d, cfg, dt=1e-3, store_stride=10**9)
    u_rk, _ = rk.final()
    rel = sobolev_norm(picard.final()[0] - u_rk, 0.0) / sobolev_norm(u_rk, 0.0)
    ratios_ok = all(r < 1 for rep in picard.window_reports for r in rep.ratios)
    _, rep_full = picard_window(d, 0.2, cfg)
    _, rep_half = picard_window(d, 0.1, cfg)
    factor = rep_full.contraction_ratio / rep_half.contraction_ratio
    ok = rel <= 1e-6 and ratios_ok and 3.0 <= factor <= 5.0
    report(
        6,
        f"picard vs rk4 rel L2 {rel:.2e} <= 1e-6, difference ratios < 1: {ratios_ok}, "
        f"window-halving contraction factor {factor:.2f} in [3, 5]",
        ok,
    )


def test_criterion_7_energy_conservation():
    g = make_grid(16.0, 256)
    d = gaussian_data(g, amplitude=150.0, width=2.0, velocity_amplitude=45.0)
    cfg = SolverConfig(p=2, sign=1, horizon=0.5)
    drifts = []
    for dt in (1e-3, 5e-4):
        traj = rk4_solve(d, cfg, dt, store_stride=100)
        e = energy_series(traj, 2, 1)
        drifts.append(float(np.max(np.abs(e - e[0])) / abs(e[0])))
    ok = drifts[0] <= 1e-8 and drifts[0] / drifts[1] >= 8.0
    report(
        7,
        f"energy drift {drifts[0]:.2e} <= 1e-8 at dt=1e-3, "
        f"halving dt reduces drift {drifts[0] / drifts[1]:.1f}x >= 8x",
        ok,
    )


def test_criterion_8_flowmap_derivative():
    chk = flowmap_derivative_check(N=8, p=2, sign=1, t=0.3, eps=1e-3)
    ok = chk.relative_error <= 5e-3 and 1.5 <= chk.halving_ratio <= 2.5
    report(
        8,
        f"solver-extracted derivative residual {chk.relative_error:.2e} <= 5e-3, "
        f"eps-halving ratio {chk.halving_ratio:.2f} in [1.5, 2.5]",
        ok,
    )


def test_criterion_9_multiplier_certification():
    rng = np.random.default_rng(4096)
    g = make_grid(16.0, 256)
    t_ref = 1.8
    violations = 0
    for _ in range(100):
        f = random_real_field(g, rng, decay=rng.uniform(0.5, 2.0))
        s = rng.uniform(-1.0, 2.0)
        base = sobolev_norm(f, s)
        for sym, bound in (
            (Symbol("P"), base),
            (Symbol("Q_t", t_ref), base),
            (Symbol("R_t", t_ref), t_ref * base),
        ):
            if sobolev_norm(apply_symbol(sym, f), s) > bound * (1 + 1e-12):
                violations += 1
    m1 = besov_seminorm(Symbol("m1"), resolution=160)
    m2_ratios = [besov_seminorm(Symbol("m2_plus", t), resolution=120).value / t for t in (0.5, 1, 2, 4)]
    m2_spread = max(m2_ratios) / min(m2_ratios)
    kernel = kernel_ratio_sweep([-100, -30, -10, -3, -1, 0, 1, 3, 10, 30, 100])
    k_ratios = [k.ratio for k in kernel]
    k_spread = max(k_ratios) / min(k_ratios)
    ok = (
        violations == 0
        and np.isfinite(m1.value)
        and m1.converged
        and m1.refinement_change < 0.05
        and m2_spread < 4.0
        and k_spread < 10.0
    )
    report(
        9,
        f"H^s bounds: {violations} violations/100 fields; m1 seminorm {m1.value:.3f} "
        f"stable to {m1.refinement_change:.2%}; m2/t spread {m2_spread:.2f} < 4; "
        f"kernel ratio spread {k_spread:.2f} < 10",
        ok,
    )


def test_criterion_10_dispersion_relation():
    worst = 0.0
    for k in (1.0, 10.0, 100.0):
        fitted = dispersion_check(k)
        expected = k / np.sqrt(1.0 + k * k)
        worst = max(worst, abs(fitted - expected) / expected)
    ok = worst <= 1e-6
    report(10, f"fitted omega at k in {{1, 10, 100}}: worst rel error {worst:.2e} <= 1e-6", ok)
