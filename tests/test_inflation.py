import math
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad

from imbq.grid import BandWindow, FrequencyGrid, lambda_symbol, restricted_norm, sobolev_norm
from imbq.inflation import (
    EVEN_BAND,
    IPData,
    QuadratureConfig,
    QuadratureError,
    _box_grid_nodes,
    _box_power_terms,
    brute_force_Ap,
    compute_Ap,
    generic_term_complex,
    grid_for_boxes,
    inflation_ratio,
    make_ip_data,
    ratio_sweep,
)
from imbq.solver import free_propagator


def coarse_setup(N=8):
    grid = FrequencyGrid(1.0 / 16.0, 2 * 4 * (N + 2) * 16)
    return make_ip_data(N, grid)


def box_masks(d):
    # the node ranges of the two boxes as masks over the grid
    plus, minus = np.zeros((2, d.grid.node_count), dtype=bool)
    plus[d.plus] = minus[d.minus] = True
    return plus, minus


def padded_fft_power(amp, grid, p):
    # reference: pointwise p-th power on the (p+1)-fold zero-padded dual grid, truncated
    m, lo = grid.node_count, p * grid.node_count // 2
    padded = np.zeros((p + 1) * m, dtype=complex)
    padded[lo : lo + m] = amp
    dx_fine = 2 * np.pi / (padded.size * grid.dxi)
    pos = np.fft.ifft(np.fft.ifftshift(padded)) / dx_fine
    return (dx_fine * np.fft.fftshift(np.fft.fft(pos**p)))[lo : lo + m]


def quad_re(a, b, t):
    v, _ = quad(lambda tau: np.sin(a * (t - tau)) * np.cos(b * tau), 0, t, epsabs=1e-13, epsrel=1e-13, limit=300)
    return v


def quad_im(a, b, t):
    v, _ = quad(lambda tau: np.sin(a * (t - tau)) * np.sin(b * tau), 0, t, epsabs=1e-13, epsrel=1e-13, limit=300)
    return v


def test_make_ip_data_box_mass_and_symmetry():
    d = coarse_setup()
    g = d.grid
    mass = np.sum(np.abs(d.data.u0.amplitudes) ** 2) * g.dxi
    assert mass == 2.0
    assert d.data.u0.hermitian_defect() == 0.0
    assert d.data.u1.hermitian_defect() == 0.0
    # |u0_hat| is exactly the indicator of the two boxes
    mag = np.abs(d.data.u0.amplitudes)
    plus, minus = box_masks(d)
    assert np.array_equal(mag != 0, plus | minus)
    assert np.all(mag[d.plus] == 1.0)


@pytest.mark.parametrize("dxi", [1 / 16, 1 / 64])
def test_box_ranges_are_the_unit_box_and_its_mirror(dxi):
    # the ranges hold exactly the nodes N <= xi < N+1 and their mirrors k -> M - k; the second grid
    # ends one bin above the box, so the plus range stops at node M - 1
    n = 8
    for grid in (grid_for_boxes(n, 2, dxi), FrequencyGrid(dxi, 2 * round((n + 1) / dxi) + 2)):
        d = make_ip_data(n, grid)
        m, xi = grid.node_count, grid.xi
        plus = np.flatnonzero((xi >= n) & (xi < n + 1))
        minus = np.sort(m - plus)
        assert np.array_equal(np.arange(m)[d.plus], plus)
        assert np.array_equal(np.arange(m)[d.minus], minus)
    assert d.plus.stop == m - 1 and d.minus.start == 2


def test_box_ranges_hold_one_unit_of_bins():
    # at dxi = 1/49 the floating-point nodes of [4, 5) do not give 49 bins; the ranges do
    d = make_ip_data(4, grid_for_boxes(4, 2, 1 / 49))
    assert len(range(d.grid.node_count)[d.plus]) == len(range(d.grid.node_count)[d.minus]) == 49
    assert d.grid.xi[d.plus.start] == pytest.approx(4.0, abs=1e-12)
    assert d.grid.xi[d.minus.stop - 1] == -d.grid.xi[d.plus.start]


def test_box_grid_nodes_is_the_float_formula_in_exact_arithmetic():
    # extent p*(N+2)+2 at spacing dxi, 2*extent/dxi rounded and made even
    for k, p, n in product(range(1, 129), (2, 3, 5), (1, 7, 64, 1000, 16384)):
        count = int(round(2 * (p * (n + 2) + 2) / (1.0 / k)))
        assert _box_grid_nodes(n, p, 1.0 / k) == count + count % 2 == grid_for_boxes(n, p, 1.0 / k).node_count
    # beyond the float range of p the count stays exact
    assert _box_grid_nodes(8, 10**20, 1 / 64) == 2 * (10**20 * 10 + 2) * 64


def test_make_ip_data_rejections():
    with pytest.raises(ValueError):
        make_ip_data(8, FrequencyGrid(1.0 / 16.0, 64))  # box outside extent
    with pytest.raises(ValueError):
        make_ip_data(8, FrequencyGrid(0.3, 1024))  # dxi does not divide 1
    with pytest.raises(ValueError):
        make_ip_data(0, FrequencyGrid(1.0 / 16.0, 2048))


def test_ip_data_norm_scaling_in_n():
    # H^{-1/2} size of the data behaves like c * N^{-1/2} with c order one
    grid = grid_for_boxes(128, 2)
    s = -0.5
    for n in (16, 32, 64, 128):
        d = make_ip_data(n, grid)
        total = sobolev_norm(d.data.u0, s) + sobolev_norm(d.data.u1, s)
        c = total / n**s
        assert 0.5 <= c <= 4.0


def test_ip_data_position_samples_real():
    d = coarse_setup()
    from imbq.grid import to_position

    pos = to_position(d.data.u0)
    assert np.max(np.abs(pos.imag)) < 1e-10 * np.max(np.abs(pos))


def test_free_evolution_hat_matches_propagator():
    # the solver's free flow on box data is the closed-form phase:
    # e^{-i t lambda} on the plus box, e^{i t lambda} on the minus box, 0 elsewhere
    d = coarse_setup()
    lam = lambda_symbol(d.grid.xi)
    for t in (0.0, 0.3, 0.7, 0.9):
        phase = np.zeros(d.grid.node_count, dtype=complex)
        phase[d.plus], phase[d.minus] = np.exp(-1j * t * lam[d.plus]), np.exp(1j * t * lam[d.minus])
        assert np.max(np.abs(free_propagator(d.data, t).amplitudes - phase)) <= 1e-12
    assert np.array_equal(free_propagator(d.data, 0.0).amplitudes, d.data.u0.amplitudes)


def test_free_evolution_unit_modulus_on_boxes():
    d = coarse_setup()
    support = np.logical_or(*box_masks(d))
    for t in (0.0, 0.3, 0.7, 0.9):
        fp = free_propagator(d.data, t).amplitudes
        assert np.max(np.abs(np.abs(fp[support]) - 1.0)) < 1e-14
        assert np.all(fp[~support] == 0)


def test_generic_term_point_values():
    assert generic_term_complex(1.0, 1.0, np.pi / 2).real == pytest.approx(np.pi / 4, rel=1e-14)
    assert generic_term_complex(1.0, 0.0, np.pi).real == pytest.approx(2.0, rel=1e-14)
    assert generic_term_complex(0.0, 0.7, 0.5).real == 0.0
    assert generic_term_complex(1.3, 0.4, 0.0).real == 0.0


def test_generic_term_against_adaptive_quadrature():
    rng = np.random.default_rng(71)
    worst = 0.0
    for i in range(150):
        a, b, t = rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.05, 1.0)
        if i % 5 == 0:
            b = a + rng.uniform(-1e-9, 1e-9)  # near-degenerate
        worst = max(worst, abs(generic_term_complex(a, b, t).real - quad_re(a, b, t)))
        got_c = generic_term_complex(a, b, t)
        worst = max(worst, abs(got_c - (quad_re(a, b, t) + 1j * quad_im(a, b, t))))
    assert worst <= 1e-10


def test_generic_term_continuous_across_branch_switch():
    for alpha, t in ((1.0, 0.3), (1.0, 0.7), (0.4, 0.9), (2.5, 0.2)):
        thr = 1e-8 * max(alpha**2, 1.0)
        b_in = np.sqrt(alpha**2 + 0.999 * thr)  # series side
        b_out = np.sqrt(alpha**2 + 1.001 * thr)  # closed-form side
        gap = abs(generic_term_complex(alpha, b_out, t).real - generic_term_complex(alpha, b_in, t).real)
        assert gap < 1e-9


def test_compute_ap_zero_at_t0_and_support():
    d = coarse_setup()
    assert np.all(compute_Ap(d, 2, 1, 0.0).amplitudes == 0)
    a3 = compute_Ap(d, 3, 1, 0.5)
    outside = np.abs(d.grid.xi) > 3 * (d.N + 1) + 1e-9
    assert np.max(np.abs(a3.amplitudes[outside])) < 1e-12
    assert a3.hermitian_defect() < 1e-12


def test_compute_ap_odd_p_vanishes_on_low_band():
    d = coarse_setup()
    a3 = compute_Ap(d, 3, 1, 0.5)
    assert restricted_norm(a3, BandWindow(0.25, 0.5), 0.0) < 1e-14


def test_compute_ap_matches_brute_force():
    d = coarse_setup()
    for p in (2, 3):
        a_fft = compute_Ap(d, p, 1, 0.5)
        a_sum = brute_force_Ap(d, p, 1, 0.5)
        rel = sobolev_norm(a_fft - a_sum, 0.0) / sobolev_norm(a_sum, 0.0)
        assert rel <= 1e-8
    assert np.all(brute_force_Ap(d, 2, 1, 0.0).amplitudes == 0)


def test_compute_ap_17_tau_nodes_match_brute_force():
    # criterion 3's grid: the spectral tau-rule is exact to rounding at 17 nodes
    d = make_ip_data(8, FrequencyGrid(1.0 / 16.0, 2 * 40 * 16))
    for p in (2, 3):
        a_fft = compute_Ap(d, p, 1, 0.5, QuadratureConfig(tau_nodes=17))
        a_sum = brute_force_Ap(d, p, 1, 0.5)
        assert sobolev_norm(a_fft - a_sum, 0.0) <= 1e-12 * sobolev_norm(a_sum, 0.0)


@pytest.mark.parametrize("tau_nodes", [65.0, 33.5, "65", 4, 64, True])
def test_quadrature_config_rejects_tau_nodes_by_name(tau_nodes):
    with pytest.raises(ValueError, match="^tau_nodes must be an odd integer >= 5"):
        QuadratureConfig(tau_nodes=tau_nodes)
    assert QuadratureConfig(tau_nodes=np.int64(65)).tau_nodes == 65


def test_compute_ap_matches_banded_brute_force_on_fine_grid():
    # p=2, N=16, dxi=1/64: direct double sum restricted to the even band
    n, t = 16, 0.5
    grid = grid_for_boxes(n, 2)
    d = make_ip_data(n, grid)
    ap = compute_Ap(d, 2, 1, t)
    xi = grid.xi
    lam = lambda_symbol(xi)
    band_idx = np.flatnonzero((xi >= 0.25) & (xi <= 0.5))
    plus_mask, minus_mask = box_masks(d)
    support = np.flatnonzero(plus_mask | minus_mask)
    half = grid.node_count // 2
    direct = np.zeros(grid.node_count, dtype=complex)
    sgn = np.where(plus_mask, 1, -1)
    for i1 in support:
        i2 = band_idx - (i1 - half)
        ok = (i2 >= 0) & (i2 < grid.node_count)
        i2 = i2[ok]
        tgt = band_idx[ok]
        in_support = plus_mask[i2] | minus_mask[i2]
        i2, tgt = i2[in_support], tgt[in_support]
        beta = -(sgn[i1] * lam[i1] + sgn[i2] * lam[i2])
        direct[tgt] += (grid.dxi / (2 * np.pi)) * generic_term_complex(lam[tgt], beta, t)
    direct *= -1 * 2 * lam
    band = BandWindow(0.25, 0.5)
    num = np.sqrt(np.sum(np.abs((ap.amplitudes - direct)[band_idx]) ** 2))
    den = np.sqrt(np.sum(np.abs(direct[band_idx]) ** 2))
    assert num / den <= 1e-6


def test_compute_ap_sign_on_even_band():
    d = coarse_setup()
    band = (d.grid.xi >= 0.25) & (d.grid.xi <= 0.5)
    for sign in (1, -1):
        a2 = compute_Ap(d, 2, sign, 0.2)
        vals = a2.amplitudes[band].real
        assert np.all(sign * vals < 0)  # -sign * (positive quantity)


def test_compute_ap_tau_refinement_stable():
    d = coarse_setup()
    a65 = compute_Ap(d, 2, 1, 0.5, QuadratureConfig(tau_nodes=65))
    a129 = compute_Ap(d, 2, 1, 0.5, QuadratureConfig(tau_nodes=129))
    rel = sobolev_norm(a65 - a129, 0.0) / sobolev_norm(a129, 0.0)
    assert rel < 1e-6


def test_compute_ap_coarse_tau_rule_raises():
    # 5 Lobatto nodes, checked against the nested 3, cannot resolve the oscillation over t = 20
    with pytest.raises(QuadratureError):
        compute_Ap(coarse_setup(), 2, 1, 20.0, QuadratureConfig(tau_nodes=5))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_box_power_matches_padded_fft_power(p):
    # arbitrary complex box values, on a grid that holds the whole power and
    # on one (extent 18) that truncates it; one tau row of unit weight at lag 0.7
    # leaves the power times the kernel sin(0.7 lambda)
    rng = np.random.default_rng(p)
    for d in (coarse_setup(), make_ip_data(8, FrequencyGrid(1.0 / 16.0, 2 * 18 * 16))):
        g_plus, g_minus = (rng.normal(size=(16, 2)) @ np.array([1, 1j]) for _ in range(2))
        amp = np.zeros(d.grid.node_count, dtype=complex)
        amp[d.plus], amp[d.minus] = g_plus, g_minus
        got = np.zeros_like(amp)
        half = d.grid.node_count // 2
        terms = _box_power_terms(d.N, g_plus[None], g_minus[None], p, d.grid.dxi, [0.7], np.ones((1, 1)), -half, half)
        for start, block in terms:
            got[start + half : start + half + block.shape[-1]] += block[0]
        ref = padded_fft_power(amp, d.grid, p) * np.sin(0.7 * lambda_symbol(d.grid.xi))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_compute_ap_narrow_grid_matches_wide_grid():
    # below extent p*(N+2) the power is cut at the grid edge; nothing wraps back
    wide = coarse_setup()
    narrow = make_ip_data(8, FrequencyGrid(1.0 / 16.0, 2 * 18 * 16))
    off = (wide.grid.node_count - narrow.grid.node_count) // 2
    for p in (2, 3):
        common = compute_Ap(wide, p, 1, 0.5).amplitudes[off : off + narrow.grid.node_count]
        got = compute_Ap(narrow, p, 1, 0.5).amplitudes
        assert np.max(np.abs(got - common)) <= 1e-12 * np.max(np.abs(common))


def test_beta_control_for_balanced_patterns():
    rng = np.random.default_rng(73)
    for n in (16, 64):
        p = 4
        a_nodes = np.linspace(n, n + 1, 9)
        worst = 0.0
        for signs in product((1, -1), repeat=p):
            if sum(signs) != 0:
                continue
            for _ in range(10):
                a = rng.choice(a_nodes, size=p)
                beta = -sum(e * lambda_symbol(x) for e, x in zip(signs, a))
                worst = max(worst, abs(beta))
        assert worst <= 2 * p / n**3


def test_odd_case_phase_gap_bracket():
    for n in (8, 32, 128):
        a = np.linspace(n, n + 1, 64)
        gap = 1.0 - lambda_symbol(a)
        assert np.all(gap >= 1.0 / (2 * (n + 2) ** 2))
        assert np.all(gap <= 1.0 / (2 * n**2))


def test_inflation_ratio_zero_at_t0():
    row = inflation_ratio(8, 2, 1, -0.5, 0.0, QuadratureConfig(dxi=1.0 / 16.0))
    assert row.ratio == 0.0


def test_inflation_ratio_band_selection():
    q = QuadratureConfig(dxi=1.0 / 16.0)
    even = inflation_ratio(8, 2, 1, -0.5, 0.5, q)
    assert (even.band_lo, even.band_hi) == (0.25, 0.5)
    odd = inflation_ratio(8, 3, 1, -0.5, 0.5, q)
    assert (odd.band_lo, odd.band_hi) == (8.0, 9.0)
    assert even.ratio > 0 and odd.ratio > 0


def test_ratio_sweep_builds_no_grid_and_no_ip_data(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid-free row built a grid or an IPData")

    monkeypatch.setattr(FrequencyGrid, "__post_init__", refuse)
    monkeypatch.setattr(IPData, "__init__", refuse)
    rep = ratio_sweep([8, 16, 10**9], 3, 1, -0.5, 0.5)
    assert all(0 < r.ratio < math.inf for r in rep.rows)


def _pairwise_depth(n: int) -> int:
    # numpy sums n values pairwise: blocks of at most 128 through 8 accumulators (at most 15 additions
    # each), a 3-level tree over them and at most 7 trailing values, blocks halved until they fit (at most
    # ceil(log2 n) levels); no value passes through more additions than this
    return 15 + 3 + 7 + math.ceil(math.log2(n))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_grid_free_row_equals_full_grid_compute_ap(p):
    # the row fills only the term ranges (at N = 1, p = 5 they overlap) and sums the data size over the
    # 2/dxi box nodes; on grid_for_boxes(N, p) nothing is clipped, so the band values, and with them the
    # numerator, are the same floats
    u = 2.0**-53
    for n in (1, 2, 8, 32):
        grid = grid_for_boxes(n, p)
        d = make_ip_data(n, grid)
        ap = compute_Ap(d, p, 1, 0.5)
        band = EVEN_BAND if p % 2 == 0 else BandWindow(float(n), float(n + 1))
        for s in (-0.5, 0.0, 0.5):
            row = inflation_ratio(n, p, 1, s, 0.5)
            assert row.numerator == restricted_norm(ap, band, s)
            # the denominator sums the same nonnegative values, the grid's with zeros between them; each
            # pairwise sum is within gamma_h = h u / (1 - h u) relative of the exact one (h its depth), the
            # scaling and the square root round once each per side (the root halves the difference), the
            # sum of the two norms once, and the p-th power multiplies the difference by p and rounds once
            gamma = sum(h * u / (1 - h * u) for h in (_pairwise_depth(grid.node_count), _pairwise_depth(2 * 64)))
            bound = p * (gamma / 2 + 6 * u) + 2 * u
            full = (sobolev_norm(d.data.u0, s) + sobolev_norm(d.data.u1, s)) ** p
            assert abs(row.denominator - full) <= bound * full
            assert row.ratio == pytest.approx(row.numerator / full, rel=2 * bound)


def test_grid_free_row_raises_where_compute_ap_raises():
    # the nested-rule check compares the value and change rows over every node where A_p is nonzero;
    # at p = 3, tau_nodes = 17, t = 2 the change is 1.65e-6 relative there but 6.7e-9 on the band [8, 9]
    # alone, so a band-only check would pass where this one raises
    verdicts = {}
    for p, tau_nodes, t, n in product((2, 3, 4, 5), (9, 17, 33), (0.5, 2.0, 8.0), (1, 8)):
        q = QuadratureConfig(tau_nodes=tau_nodes)
        raised = []
        for compute in (
            lambda: compute_Ap(make_ip_data(n, grid_for_boxes(n, p)), p, 1, t, q),
            lambda: inflation_ratio(n, p, 1, -0.5, t, q),
        ):
            try:
                compute()
                raised.append(False)
            except QuadratureError:
                raised.append(True)
        assert raised[0] == raised[1], (p, tau_nodes, t, n)
        verdicts[p, tau_nodes, t, n] = raised[0]
    assert verdicts[3, 17, 2.0, 8]
    assert 0 < sum(verdicts.values()) < len(verdicts)


def test_ratio_sweep_diagnostic_positive_s_decays():
    rep = ratio_sweep([8, 16, 32], 2, 1, 0.5, 0.5, QuadratureConfig(tau_nodes=33, dxi=1.0 / 16.0))
    assert rep.expected_slope == -1.0
    assert rep.slope == pytest.approx(-1.0, abs=0.2)
    ratios = [r.ratio for r in rep.rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_ratio_sweep_needs_increasing_n():
    with pytest.raises(ValueError):
        ratio_sweep([16, 16], 2, 1, -0.5, 0.5)


def test_ratio_sweep_no_fit_below_three_rows():
    rep = ratio_sweep([8, 16], 2, 1, -0.5, 0.5, QuadratureConfig(tau_nodes=33, dxi=1.0 / 16.0))
    assert rep.slope is None
    assert not rep.passes()


def test_ratio_sweep_rows_increasing_odd_case():
    rep = ratio_sweep([16, 32, 64], 3, 1, -0.5, 0.5, QuadratureConfig(tau_nodes=33, dxi=1.0 / 16.0))
    ratios = [r.ratio for r in rep.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_flowmap_p3_lower_derivatives_vanish():
    # Richardson combination kills the (absent) quadratic term: with
    # w(eps) = u(t) - eps*free(t), 8 w(eps/2) - w(eps) isolates the eps^2
    # coefficient, which must be numerically empty for a cubic forcing
    from imbq.solver import SolverConfig, solve

    grid = grid_for_boxes(8, 3, dxi=1.0 / 32.0)
    d = make_ip_data(8, grid)
    eps = 1e-2
    devs = {}
    for e in (eps, eps / 2):
        scaled = d.data.scaled(e)
        traj = solve(scaled, SolverConfig(p=3, sign=1, horizon=0.3))
        devs[e] = traj.final()[0] - free_propagator(scaled, 0.3)
    quadratic = devs[eps / 2].scaled(8.0) - devs[eps]
    assert sobolev_norm(quadratic, 0.0) <= 1e-3 * sobolev_norm(devs[eps], 0.0)
