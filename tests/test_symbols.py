import inspect
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from imbq.grid import SpectralField, lambda_symbol, make_grid, random_real_field, sobolev_norm
from imbq.symbols import (
    Symbol,
    apply_symbol,
    besov_seminorm,
    besov_seminorms,
    check_kernel_inequality,
    eval_symbol,
    kernel_ratio_sweep,
)
from imbq.symbols import H_MAX, H_MIN, _TIME_FREE, SYMBOL_NAMES, BesovConvergenceError, _besov_values, _graded_panel
from imbq.symbols import _inner_l2_differences, _symbol_of_lambda, _trapezoid_weights
from imbq import symbols as symbols_module


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol("bogus")
    with pytest.raises(ValueError):
        Symbol("Q_t")  # needs t
    with pytest.raises(ValueError):
        Symbol("m1", t=1.0)  # takes no t


def test_eval_symbol_point_values():
    assert eval_symbol(Symbol("m3", 0.7), 0.0) == pytest.approx(0.7, rel=1e-15)
    assert eval_symbol(Symbol("Q_t", 1.3), 1e9) == pytest.approx(np.cos(1.3), rel=1e-12)
    assert eval_symbol(Symbol("m1"), 1.0) == pytest.approx(0.5, rel=1e-15)
    # removable singularity handled by the series, continuous across cutoff
    t = 0.7
    lam_at = lambda xi: eval_symbol(Symbol("m3", t), xi)
    xi_lo = 0.9e-4 / t  # t*lambda just below cutoff
    xi_hi = 1.1e-4 / t
    assert lam_at(xi_lo) == pytest.approx(lam_at(xi_hi), rel=1e-7)


def test_pointwise_symbol_bounds_on_grid():
    g = make_grid(64.0, 2048)
    for sym in (
        Symbol("m1"),
        Symbol("P"),
        Symbol("lambda"),
        Symbol("m2_plus", 2.0),
        Symbol("m2_minus", 2.0),
        Symbol("m3", 1.7),
        Symbol("Q_t", 1.7),
        Symbol("R_t", 1.7),
    ):
        vals = np.abs(eval_symbol(sym, g.xi))
        assert np.all(vals <= sym.pointwise_bound() * (1 + 1e-14)), str(sym)
    # m2 is exactly unimodular
    assert np.allclose(np.abs(eval_symbol(Symbol("m2_plus", 3.0), g.xi)), 1.0, atol=1e-15)


def test_apply_contracts_sobolev_norms():
    # exact operator bounds: nodewise symbol bounds transfer to every field
    rng = np.random.default_rng(41)
    g = make_grid(16.0, 256)
    t = 1.8
    for _ in range(100):
        f = random_real_field(g, rng, decay=rng.uniform(0.5, 2.0))
        s = rng.uniform(-1.0, 2.0)
        n = sobolev_norm(f, s)
        assert sobolev_norm(apply_symbol(Symbol("P"), f), s) <= n * (1 + 1e-12)
        assert sobolev_norm(apply_symbol(Symbol("Q_t", t), f), s) <= n * (1 + 1e-12)
        assert sobolev_norm(apply_symbol(Symbol("R_t", t), f), s) <= abs(t) * n * (1 + 1e-12)


def test_apply_r0_is_zero_and_qt_scales_modes():
    g = make_grid(8.0, 64)
    rng = np.random.default_rng(43)
    f = random_real_field(g, rng)
    out = apply_symbol(Symbol("R_t", 0.0), f)
    assert np.all(out.amplitudes == 0)
    k = 2.0
    amp = np.zeros(g.node_count, dtype=complex)
    amp[g.index_of(k)] = 1.0
    delta = SpectralField(g, amp)
    t = 0.9
    got = apply_symbol(Symbol("Q_t", t), delta)
    assert got.amplitudes[g.index_of(k)] == pytest.approx(np.cos(t * lambda_symbol(k)), rel=1e-14)


def test_apply_preserves_hermitian_symmetry_for_real_symbols():
    rng = np.random.default_rng(47)
    g = make_grid(8.0, 128)
    f = random_real_field(g, rng)
    for sym in (Symbol("m1"), Symbol("Q_t", 1.1), Symbol("R_t", 1.1)):
        out = apply_symbol(sym, f)
        assert out.real_valued
        assert out.hermitian_defect() < 1e-12
    assert not apply_symbol(Symbol("m2_plus", 1.1), f).real_valued


def test_besov_constant_symbol_is_zero():
    est = besov_seminorm(Symbol("Q_t", 0.0), resolution=40)
    assert est.value == 0.0
    assert est.converged


def test_besov_m1_finite_and_stable():
    est = besov_seminorm(Symbol("m1"), resolution=160)
    assert np.isfinite(est.value) and est.value > 0
    assert est.converged
    assert est.refinement_change < 0.05
    assert est.tail_bound < 1e-6 * est.value


def test_besov_m3_shape_versus_t():
    ratios = []
    for t in (0.5, 1.0, 2.0, 4.0):
        est = besov_seminorm(Symbol("m3", t), resolution=120)
        assert est.converged
        ratios.append(est.value / max(t, t**3))
    assert max(ratios) / min(ratios) < 4.0


def test_besov_m2_linear_growth_shape():
    ratios = []
    for t in (0.5, 1.0, 2.0, 4.0):
        est = besov_seminorm(Symbol("m2_plus", t), resolution=120)
        assert est.converged
        ratios.append(est.value / t)
    assert max(ratios) / min(ratios) < 4.0


def _per_h_besov_value(sym, h_min, h_max, n_h, n_panel, extent):
    """Reference: one graded-panel pass per h, with np.unique merging the panel midpoints."""

    def panel(a, b, n, min_cell=1e-7):
        rel = min_cell * ((1.0 / min_cell) ** (1.0 / n)) ** np.arange(n + 1)
        rel[0], rel[-1] = 0.0, 1.0
        half = 0.5 * (b - a)
        return np.unique(np.concatenate([a + half * rel, b - half * rel[::-1]]))

    hs = np.geomspace(h_min, h_max, n_h)
    vals = []
    for h in hs:
        breaks = sorted({-extent, -h, 0.0, extent})
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            x = panel(a, b, n_panel)
            total += np.trapezoid(np.abs(eval_symbol(sym, x + h) - eval_symbol(sym, x)) ** 2, x)
        vals.append(math.sqrt(total) / h**1.5)
    return 2.0 * np.trapezoid(np.array(vals) * hs, np.log(hs))


@pytest.mark.parametrize("resolution", [20, 40, 17])
@pytest.mark.parametrize(
    "sym",
    [
        Symbol("m1"),
        Symbol("m2_plus", 0.5),
        Symbol("m2_plus", 4.0),
        Symbol("m3", 0.5),
        Symbol("m3", 4.0),
        Symbol("Q_t", 1.3),
        Symbol("lambda"),
        Symbol("P"),
        Symbol("m2_minus", 4.0),
    ],
    ids=str,
)
def test_blocked_besov_value_matches_per_h_reference(sym, resolution):
    # the 16-h blocks divide none of 20, 40 and 17, so the last block is short (one h at 17); 17 also
    # has an odd panel count; every real family goes through the mirrored [-h, 0] panel (R_t, whose
    # symbol is m3's, at t = 0.01 is checked below)
    got = _besov_values([sym], 1e-3, 1e3, resolution, 1e4)[0]
    want = _per_h_besov_value(sym, 1e-3, 1e3, resolution, resolution, 1e4)
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    # h_max = extent: the last h has an empty first panel
    got = _besov_values([sym], 1e-2, 50.0, resolution, 50.0)[0]
    assert got == pytest.approx(_per_h_besov_value(sym, 1e-2, 50.0, resolution, resolution, 50.0), rel=1e-14, abs=0)


def _r_t_reference_value_exactly(t, n, extent):
    """_per_h_besov_value of R_t over [H_MIN, H_MAX] at n with its float nodes, in mpmath arithmetic."""
    rel = 1e-7 * (1e7 ** (1.0 / n)) ** np.arange(n + 1)
    rel[0], rel[-1] = 0.0, 1.0

    def m(x):
        lam = abs(x) / mpmath.sqrt(1 + x * x)
        return t if lam == 0 else mpmath.sin(t * lam) / lam

    hs = np.geomspace(H_MIN, H_MAX, n)
    vals = []
    for h in hs:
        breaks = sorted({-extent, -h, 0.0, extent})
        total = 0
        for a, b in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (b - a)
            x = [mpmath.mpf(v) for v in np.unique(np.concatenate([a + half * rel, b - half * rel[::-1]]))]
            f = [(m(v + h) - m(v)) ** 2 for v in x]
            total += sum((x[k + 1] - x[k]) * (f[k] + f[k + 1]) for k in range(len(x) - 1)) / 2
        vals.append(mpmath.sqrt(total) / mpmath.mpf(h) ** 1.5)
    y = [mpmath.log(h) for h in hs]
    return sum((y[k + 1] - y[k]) * (vals[k] * hs[k] + vals[k + 1] * hs[k + 1]) for k in range(n - 1))


@pytest.mark.parametrize("resolution", [17, 20])
def test_blocked_besov_value_of_r_t_at_small_t_within_the_references_rounding(resolution):
    # R_t at t = 0.01 takes the series branch of sin(t lambda)/lambda for |xi| up to ~0.01, and its
    # differences m(xi+h) - m(xi) cancel the constant t: the float quadrature keeps only ~1e-11 of the
    # value (the per-h reference reads 4.3e-11 and 3.3e-12 off the same rule in 40 digits), so it agrees
    # with the blocked sum to 1e-14 only where both round alike, which the mirrored [-h, 0] panel does
    # not; the blocked value must lie within the reference's own rounding of the exact rule
    sym = Symbol("R_t", 0.01)
    got = _besov_values([sym], H_MIN, H_MAX, resolution, 1e4)[0]
    ref = _per_h_besov_value(sym, H_MIN, H_MAX, resolution, resolution, 1e4)
    with mpmath.workdps(40):
        exact = float(_r_t_reference_value_exactly(sym.t, resolution, 1e4))
    assert abs(got - ref) <= abs(ref - exact)


@pytest.mark.parametrize("resolution", [160, 320])
def test_mirrored_panel_is_its_own_reflection(resolution):
    # _inner_l2_differences takes lambda(x_j + h) on the panel [-h, 0] as lambda(x_{2n+1-j}), the
    # reversed lambda row, and integrates half the symmetric integrand; that is exact up to rounding
    # only while the panel's nodes satisfy x_j + h = -x_{2n+1-j}
    hs = np.geomspace(H_MIN, H_MAX, resolution)
    panel = _graded_panel(-hs, np.zeros_like(hs), resolution)
    assert np.all(np.abs(panel + hs[:, None] + panel[:, ::-1]) <= 4 * np.spacing(hs)[:, None])


def _mpmath_inner_l2(sym, h, extent):
    """|| m(.+h) - m(.) ||_{L^2([-extent, extent])} by mpmath.quad, breaking at the kinks and the mirror point."""
    lam = lambda x: abs(x) / mpmath.sqrt(1 + x * x)
    if sym.name == "m2_plus":
        f = lambda x: (2 * mpmath.sin(sym.t * (lam(x + h) - lam(x)) / 2)) ** 2
    else:
        m = {"m1": lambda x: lam(x) ** 2, "m3": lambda x: sym.t if x == 0 else mpmath.sin(sym.t * lam(x)) / lam(x)}
        f = lambda x: (m[sym.name](x + h) - m[sym.name](x)) ** 2
    return float(mpmath.sqrt(mpmath.quad(f, [-extent, -h, -h / 2, 0, extent])))


def test_inner_l2_differences_against_mpmath():
    # the trapezoid rule on graded nodes has cells ~ eps * d, d the distance to the nearest panel end and
    # eps = ln g = ln(1e7)/n; its error sum_cells cell^3 f''/12 ~ (eps^2/12) int d^2 f'' integrates by
    # parts to (eps^2/6) int f when the mass of f sits near the panel ends, so each L^2 norm (its square
    # root) is eps^2/12 relative high; the STABILIZATION gate of 5% is far looser than this
    extent, syms = 1e4, [Symbol("m1"), Symbol("m2_plus", 2.0), Symbol("m3", 2.0)]
    with mpmath.workdps(20):
        want = {h: [_mpmath_inner_l2(sym, h, extent) for sym in syms] for h in (1e-3, 0.5, 30.0)}
    for n in (160, 320):
        right = _graded_panel([0.0], [extent], n)
        lam_right = lambda_symbol(right)
        m_right = [_symbol_of_lambda(sym, lam_right) if sym.is_real else None for sym in syms]
        bound = 1.1 * (math.log(1e7) / n) ** 2 / 12
        for h, row in want.items():
            got = _inner_l2_differences(syms, np.array([h]), extent, n, right, lam_right, _trapezoid_weights(right), m_right)
            for sym, g, w in zip(syms, got[:, 0], row):
                assert abs(g - w) <= bound * w, (n, h, str(sym))


# every symbol name, the timed ones at one t, in one batch
_ALL_SYMBOLS = [Symbol(name) if name in _TIME_FREE else Symbol(name, 1.3) for name in SYMBOL_NAMES]


def test_besov_seminorms_batch_matches_per_h_reference_for_every_symbol():
    # one call shares the panels and lambda tables; each value is the fine (double) resolution
    estimates = besov_seminorms(_ALL_SYMBOLS, resolution=20)
    assert [(e.symbol, e.t) for e in estimates] == [(s.name, s.t) for s in _ALL_SYMBOLS]
    for sym, est in zip(_ALL_SYMBOLS, estimates):
        want = _per_h_besov_value(sym, 1e-3, 1e3, 40, 40, 1e4)
        assert est.value == pytest.approx(want, rel=1e-14, abs=0), str(sym)
    # h_max = extent: the last h has an empty first panel
    for sym, got in zip(_ALL_SYMBOLS, _besov_values(_ALL_SYMBOLS, 1e-2, 50.0, 20, 50.0)):
        assert got == pytest.approx(_per_h_besov_value(sym, 1e-2, 50.0, 20, 20, 50.0), rel=1e-14, abs=0), str(sym)


def test_besov_seminorms_batch_equals_one_at_a_time():
    batch = besov_seminorms(_ALL_SYMBOLS, resolution=20)
    assert batch == [besov_seminorm(sym, resolution=20) for sym in _ALL_SYMBOLS]
    assert besov_seminorms([], resolution=20) == []


def test_besov_seminorms_strict_raises_for_the_first_unconverged_symbol(monkeypatch):
    # a stabilization below any refinement change leaves every nonzero seminorm unconverged;
    # Q_t at t = 0 is the constant 1, whose zero seminorm still converges
    monkeypatch.setattr(symbols_module, "STABILIZATION", 1e-14)
    loose = besov_seminorms([Symbol("m3", 0.5), Symbol("m1")], resolution=20)
    assert [e.converged for e in loose] == [False, False]
    for syms, first in (
        ([Symbol("m3", 0.5), Symbol("m1")], "m3(t=0.5)"),
        ([Symbol("m1"), Symbol("m3", 0.5)], "m1"),
        ([Symbol("Q_t", 0.0), Symbol("m2_minus", 2.0), Symbol("m1")], "m2_minus(t=2)"),
    ):
        with pytest.raises(BesovConvergenceError, match=rf"^seminorm of {re.escape(first)} changed by"):
            besov_seminorms(syms, resolution=20, strict=True)


def test_besov_seminorms_rejects_resolution_by_name():
    for bad in (0, 1, -3, 2.5, 160.0, True, "160", None):
        with pytest.raises(ValueError, match=r"^resolution must be an integer >= 2, got "):
            besov_seminorms([Symbol("m1")], resolution=bad)
    with pytest.raises(ValueError, match=r"^resolution must be an integer >= 2, got 0$"):
        besov_seminorm(Symbol("m1"), resolution=0)
    assert besov_seminorm(Symbol("m1"), resolution=np.int64(10)) == besov_seminorm(Symbol("m1"), resolution=10)
    assert besov_seminorm(Symbol("m1"), resolution=2).resolution == 2


def test_besov_seminorms_takes_only_the_symbols_resolution_and_strict():
    # the h range, xi truncation and stabilization are the symbols module constants
    assert list(inspect.signature(besov_seminorms).parameters) == ["syms", "resolution", "strict"]


def test_kernel_inequality_symmetric_case():
    chk = check_kernel_inequality(0.0, 0.0)
    # int dz/<z>^6 = 3*pi/8
    assert chk.lhs == pytest.approx(3 * np.pi / 8, rel=1e-9)
    assert chk.ratio == pytest.approx(chk.lhs, rel=1e-12)


def test_kernel_closed_form_against_adaptive_quadrature():
    for d in (-30.0, -3.0, -1.0, 0.0, 0.5, 2.0, 10.0, 30.0):
        f = lambda z: 1.0 / ((1.0 + (z - d) ** 2) * (1.0 + z**2) ** 2)
        lo, hi = min(d, 0.0), max(d, 0.0)
        pieces = ((-np.inf, lo), (lo, hi), (hi, np.inf))
        ref = sum(quad(f, a, b, epsabs=1e-15, epsrel=1e-12, limit=200)[0] for a, b in pieces)
        assert check_kernel_inequality(d, 0.0).lhs == pytest.approx(ref, rel=1e-9)


def test_kernel_ratio_sweep_bounded():
    checks = kernel_ratio_sweep([-100, -10, -1, 0, 1, 10, 100, 1e200])  # 1e200: (a-b)^2 overflows
    ratios = [c.ratio for c in checks]
    assert max(ratios) / min(ratios) < 10.0


def test_kernel_far_asymptotics():
    chk = check_kernel_inequality(0.0, 1e6)
    # both peaks as breakpoints; lhs = (pi/2) / <a-b>^2 up to O(<a-b>^-4)
    mpmath.mp.dps = 30
    f = lambda z: 1 / ((1 + z**2) * (1 + (z - 1e6) ** 2) ** 2)
    exact = float(mpmath.quad(f, [-mpmath.inf, 0, 1e6, mpmath.inf]))
    assert chk.lhs == pytest.approx(exact, rel=1e-9)
    assert chk.ratio == pytest.approx(np.pi / 2, rel=1e-9)


def _symbol_difference_bound(a, b):
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


def test_symbol_difference_bound_basics():
    assert _symbol_difference_bound(3.2, 3.2) == 0.0
    assert _symbol_difference_bound(0.0, 0.0) == 0.0
    n = 100
    a = np.linspace(n, n + 1, 41)
    vals = _symbol_difference_bound(a[:, None], a[None, :])
    assert np.max(vals) <= 2.0 / n**3


def test_symbol_difference_bound_against_mpmath():
    mpmath.mp.dps = 50

    def exact(a, b):
        lam = lambda x: abs(x) / mpmath.sqrt(1 + x * x)
        return float(abs(lam(mpmath.mpf(a)) - lam(mpmath.mpf(b))))

    for n in (10, 100, 1000):
        got = _symbol_difference_bound(float(n + 1), float(n))
        assert got == pytest.approx(exact(n + 1, n), rel=1e-12)
    rng = np.random.default_rng(53)
    for _ in range(25):
        a = rng.uniform(0.1, 50)
        b = a * (1 + rng.uniform(-1e-9, 1e-9))
        assert _symbol_difference_bound(a, b) == pytest.approx(exact(a, b), rel=1e-10, abs=1e-300)


def test_symbol_difference_bound_bracket_inequality():
    # discretized consequence of the large-h bracket comparison
    rng = np.random.default_rng(59)
    for _ in range(400):
        a = rng.uniform(0.01, 1e4)
        b = rng.uniform(0.01, 1e4)
        if abs(a) + abs(b) < 2:
            continue
        bra, brb = np.hypot(1, a), np.hypot(1, b)
        bound = 2 * abs(a - b) * max(1 / (bra * brb**2), 1 / (bra**2 * brb))
        assert _symbol_difference_bound(a, b) <= bound * (1 + 1e-12)
