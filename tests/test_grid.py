import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbq.grid import (
    BandWindow,
    EmptyWindowWarning,
    FrequencyGrid,
    SpectralField,
    _fast_length,
    _full_spectrum,
    _half_spectrum,
    _padded_node_count,
    _power_matrix,
    _sin_over_lambda,
    lambda_symbol,
    make_grid,
    random_real_field,
    restricted_norm,
    sobolev_norm,
    sup_norm,
    to_position,
)
from imbq.solver import CauchyData, free_propagator
from imbq.symbols import _REAL_SYMBOLS, _TIME_FREE, Symbol, apply_symbol


def pointwise_power(f, p, sign):
    # sign * u^p as a field: the solver's dealiased power row on the full layout
    amp = sign * _full_spectrum(_power_matrix(_half_spectrum(f.amplitudes[None]), f.grid, p))[0]
    return SpectralField(f.grid, amp, real_valued=True)


def direct_transform(grid, samples):
    # literal trapezoid sum, the oracle for the FFT-based path
    xi = grid.xi[:, None]
    x = grid.x[None, :]
    return grid.dx * np.sum(samples[None, :] * np.exp(-1j * xi * x), axis=1)


def test_make_grid_spacing_and_zero_node():
    g = make_grid(32.0, 4096)
    assert g.dxi == pytest.approx(1.0 / 64.0, abs=0)
    assert 0.0 in g.xi
    assert g.xi[g.node_count // 2] == 0.0


def test_make_grid_small_example_nodes():
    g = make_grid(1.0, 8)
    assert np.allclose(g.xi, [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("extent,m", [(32.0, 4095), (32.0, 4), (0.0, 8), (-1.0, 64)])
def test_make_grid_rejects_bad_arguments(extent, m):
    with pytest.raises(ValueError):
        make_grid(extent, m)


def test_grid_dual_period_and_spacing():
    g = make_grid(4.0, 64)
    assert g.dx == pytest.approx(2 * np.pi / (g.node_count * g.dxi))
    assert np.allclose(np.diff(g.x), g.dx)


def test_lambda_symbol_values():
    assert lambda_symbol(0.0) == 0.0
    assert lambda_symbol(1.0) == pytest.approx(0.7071067811865475, rel=1e-15)
    xi = np.linspace(-100, 100, 2001)
    vals = lambda_symbol(xi)
    assert np.all(vals >= 0.0)
    assert np.all(vals < 1.0)
    # strictly increasing in |xi|
    pos = lambda_symbol(np.linspace(0.001, 1e4, 5000))
    assert np.all(np.diff(pos) > 0)


def test_transform_round_trip_and_against_direct_sum():
    rng = np.random.default_rng(7)
    g = make_grid(8.0, 64)
    f = random_real_field(g, rng)
    pos = to_position(f)
    back = g.dx * np.fft.fftshift(np.fft.fft(pos))  # the forward transform
    scale = np.max(np.abs(f.amplitudes))
    assert np.max(np.abs(back - f.amplitudes)) < 1e-12 * scale
    direct = direct_transform(g, pos)
    assert np.max(np.abs(direct - f.amplitudes)) < 1e-10 * scale


def test_point_mass_inverts_to_plane_wave():
    g = make_grid(4.0, 32)
    k = 1.0
    amp = np.zeros(g.node_count, dtype=complex)
    amp[g.index_of(k)] = 1.0
    pos = to_position(SpectralField(g, amp))
    expected = (g.dxi / (2 * np.pi)) * np.exp(1j * k * g.x)
    assert np.max(np.abs(pos - expected)) < 1e-14


def test_parseval_identity_on_random_corpus():
    rng = np.random.default_rng(11)
    g = make_grid(16.0, 256)
    for _ in range(100):
        f = random_real_field(g, rng, decay=rng.uniform(0.5, 2.0))
        pos = to_position(f)
        lhs = np.sum(np.abs(pos) ** 2) * g.dx
        rhs = np.sum(np.abs(f.amplitudes) ** 2) * g.dxi / (2 * np.pi)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_transform_grid_mismatch_rejected():
    g1 = make_grid(4.0, 32)
    g2 = make_grid(4.0, 64)
    f = SpectralField.zero(g1)
    with pytest.raises(ValueError):
        SpectralField(g2, f.amplitudes)


def test_hermitian_validation():
    g = make_grid(4.0, 32)
    amp = np.zeros(g.node_count, dtype=complex)
    amp[g.index_of(1.0)] = 1.0 + 1j  # no mirror partner
    with pytest.raises(ValueError):
        SpectralField(g, amp, real_valued=True)
    amp[g.index_of(-1.0)] = np.conj(amp[g.index_of(1.0)])
    SpectralField(g, amp, real_valued=True)  # now fine


def test_sobolev_norm_zero_field():
    g = make_grid(4.0, 32)
    assert sobolev_norm(SpectralField.zero(g), 0.0) == 0.0


def test_sobolev_norm_two_unit_boxes():
    # |u_hat| = indicator of [N, N+1) and its mirror, dxi = 1/64
    g = FrequencyGrid(1.0 / 64.0, 4096)
    xi = g.xi
    amp = (((xi >= 16) & (xi < 17)) | ((xi > -17) & (xi <= -16))).astype(complex)
    f = SpectralField(g, amp, real_valued=True)
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(2 / (2 * np.pi)), rel=1e-12)
    assert sobolev_norm(f, 0.0) == pytest.approx(0.5641895835477563, rel=1e-12)


def test_sup_norm_zero_and_cosine():
    g = make_grid(4.0, 64)
    assert sup_norm(SpectralField.zero(g)) == 0.0
    amp = np.zeros(g.node_count, dtype=complex)
    scale = np.pi / g.dxi
    amp[g.index_of(1.0)] = scale
    amp[g.index_of(-1.0)] = scale
    f = SpectralField(g, amp, real_valued=True)  # cos(x) with amplitude 1
    assert sup_norm(f) == pytest.approx(1.0, rel=1e-9)


def test_sup_norm_matches_dense_resampling():
    rng = np.random.default_rng(3)
    g = make_grid(16.0, 128)
    for i in range(11):
        a = random_real_field(g, rng, decay=1.5, band_fraction=1.0 if i == 10 else 0.5).amplitudes.copy()
        if i == 10:
            a[0] = 0.5 - 0.7j  # the unpaired node k = 0
        f = SpectralField(g, a, real_valued=True)
        # the real interpolant splits a_0 across +-M/2, as sup_norm does
        dense = np.max(np.abs(to_position(SpectralField(
            FrequencyGrid(g.dxi, 128 * 64),
            _embed(a, 128 * 64, split=True),
        ))))
        assert sup_norm(f) == pytest.approx(dense, rel=1e-3)


def test_sup_norm_requires_a_real_field():
    g = make_grid(4.0, 32)
    with pytest.raises(ValueError, match="real_valued"):
        sup_norm(SpectralField.zero(g, real_valued=False))


def _embed(amp, padded, split=False):
    """``amp`` zero-padded to ``padded`` nodes; with ``split``, node k = 0 goes half to -M/2, half conjugated to +M/2."""
    out = np.zeros(padded, dtype=complex)
    lo = padded // 2 - amp.shape[0] // 2
    out[lo : lo + amp.shape[0]] = amp
    if split:
        out[lo] = amp[0] / 2
        out[lo + amp.shape[0]] = np.conj(amp[0]) / 2
    return out


def test_restricted_norm_full_window_equals_sobolev():
    rng = np.random.default_rng(5)
    g = make_grid(8.0, 128)
    f = random_real_field(g, rng)
    w = BandWindow(-g.extent, g.extent)
    for s in (-0.5, 0.0, 1.0):
        assert restricted_norm(f, w, s) == sobolev_norm(f, s)


def test_restricted_norm_outside_support_and_empty():
    g = FrequencyGrid(1.0 / 64.0, 4096)
    xi = g.xi
    amp = ((xi >= 16) & (xi < 17)).astype(complex)
    f = SpectralField(g, amp)
    assert restricted_norm(f, BandWindow(0.25, 0.5), 0.0) == 0.0
    with pytest.warns(EmptyWindowWarning):
        v = restricted_norm(f, BandWindow(100.0, 101.0), 0.0)
    assert v == 0.0


def test_restricted_norm_indicator_quarter_half():
    g = FrequencyGrid(1.0 / 64.0, 4096)
    xi = g.xi
    amp = ((xi >= 0.25) & (xi < 0.5)).astype(complex)
    f = SpectralField(g, amp)
    # sum over [1/4, 1/2) of dxi/2pi -> (1/4)/(2pi); the closed window picks
    # up the right endpoint node, one extra dxi
    expected = np.sqrt((0.25 + g.dxi * 0) / (2 * np.pi))
    got = restricted_norm(f, BandWindow(0.25, 0.5), 0.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.19947114020071635, rel=1e-12)


def test_pointwise_power_zero_and_cos_squared():
    g = make_grid(4.0, 64)
    z = pointwise_power(SpectralField.zero(g), 3, 1)
    assert np.all(z.amplitudes == 0)
    amp = np.zeros(g.node_count, dtype=complex)
    scale = np.pi / g.dxi
    k = 1.0
    amp[g.index_of(k)] = scale
    amp[g.index_of(-k)] = scale
    f = SpectralField(g, amp, real_valued=True)
    sq = pointwise_power(f, 2, 1)
    # cos^2(kx) = 1/2 + cos(2kx)/2
    expected = np.zeros(g.node_count, dtype=complex)
    expected[g.index_of(0.0)] = 2 * np.pi / g.dxi / 2
    expected[g.index_of(2 * k)] = scale / 2
    expected[g.index_of(-2 * k)] = scale / 2
    assert np.max(np.abs(sq.amplitudes - expected)) < 1e-10 * scale


def test_pointwise_power_matches_direct_convolution():
    # (u^3)^hat = (1/2pi)^2 * threefold discrete line convolution
    rng = np.random.default_rng(13)
    g = make_grid(8.0, 64)
    f = random_real_field(g, rng, band_fraction=0.3)
    got = pointwise_power(f, 3, 1).amplitudes
    a = f.amplitudes
    m = g.node_count
    conv2 = np.zeros(m, dtype=complex)
    for i in range(m):
        for j in range(m):
            k = i + j - m // 2
            if 0 <= k < m:
                conv2[k] += a[i] * a[j] * g.dxi
    conv3 = np.zeros(m, dtype=complex)
    for i in range(m):
        for j in range(m):
            k = i + j - m // 2
            if 0 <= k < m:
                conv3[k] += conv2[i] * a[j] * g.dxi
    expected = conv3 / (2 * np.pi) ** 2
    assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    half_m=st.integers(4, 33),
    p=st.integers(2, 5),
    sign=st.sampled_from([1, -1]),
    decay=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
# M = 8 with p = 2 and p = 3: a padded count of exactly (p+1)M/2 (12, 16) would fold +-pM/2 onto k = 0
@example(half_m=4, p=2, sign=1, decay=0.0, seed=0)
@example(half_m=4, p=3, sign=-1, decay=1.0, seed=1)
def test_pointwise_power_equals_full_discrete_convolution(half_m, p, sign, decay, seed):
    # the whole band is occupied, the unpaired node k = 0 too: a real field puts a_0/2 at
    # xi = -M/2 dxi and conj(a_0)/2 at +M/2 dxi, so the spectrum has M + 1 modes
    g = make_grid(2.0, 2 * half_m)
    rng = np.random.default_rng(seed)
    a = random_real_field(g, rng, decay=decay, band_fraction=1.0).amplitudes.copy()
    a[0] = rng.standard_normal() + 1j * rng.standard_normal()
    f = SpectralField(g, a, real_valued=True)
    m = g.node_count
    split = np.concatenate(([a[0] / 2], a[1:], [np.conj(a[0]) / 2]))
    conv = split
    for _ in range(p - 1):
        conv = np.convolve(conv, split) * (g.dxi / (2 * np.pi))
    # index i of the p-fold convolution, not truncated between factors, is the offset i - p*m/2;
    # every node, k = 0 (offset -m/2) included, must equal it unfolded
    lo = (p - 1) * m // 2
    expected = sign * conv[lo : lo + m]
    got = pointwise_power(f, p, sign).amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def test_fast_length_is_the_smallest_5_smooth_length():
    smooth = [n for n in range(1, 10**4 + 200) if _is_5_smooth(n)]
    for n in range(1, 10**4 + 1):
        assert _fast_length(n) == smooth[np.searchsorted(smooth, n)]


@pytest.mark.parametrize("factor", [1.5, 2.0, 2.5, 3.0, 8.0])
def test_padded_node_count_is_the_smallest_even_5_smooth_count_above_the_bound(factor):
    even_smooth = np.array([n for n in range(2, 3000 * 8 + 2000, 2) if _is_5_smooth(n)])
    for m in range(8, 3001, 2):
        padded = _padded_node_count(m, factor)
        assert padded % 2 == 0 and _is_5_smooth(padded) and padded > m * factor
        assert padded == even_smooth[np.searchsorted(even_smooth, m * factor, side="right")]


def test_pointwise_power_overflow_detected():
    g = make_grid(4.0, 32)
    amp = np.zeros(g.node_count, dtype=complex)
    amp[g.index_of(0.0)] = 1e300
    f = SpectralField(g, amp, real_valued=True)
    with pytest.raises(OverflowError):
        pointwise_power(f, 3, 1)


def test_hermitian_symmetry_preserved_by_operations():
    rng = np.random.default_rng(17)
    g = make_grid(8.0, 128)
    for _ in range(20):
        f = random_real_field(g, rng, band_fraction=0.4)
        assert pointwise_power(f, 2, -1).hermitian_defect() < 1e-12
        assert pointwise_power(f, 3, 1).hermitian_defect() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    half_m=st.integers(4, 64),
    decay=st.floats(0.0, 2.0),
    band=st.floats(0.1, 1.0),
    c=st.floats(-1e3, 1e3, allow_nan=False),
    t=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_arithmetic_keeps_hermitian_symmetry(half_m, decay, band, c, t, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(rng.uniform(1.0, 16.0), 2 * half_m)
    f, w = (random_real_field(g, rng, decay=decay, band_fraction=band) for _ in range(2))
    derived = [f + w, f - w, f.scaled(c), pointwise_power(f, 2, 1), pointwise_power(f, 3, -1)]
    derived += [apply_symbol(Symbol(name, None if name in _TIME_FREE else t), f) for name in _REAL_SYMBOLS]
    derived.append(free_propagator(CauchyData(f, w), t))
    for h in derived:
        assert h.real_valued
        assert h.hermitian_defect() <= 1e-12


def _padded_product(v, w, factor):
    """Amplitudes of v*w, formed on the grid padded by ``factor`` with complex transforms and truncated."""
    m = v.grid.node_count
    padded = _padded_node_count(m, factor)
    dx_fine = 2.0 * np.pi / (padded * v.grid.dxi)
    a, b = (np.fft.ifft(np.fft.ifftshift(_embed(f.amplitudes, padded))) / dx_fine for f in (v, w))
    lo = padded // 2 - m // 2
    return dx_fine * np.fft.fftshift(np.fft.fft(a * b))[lo : lo + m]


def test_moser_product_bound_s0():
    # provable case: |vw|_{L^2} <= |v|_{L^2} * sup|w|
    rng = np.random.default_rng(23)
    g = make_grid(8.0, 128)
    for _ in range(50):
        v = random_real_field(g, rng, decay=rng.uniform(0.5, 2.0))
        w = random_real_field(g, rng, decay=rng.uniform(0.5, 2.0))
        vw = SpectralField(g, _padded_product(v, w, 2.0))
        assert sobolev_norm(vw, 0.0) <= sobolev_norm(v, 0.0) * sup_norm(w) + 1e-9


def test_sin_over_lambda_evaluates_the_series_only_where_it_is_used():
    # bit-equal to evaluating both branches everywhere and choosing with np.where,
    # without the overflow warning that the series' powers raise at huge t*lambda
    rng = np.random.default_rng(7)
    lam = lambda_symbol(np.concatenate([[0.0], rng.normal(0.0, 10.0, 50), 10 ** rng.uniform(-12, 3, 200)]))
    for t in (1e120, 2.5, 1e-9, rng.uniform(0.0, 1e200, (3, 1)), np.array([[0.0], [1e-3], [1e300]])):
        s = t * lam
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            expected = np.where(np.abs(s) < 1e-4, t * (1.0 - s**2 / 6.0 + s**4 / 120.0), np.sin(s) / lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sin_over_lambda(lam, t)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
