"""Frequency grids, spectral fields, transforms, and norms.

Everything downstream (multiplier operators, the Duhamel solver, the
inflation experiments) works on a uniform symmetric discretization of the
Fourier line.  Conventions, fixed once here:

* grid nodes  xi_k = (k - M/2) * dxi  for k = 0..M-1,  dxi = 2*extent/M,
  so xi = 0 is always a node and the leftmost node -extent has no mirror
  partner;
* forward transform  u_hat(xi_k) = dx * sum_j u(x_j) exp(-i xi_k x_j)
  (trapezoid approximation of the line transform), inverse transform
  u(x_j) = (dxi/2pi) * sum_k u_hat(xi_k) exp(i xi_k x_j);
* with these weights the discrete Parseval relation
  sum |u(x_j)|^2 dx = (1/2pi) sum |u_hat(xi_k)|^2 dxi  holds exactly,
  and every norm below carries the explicit 1/2pi.

Fields are immutable; all operations return new objects and are safe to
call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "FrequencyGrid",
    "SpectralField",
    "BandWindow",
    "make_grid",
    "lambda_symbol",
    "to_position",
    "sobolev_norm",
    "sup_norm",
    "restricted_norm",
    "random_real_field",
    "EmptyWindowWarning",
]

HERMITIAN_RTOL = 1e-12
# sup_norm samples a grid padded to more than this many times the field's nodes
SUP_NORM_OVERSAMPLE = 8


class EmptyWindowWarning(UserWarning):
    """A band window that misses every grid node was reduced to the value 0."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric frequency grid with nodes (k - M/2)*dxi."""

    dxi: float
    node_count: int

    def __post_init__(self):
        if self.node_count % 2 != 0 or self.node_count < 8:
            raise ValueError(f"node_count must be even and >= 8, got {self.node_count}")
        if not (self.dxi > 0 and math.isfinite(self.dxi)):
            raise ValueError(f"dxi must be positive and finite, got {self.dxi}")

    @property
    def extent(self) -> float:
        return 0.5 * self.node_count * self.dxi

    @cached_property
    def xi(self) -> np.ndarray:
        k = np.arange(self.node_count)
        out = (k - self.node_count // 2) * self.dxi
        out.setflags(write=False)
        return out

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / (self.node_count * self.dxi)

    @cached_property
    def x(self) -> np.ndarray:
        out = np.arange(self.node_count) * self.dx
        out.setflags(write=False)
        return out

    def index_of(self, xi: float) -> int:
        """Index of the node equal to ``xi`` (must lie on the grid)."""
        k = xi / self.dxi + self.node_count // 2
        ki = int(round(k))
        if not (0 <= ki < self.node_count) or abs(k - ki) > 1e-9:
            raise ValueError(f"{xi} is not a node of this grid")
        return ki


def make_grid(extent: float, node_count: int) -> FrequencyGrid:
    """Grid covering [-extent, extent) with ``node_count`` nodes.

    ``node_count`` must be even (so xi = 0 is a node) and at least 8.
    """
    if not (extent > 0 and math.isfinite(extent)):
        raise ValueError(f"extent must be positive, got {extent}")
    return FrequencyGrid(dxi=2.0 * extent / node_count, node_count=node_count)


def lambda_symbol(xi):
    """|xi| / sqrt(1 + xi^2), the phase speed profile of the linearized flow.

    Nonnegative, strictly increasing in |xi|, and below 1 (in float64 it
    rounds up to exactly 1.0 once |xi| exceeds ~1e8).
    """
    return np.abs(xi) / np.hypot(1.0, xi)


def _sin_over_lambda(lam: np.ndarray, t) -> np.ndarray:
    """sin(t lam)/lam, the symbol R_t of the linear flow; ``t`` broadcasts against ``lam``.

    The removable singularity at lam = 0 is handled by the series
    t*(1 - (t lam)^2/6 + (t lam)^4/120) wherever |t lam| < 1e-4, evaluated
    only there (elsewhere its powers may overflow).
    """
    s = t * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.sin(s) / lam)
    small = np.abs(s) < 1e-4
    t_small, s_small = np.broadcast_to(t, s.shape)[small], s[small]
    out[small] = t_small * (1.0 - s_small**2 / 6.0 + s_small**4 / 120.0)
    return out


def _hermitian_defect(amplitudes: np.ndarray) -> float:
    """Relative Hermitian defect of one row: pairs (k, M-k) for k = 1..M-1; node k = 0 has no partner."""
    scale = np.max(np.abs(amplitudes))
    diff = np.conj(amplitudes[:0:-1])
    diff -= amplitudes[1:]  # in place: one row-sized temporary fewer on large grids
    return float(np.max(np.abs(diff)) / (scale if scale > 0 else 1.0))


def _check_finite(amp: np.ndarray) -> None:
    if not np.all(np.isfinite(amp.view(np.float64))):
        raise ValueError("amplitudes must be finite")


@dataclass(frozen=True)
class SpectralField:
    """Complex amplitudes on a frequency grid.

    ``real_valued`` asserts Hermitian symmetry u_hat(-xi) = conj(u_hat(xi))
    at every symmetric node pair (checked on construction to 1e-12
    relative), i.e. the position-space samples are real.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray = field(repr=False)
    real_valued: bool = False

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.grid.node_count,):
            raise ValueError(
                f"amplitude count {amp.shape} does not match grid size {self.grid.node_count}"
            )
        _check_finite(amp)
        if self.real_valued and _hermitian_defect(amp) > HERMITIAN_RTOL:
            raise ValueError("field marked real_valued violates Hermitian symmetry")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def zero(cls, grid: FrequencyGrid, real_valued: bool = True) -> "SpectralField":
        return cls(grid, np.zeros(grid.node_count, dtype=np.complex128), real_valued)

    def hermitian_defect(self) -> float:
        return _hermitian_defect(self.amplitudes)

    # Linear arithmetic preserves Hermitian symmetry exactly (conjugation
    # commutes with IEEE +/-/scale), so derived fields keep the flag without
    # re-validation; a difference of nearly equal fields would otherwise
    # trip the relative check on rounding noise alone.

    def scaled(self, c: float) -> "SpectralField":
        return _combine(self.grid, c * self.amplitudes, self.real_valued)

    def _binary(self, other: "SpectralField", op) -> "SpectralField":
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        return _combine(self.grid, op(self.amplitudes, other.amplitudes), self.real_valued and other.real_valued)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._binary(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._binary(other, np.subtract)


def _combine(grid: FrequencyGrid, amplitudes: np.ndarray, real_valued: bool) -> SpectralField:
    """Field from arithmetic on validated fields: finiteness checked, symmetry trusted."""
    amp = np.asarray(amplitudes, dtype=np.complex128)
    _check_finite(amp)
    amp = amp.copy()
    amp.setflags(write=False)
    return _unchecked_field(grid, amp, real_valued)


def _unchecked_field(grid: FrequencyGrid, amp: np.ndarray, real_valued: bool) -> SpectralField:
    """Field around an already validated, read-only ``amp``."""
    f = object.__new__(SpectralField)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "amplitudes", amp)
    object.__setattr__(f, "real_valued", real_valued)
    return f


@dataclass(frozen=True)
class BandWindow:
    """Closed frequency interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"window requires lo < hi, got [{self.lo}, {self.hi}]")

    def mask(self, grid: FrequencyGrid) -> np.ndarray:
        xi = grid.xi
        return (xi >= self.lo) & (xi <= self.hi)


# ----------------------------------------------------------------------
# transforms


def to_position(f: SpectralField) -> np.ndarray:
    """Inverse transform: the complex samples u(x_j) = (dxi/2pi) sum_k u_hat(xi_k) e^{i xi_k x_j}."""
    return np.fft.ifft(np.fft.ifftshift(f.amplitudes)) / f.grid.dx


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length the FFT runs through its fast radices.

    Enumerates the odd parts 3^b 5^c below the best length so far and
    completes each with the smallest power of two that reaches n.
    """
    best = 1 << max(n - 1, 0).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _padded_node_count(node_count: int, factor: float) -> int:
    """The smallest even 5-smooth count strictly above ``node_count * factor``.

    Strictly above: a real row of M nodes carries M + 1 modes (node k = 0
    splits across +-M/2), so a product of degree p reaches the offsets
    +-pM/2, and a padded count N keeps every result node alias-free only
    when N > (p+1)M/2.
    """
    return 2 * _fast_length(math.floor(node_count * factor) // 2 + 1)


def _dealiased_node_count(node_count: int, p: int) -> int:
    """The one dealiasing rule: :func:`_padded_node_count` at (p+1)/2, the least factor keeping u^p alias-free."""
    return _padded_node_count(node_count, (p + 1) / 2)


# ----------------------------------------------------------------------
# norms


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: ( sum <xi>^{2s} |u_hat|^2 dxi / 2pi )^{1/2}."""
    weights = (1.0 + f.grid.xi**2) ** s
    total = np.sum(weights * np.abs(f.amplitudes) ** 2) * f.grid.dxi / (2.0 * np.pi)
    return float(np.sqrt(total))


def restricted_norm(f: SpectralField, window: BandWindow, s: float) -> float:
    """Same weighted sum as :func:`sobolev_norm`, restricted to nodes in the window.

    An empty intersection returns 0 and raises :class:`EmptyWindowWarning`.
    """
    mask = window.mask(f.grid)
    if not mask.any():
        warnings.warn(
            f"window [{window.lo}, {window.hi}] contains no grid node", EmptyWindowWarning
        )
        return 0.0
    xi = f.grid.xi[mask]
    weights = (1.0 + xi**2) ** s
    total = np.sum(weights * np.abs(f.amplitudes[mask]) ** 2) * f.grid.dxi / (2.0 * np.pi)
    return float(np.sqrt(total))


def sup_norm(f: SpectralField) -> float:
    """L^inf norm of the real band-limited interpolant of a real_valued field.

    Max of |u| over a dual grid refined more than the fixed
    :data:`SUP_NORM_OVERSAMPLE` times (:func:`_padded_node_count`), sampled by
    :func:`_position_matrix` (which splits node k = 0 across +-M/2), and
    sharpened by a parabolic fit through the winning sample and its two
    neighbours.  The sharpening never lowers the largest sample, so the
    result bounds |u| on every grid whose node count divides the refined
    count (M = 128: the 2-padded 270 nodes of 1080), which keeps the exact
    product bound |vw|_{L^2} <= |v|_{L^2} sup|w| provable for a product
    formed on such a grid.
    """
    if not f.real_valued:
        raise ValueError("sup_norm requires a real_valued field")
    padded = _padded_node_count(f.grid.node_count, SUP_NORM_OVERSAMPLE)
    mag = np.abs(_position_matrix(_half_spectrum(f.amplitudes[None]), f.grid, padded)[0][0])
    j = int(np.argmax(mag))
    y0, y1, y2 = mag[j - 1], mag[j], mag[(j + 1) % mag.shape[0]]
    denom = y0 - 2.0 * y1 + y2
    peak = y1
    if denom < 0.0:  # strict local max: parabola vertex lies above the sample
        peak = y1 - 0.125 * (y2 - y0) ** 2 / denom
    return float(max(peak, y1))


# ----------------------------------------------------------------------
# nonlinearity


def _half_spectrum(amp: np.ndarray) -> np.ndarray:
    """The half layout of Hermitian rows (last axis): columns xi = 0, dxi, ..., (M/2-1)dxi, then node k = 0.

    The mirror xi < 0 of each column xi > 0 is its conjugate, so these
    M/2 + 1 columns carry the whole row; the unpaired leftmost node k = 0
    (xi = -M/2 dxi) comes last.
    """
    h = amp.shape[-1] // 2
    return np.concatenate((amp[..., h:], amp[..., :1]), axis=-1)


def _full_spectrum(half: np.ndarray) -> np.ndarray:
    """The (..., M) Hermitian rows of half-layout rows, the inverse of :func:`_half_spectrum`."""
    h = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * h,), dtype=np.complex128)
    out[..., h:] = half[..., :h]
    np.conjugate(half[..., h - 1 : 0 : -1], out=out[..., 1:h])
    out[..., 0] = half[..., h]
    return out


def _column_counts(width: int) -> np.ndarray:
    """The M nodes each half-layout column stands for: xi > 0 and its mirror count 2, xi = 0 and k = 0 count 1."""
    count = np.full(width, 2.0)
    count[[0, -1]] = 1.0
    return count


def _position_matrix(half: np.ndarray, grid: FrequencyGrid, padded: int):
    """Samples of every half-layout row on the grid of ``padded`` nodes: one irfft.

    ``padded`` is a count of :func:`_padded_node_count`.  The padded half
    spectrum carries the Hermitian part of each row, so the unpaired node
    k = 0 (mode -M/2) enters as conj(a_0)/2 at mode +M/2.
    Returns the (n, padded) real samples and the fine spacing dx.
    """
    h = half.shape[1] - 1
    dx_fine = 2.0 * np.pi / (padded * grid.dxi)
    bins = np.zeros((half.shape[0], padded // 2 + 1), dtype=np.complex128)
    bins[:, :h] = half[:, :h]
    bins[:, h] = 0.5 * np.conj(half[:, h])
    samples = np.fft.irfft(bins, padded, axis=1)
    del bins
    samples /= dx_fine
    return samples, dx_fine


def _power_matrix(half: np.ndarray, grid: FrequencyGrid, p: int) -> np.ndarray:
    """Half-layout amplitudes of u^p for every half-layout row: one irfft/rfft pair.

    The samples come from :func:`_position_matrix` on the grid of
    :func:`_dealiased_node_count` nodes; the unpaired node k = 0
    is read back as the conjugate of the +M/2 bin.
    """
    h = half.shape[1] - 1
    samples, dx_fine = _position_matrix(half, grid, _dealiased_node_count(grid.node_count, p))
    with np.errstate(over="ignore", invalid="ignore"):
        samples **= p
    if not np.all(np.isfinite(samples)):
        raise OverflowError("position samples overflowed while forming the pointwise power")
    out = dx_fine * np.fft.rfft(samples, axis=1)[:, : h + 1]
    np.conjugate(out[:, h], out=out[:, h])
    return out


# ----------------------------------------------------------------------
# test corpora


def random_real_field(
    grid: FrequencyGrid, rng: np.random.Generator, decay: float = 1.0, band_fraction: float = 0.5
) -> SpectralField:
    """Random Hermitian field with <xi>^-decay amplitudes on a centered band."""
    m = grid.node_count
    xi = grid.xi
    amp = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * (1.0 + xi**2) ** (-decay / 2.0)
    amp[np.abs(xi) > band_fraction * grid.extent] = 0.0
    amp[0] = 0.0
    half = amp[m // 2 + 1 :]
    amp[1 : m // 2] = np.conj(half[::-1])
    amp[m // 2] = amp[m // 2].real
    return SpectralField(grid, amp, real_valued=True)
