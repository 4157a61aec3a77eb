"""Fourier-side representation of real scalar fields on the periodic square [0, 2pi)^2.

Convention: f(x) = sum_k c_k exp(i k.x) with c_{-k} = conj(c_k), and Parseval in
the normalized measure dx/(4 pi^2), so every norm is a plain coefficient sum.
Coefficients are stored as a complex (n1, n2) array in FFT ordering with k1 along
axis 0 (relation to physical grid values: c = fft2(values) / (n1*n2)).

This module is the package's only spectral workspace: `from_physical` and
`to_physical` are the sole transforms, and `sobolev_weight` the sole builder of
the (1+|k|^2)^s weight. The forward transform is the rfft2 half spectrum
(k2 >= 0) plus one Hermitian fill, `full_spectrum`, which the nonlinear kernel
also calls on its half-spectrum result: the k2 < 0 half (and the k1 < 0 half of
the self-conjugate columns k2 = 0 and k2 = -n2/2) is an exact conjugate copy of
the other half, and the four self-conjugate modes are real. Multipliers even in
k keep that symmetry exact, so no caller repairs it after an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

HERMITIAN_ATOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Mode counts of the periodic square grid; two grids interoperate iff equal."""

    n1: int
    n2: int

    def __post_init__(self):
        for name, n in (("n1", self.n1), ("n2", self.n2)):
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")

    @cached_property
    def k1(self) -> np.ndarray:
        """Wavenumbers along axis 0, shape (n1, 1), FFT ordering."""
        return (np.fft.fftfreq(self.n1) * self.n1).reshape(self.n1, 1)

    @cached_property
    def k2(self) -> np.ndarray:
        """Wavenumbers along axis 1, shape (1, n2), FFT ordering."""
        return (np.fft.fftfreq(self.n2) * self.n2).reshape(1, self.n2)

    @cached_property
    def k_sq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep |k1| <= n1//3 and |k2| <= n2//3."""
        return (np.abs(self.k1) <= self.n1 // 3) & (np.abs(self.k2) <= self.n2 // 3)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True at self-conjugate (Nyquist) rows/columns."""
        return (self.k1 == -(self.n1 // 2)) | (self.k2 == -(self.n2 // 2))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def dx(self) -> float:
        """Physical grid spacing (the smaller of the two directions)."""
        return 2.0 * np.pi / max(self.n1, self.n2)

    def physical_points(self) -> tuple[np.ndarray, np.ndarray]:
        x1 = np.arange(self.n1) * (2.0 * np.pi / self.n1)
        x2 = np.arange(self.n2) * (2.0 * np.pi / self.n2)
        return np.meshgrid(x1, x2, indexing="ij")


def from_physical(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of real grid samples, Hermitian by construction."""
    return full_spectrum(np.fft.rfft2(values) / (grid.n1 * grid.n2), grid)


def full_spectrum(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The (n1, n2) coefficients whose columns k2 = 0 .. n2/2 are `half`, with
    the rest filled in as exact conjugates and the four self-conjugate modes real."""
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    c = np.empty(grid.shape, dtype=np.complex128)
    c[:, :h2 + 1] = half
    # c(k1, k2) = conj(c(-k1, -k2)) for k2 < 0
    np.conj(half[0, h2 - 1:0:-1], out=c[0, h2 + 1:])
    np.conj(half[:0:-1, h2 - 1:0:-1], out=c[1:, h2 + 1:])
    # the columns k2 = 0 and k2 = -n2/2 are their own reflection
    np.conj(c[h1 - 1:0:-1, ::h2], out=c[h1 + 1:, ::h2])
    c[::h1, ::h2].imag = 0.0
    return c


def to_physical(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real grid samples of the field with these coefficients."""
    return np.fft.ifft2(coeffs, norm="forward").real


def sobolev_weight(grid: GridSpec, s: float, homogeneous: bool = False) -> np.ndarray:
    """Read-only (1+|k|^2)^s, or |k|^{2s} with the k=0 entry zero when homogeneous."""
    return _sobolev_weight(grid, float(s), bool(homogeneous))


@lru_cache(maxsize=64)
def _sobolev_weight(grid: GridSpec, s: float, homogeneous: bool) -> np.ndarray:
    if homogeneous:
        ksq = grid.k_sq.copy()
        ksq[0, 0] = 1.0  # dummy; the k=0 term is excluded below
        w = ksq**s
        w[0, 0] = 0.0
    else:
        w = (1.0 + grid.k_sq) ** s
    w.flags.writeable = False
    return w


def reflected_conj(coeffs: np.ndarray) -> np.ndarray:
    """Return the array c'(k) = conj(c(-k)) in the same FFT ordering."""
    return np.conj(np.roll(np.flip(coeffs, axis=(0, 1)), shift=(1, 1), axis=(0, 1)))


def hermitian_defect(coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(coeffs - reflected_conj(coeffs))))


@dataclass(frozen=True)
class SpectralField:
    """Immutable Fourier coefficients of a real scalar field.

    Hermitian symmetry is validated at construction. A nonzero mean is allowed
    (norm-only uses); operations that need the Riesz multiplier reject it.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(f"coefficient shape {c.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("non-finite coefficients")
        scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
        defect = hermitian_defect(c)
        if defect > HERMITIAN_ATOL * scale:
            raise ValueError(f"coefficients are not Hermitian-symmetric (defect {defect:.3e})")
        if abs(c[0, 0].imag) > HERMITIAN_ATOL * scale:
            raise ValueError("mean coefficient must be real")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- basic queries ------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    @property
    def is_mean_zero(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return abs(self.coeffs[0, 0]) <= HERMITIAN_ATOL * scale

    def values(self) -> np.ndarray:
        """Physical-space samples on the (n1, n2) grid."""
        return to_physical(self.coeffs, self.grid)

    # -- arithmetic (grids must be equal) ------------------------------------

    def _check_compatible(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError(f"incompatible grids {self.grid} vs {other.grid}")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def dealiased(self) -> "SpectralField":
        return SpectralField(self.grid, np.where(self.grid.dealias_mask, self.coeffs, 0.0))


# -- constructors -------------------------------------------------------------


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def field_from_values(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Transform real physical-space samples to a spectral field."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    return SpectralField(grid, from_physical(values, grid))


def field_from_modes(grid: GridSpec, modes: dict[tuple[int, int], complex]) -> SpectralField:
    """Build a field from {k: c_k}; the conjugate at -k is filled in automatically."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for (k1, k2), amp in modes.items():
        if abs(k1) > grid.n1 // 2 or abs(k2) > grid.n2 // 2:
            raise ValueError(f"mode {(k1, k2)} outside retained wavenumbers of {grid}")
        coeffs[k1 % grid.n1, k2 % grid.n2] = amp
        if (k1, k2) != (0, 0):
            coeffs[(-k1) % grid.n1, (-k2) % grid.n2] = np.conj(amp)
    return SpectralField(grid, coeffs)


def sine_field(grid: GridSpec, k: tuple[int, int], amplitude: float = 1.0,
               phase: float = 0.0) -> SpectralField:
    """amplitude * sin(k.x + phase) as a spectral field."""
    c = -0.5j * amplitude * np.exp(1j * phase)
    return field_from_modes(grid, {k: c})
