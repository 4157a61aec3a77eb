"""Fourier-side representation of real scalar fields on the periodic square [0, 2pi)^2.

Convention: f(x) = sum_k c_k exp(i k.x) with c_{-k} = conj(c_k), and Parseval in
the normalized measure dx/(4 pi^2), so every norm is a plain coefficient sum.
Coefficients are indexed in FFT ordering with k1 along axis 0 (relation to
physical grid values: c = fft2(values) / (n1*n2)).

One layout. A real field is its rfft2 half spectrum, the (n1, n2/2 + 1) columns
k2 = 0 .. n2/2: the k2 < 0 half is an exact conjugate copy of it. A
`SpectralField`, every solver array and `Trajectory`, and every multiplier and
weight (built once from `k1` and `half_k2`) hold that layout. A sum over it
counts each column with its `multiplicity` (1 on the self-conjugate columns
k2 = 0 and n2/2, 2 elsewhere), so it equals the sum over all n1 x n2 modes. The
full (n1, n2) layout is only the read-only view `SpectralField.coeffs`, which
checkpoints store and `values()` transforms; checkpoint input is checked whole
by `require_hermitian` (with `hermitian_defect`) before its half is kept.

`half_from_physical` (rfft2, scaled, then `self_conjugate_columns`) and
`half_to_physical` (irfft2) are the transform pair; `full_spectrum`, the one
Hermitian fill, turns a half array or stack into the full layout.
`half_sobolev_weight`, cached read-only per (grid, s, homogeneous), is the one
builder of the (1+|k|^2)^s and |k|^{2s} weights (the symbols are cached in
`operators.symbol_multipliers`). `self_conjugate_columns` makes the columns
k2 = 0 and -n2/2 of a half array their own reflection and the four
self-conjugate modes real. Those columns are the only place a half array can
break the symmetry: a `SpectralField` checks them and makes them exact, and
multipliers even in k keep them so.
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
    def half_k2(self) -> np.ndarray:
        """k2 of the half-layout columns, (1, n2/2 + 1): 0 .. n2/2 - 1, then -n2/2."""
        return self.k2[:, :self.n2 // 2 + 1]

    @cached_property
    def half_k_sq(self) -> np.ndarray:
        """|k|^2 on the half layout."""
        return self.k1**2 + self.half_k2**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Read-only 2/3-rule mask on the half layout: keep |k1| <= n1//3 and |k2| <= n2//3."""
        mask = (np.abs(self.k1) <= self.n1 // 3) & (np.abs(self.half_k2) <= self.n2 // 3)
        mask.flags.writeable = False
        return mask

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """(1, n2/2 + 1): the number of modes each half-layout column stands for,
        1 on the self-conjugate columns k2 = 0 and n2/2 and 2 elsewhere."""
        m = np.full((1, self.n2 // 2 + 1), 2.0)
        m[0, ::self.n2 // 2] = 1.0
        m.flags.writeable = False
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def half_shape(self) -> tuple[int, int]:
        """Shape of the half layout, the columns k2 = 0 .. n2/2."""
        return (self.n1, self.n2 // 2 + 1)

    def physical_points(self) -> tuple[np.ndarray, np.ndarray]:
        x1 = np.arange(self.n1) * (2.0 * np.pi / self.n1)
        x2 = np.arange(self.n2) * (2.0 * np.pi / self.n2)
        return np.meshgrid(x1, x2, indexing="ij")


def half_from_physical(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The coefficients of real grid samples: their rfft2 half spectrum, scaled,
    with its columns k2 = 0 and n2/2 made self-conjugate."""
    half = np.fft.rfft2(values) / (grid.n1 * grid.n2)
    self_conjugate_columns(half, grid)
    return half


def half_to_physical(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real grid samples of the field whose columns k2 = 0 .. n2/2 are `half`."""
    return np.fft.irfft2(half, s=grid.shape, norm="forward")


def full_spectrum(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The (..., n1, n2) coefficients whose columns k2 = 0 .. n2/2 are `half`
    after `self_conjugate_columns`, with the columns k2 < 0 filled in as exact
    conjugates, c(k1, k2) = conj(c(-k1, -k2))."""
    h2 = grid.n2 // 2
    c = np.empty((*half.shape[:-1], grid.n2), dtype=np.complex128)
    c[..., :h2 + 1] = half
    self_conjugate_columns(c[..., :h2 + 1], grid)
    np.conj(c[..., 0, h2 - 1:0:-1], out=c[..., 0, h2 + 1:])
    np.conj(c[..., :0:-1, h2 - 1:0:-1], out=c[..., 1:, h2 + 1:])
    return c


def self_conjugate_columns(half: np.ndarray, grid: GridSpec) -> None:
    """In place on a half-layout array or stack: the columns k2 = 0 and k2 = -n2/2
    become their own reflection, the rows k1 < 0 conjugates of the rows k1 > 0,
    and the four self-conjugate modes real."""
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    np.conj(half[..., h1 - 1:0:-1, ::h2], out=half[..., h1 + 1:, ::h2])
    half[..., ::h1, ::h2].imag = 0.0


def half_sobolev_weight(grid: GridSpec, s: float, homogeneous: bool = False) -> np.ndarray:
    """Read-only (1+|k|^2)^s, or |k|^{2s} with the k=0 entry zero when homogeneous,
    on the half layout and times the column multiplicity, so that a sum against
    it over columns k2 = 0 .. n2/2 of a Hermitian field's power is the
    full-layout sum."""
    return _half_sobolev_weight(grid, float(s), bool(homogeneous))


@lru_cache(maxsize=64)
def _half_sobolev_weight(grid: GridSpec, s: float, homogeneous: bool) -> np.ndarray:
    with np.errstate(divide="ignore"):  # 0 ** s at k = 0, a term |k|^{2s} omits
        w = (grid.half_k_sq if homogeneous else 1.0 + grid.half_k_sq) ** s
    if homogeneous:
        w[0, 0] = 0.0
    w *= grid.multiplicity
    w.flags.writeable = False
    return w


def hermitian_defect(coeffs: np.ndarray) -> float:
    """max_k |c(k) - conj(c(-k))|, from the residual of the Hermitian fill of the
    k2 >= 0 half. A pair k, -k has one residual of that size on the filled side;
    a self-conjugate mode's residual is i Im c, half its defect, so it is doubled."""
    grid = GridSpec(*coeffs.shape)
    r = coeffs - full_spectrum(coeffs[:, :grid.n2 // 2 + 1], grid)
    r[::grid.n1 // 2, ::grid.n2 // 2] *= 2.0
    return float(np.max(np.abs(r)))


def require_hermitian(c: np.ndarray, defect=hermitian_defect) -> float:
    """`defect(c)`, the distance of the coefficients c from Hermitian symmetry;
    a ValueError unless c is finite and it is within HERMITIAN_ATOL * max(1, max|c|)."""
    if not np.all(np.isfinite(c.view(np.float64))):
        raise ValueError("non-finite coefficients")
    d = defect(c)
    if d > HERMITIAN_ATOL * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError(f"coefficients are not Hermitian-symmetric (defect {d:.3e})")
    return d


def _self_conjugate_defect(half: np.ndarray) -> float:
    """max |c(k) - conj(c(-k))| over the columns k2 = 0 and n2/2 of a half array,
    the only columns that hold both k and -k."""
    cols = half[:, ::half.shape[1] - 1]
    return float(np.max(np.abs(cols - np.conj(np.roll(cols[::-1], 1, axis=0)))))


@dataclass(frozen=True)
class SpectralField:
    """Immutable Fourier coefficients of a real scalar field, held as a private
    copy of the half layout `half`, whose self-conjugate columns are checked
    within HERMITIAN_ATOL and made exact. A nonzero mean is allowed (norm-only
    uses); operations that need the Riesz multiplier reject it."""

    grid: GridSpec
    half: np.ndarray

    def __post_init__(self):
        h = np.array(self.half, dtype=np.complex128)  # a private copy
        if h.shape != self.grid.half_shape:
            raise ValueError(f"half-spectrum shape {h.shape} does not match grid "
                             f"{self.grid.shape}: expected {self.grid.half_shape}")
        if require_hermitian(h, _self_conjugate_defect):
            self_conjugate_columns(h, self.grid)
        h.flags.writeable = False
        object.__setattr__(self, "half", h)

    @property
    def coeffs(self) -> np.ndarray:
        """The full (n1, n2) layout, filled from `half` by `full_spectrum` on each
        call and read-only: what checkpoints store and `values()` transforms."""
        c = full_spectrum(self.half, self.grid)
        c.flags.writeable = False
        return c

    # -- basic queries ------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(self.half[0, 0].real)

    @property
    def is_mean_zero(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.half))))
        return abs(self.half[0, 0]) <= HERMITIAN_ATOL * scale

    def values(self) -> np.ndarray:
        """Physical-space samples on the (n1, n2) grid."""
        return np.fft.ifft2(self.coeffs, norm="forward").real

    # -- arithmetic (grids must be equal) ------------------------------------

    def _check_compatible(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError(f"incompatible grids {self.grid} vs {other.grid}")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.half + other.half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.half - other.half)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.half * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.half)

    def dealiased(self) -> "SpectralField":
        return SpectralField(self.grid, np.where(self.grid.dealias_mask, self.half, 0.0))


# -- constructors -------------------------------------------------------------


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.half_shape, dtype=np.complex128))


def field_from_values(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Transform real physical-space samples to a spectral field."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    return SpectralField(grid, half_from_physical(values, grid))


def field_from_modes(grid: GridSpec, modes: dict[tuple[int, int], complex]) -> SpectralField:
    """Build a field from {k: c_k}; the conjugate at -k is filled in automatically,
    so naming both k and -k (or two aliases of one grid mode) is an error. A
    self-conjugate mode (k = -k on the grid) needs a real amplitude."""
    half = np.zeros(grid.half_shape, dtype=np.complex128)
    owner = {}  # grid index -> the wavenumber whose entry or conjugate set it
    for (k1, k2), amp in modes.items():
        if abs(k1) > grid.n1 // 2 or abs(k2) > grid.n2 // 2:
            raise ValueError(f"mode {(k1, k2)} outside retained wavenumbers of {grid}")
        at, conj_at = (k1 % grid.n1, k2 % grid.n2), (-k1 % grid.n1, -k2 % grid.n2)
        if at in owner:
            raise ValueError(f"modes {owner[at]} and {(k1, k2)} set one conjugate pair")
        owner[at] = owner[conj_at] = (k1, k2)
        for (i1, i2), c in ((conj_at, np.conj(amp)), (at, amp)):  # at wins when at = conj_at
            if i2 <= grid.n2 // 2:
                half[i1, i2] = c
    return SpectralField(grid, half)


def sine_field(grid: GridSpec, k: tuple[int, int], amplitude: float = 1.0,
               phase: float = 0.0) -> SpectralField:
    """amplitude * sin(k.x + phase) as a spectral field."""
    return field_from_modes(grid, {k: _sine_coefficient(amplitude, phase)})


def sine_sum_field(grid: GridSpec, sines) -> SpectralField:
    """The sum of amplitude * sin(k.x + phase) over (k, amplitude, phase) terms,
    built in one array: each term adds its coefficient at k and the conjugate at
    -k, in order, so the bits are those of a sum of one `sine_field` per term. Each
    k must be a retained wavenumber and not self-conjugate; k and -k may both occur."""
    half = np.zeros(grid.half_shape, dtype=np.complex128)
    for (k1, k2), amplitude, phase in sines:
        c = _sine_coefficient(amplitude, phase)
        for i1, i2, value in ((k1, k2, c), (-k1, -k2, np.conj(c))):
            if i2 % grid.n2 <= grid.n2 // 2:  # the half layout holds this entry
                half[i1 % grid.n1, i2 % grid.n2] += value
    return SpectralField(grid, half)


def _sine_coefficient(amplitude: float, phase: float) -> complex:
    """The coefficient at k of amplitude * sin(k.x + phase); -k holds its conjugate."""
    return -0.5j * amplitude * np.exp(1j * phase)
