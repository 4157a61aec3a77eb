"""Fourier multipliers and the dealiased nonlinearity of the anisotropic flow.

The linear part acts mode-wise through A(k) = mu|k1|^{2 alpha} + nu|k2|^{2 beta};
the velocity is the perpendicular Riesz transform of the scalar; the nonlinear
term is div(theta u) computed pseudospectrally under the 2/3 rule on the half
spectrum (columns k2 = 0 .. n2/2): theta and u come to the grid by irfft2 of
those columns, and the mask is folded into derivative multipliers on the rfft2
half spectrum of the fluxes. The kernel (`_nonlinear_raw`, what the solver
consumes) reads and returns half arrays.

Multipliers are half-layout, built once on the columns k2 = 0 .. n2/2 and cached
read-only (`symbol_multipliers` per (grid, params), read by
`dissipation_multiplier` and `gevrey_multiplier`; `riesz_multipliers` and
`_kernel_multipliers` per grid), and no caller slices one. An operation on a
`SpectralField` (`apply_semigroup`, `riesz_velocity`, `nonlinear_term`) is its
multiplier or kernel applied to `half`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, SpectralField, half_to_physical, self_conjugate_columns


class RegimeWarning(UserWarning):
    """Parameters are outside the regime in which the construction is guaranteed."""


@dataclass(frozen=True)
class DissipParams:
    """Dissipation exponents/coefficients and the working Sobolev index."""

    alpha: float
    beta: float
    mu: float = 1.0
    nu: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        for name in ("mu", "nu"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")

    @property
    def s_lower(self) -> float:
        return max(2.0 - 2.0 * self.alpha, 2.0 - 2.0 * self.beta)

    @property
    def in_guaranteed_regime(self) -> bool:
        return (0.5 < self.alpha < 1.0 and 0.5 < self.beta < 1.0
                and self.s_lower < self.s < 2.0)

    @property
    def regime(self) -> str:
        return "guaranteed" if self.in_guaranteed_regime else "unguaranteed"

    def warn_if_unguaranteed(self) -> None:
        if not self.in_guaranteed_regime:
            warnings.warn(
                f"(alpha, beta, s) = ({self.alpha}, {self.beta}, {self.s}) is outside "
                "the guaranteed regime; proceeding anyway", RegimeWarning, stacklevel=3)


def dissipation_symbol(k, p: DissipParams):
    """A(k) = mu|k1|^{2 alpha} + nu|k2|^{2 beta}; accepts scalars or arrays."""
    k1, k2 = k
    return p.mu * np.abs(k1) ** (2.0 * p.alpha) + p.nu * np.abs(k2) ** (2.0 * p.beta)


def gevrey_symbol(k, p: DissipParams):
    """B(k) = 2(|k1|^alpha + |k2|^beta), the exponent of the smoothing weight."""
    k1, k2 = k
    return 2.0 * (np.abs(k1) ** p.alpha + np.abs(k2) ** p.beta)


@lru_cache(maxsize=8)
def symbol_multipliers(grid: GridSpec, p: DissipParams) -> tuple[np.ndarray, ...]:
    """Read-only (|k1|^{2 alpha} column, |k2|^{2 beta} row, A, B) on the half
    layout, built once per (grid, p)."""
    d1, d2 = np.abs(grid.k1) ** (2.0 * p.alpha), np.abs(grid.half_k2) ** (2.0 * p.beta)
    out = (d1, d2, p.mu * d1 + p.nu * d2, gevrey_symbol((grid.k1, grid.half_k2), p))
    for m in out:
        m.flags.writeable = False
    return out


def dissipation_multiplier(grid: GridSpec, p: DissipParams) -> np.ndarray:
    return symbol_multipliers(grid, p)[2]


def gevrey_multiplier(grid: GridSpec, p: DissipParams) -> np.ndarray:
    return symbol_multipliers(grid, p)[3]


@lru_cache(maxsize=8)
def riesz_multipliers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only velocity multipliers (-i k2/|k|, i k1/|k|) on the half layout,
    built once per grid; zero at k=0 and on the Nyquist row and column.

    Nyquist rows/columns are self-conjugate, where an imaginary multiplier would
    break real-valuedness; dynamical fields live inside the dealiased band where
    this zeroing is vacuous.
    """
    kmag = np.sqrt(grid.half_k_sq)
    kmag[0, 0] = 1.0  # avoid 0/0; the zero mode is zeroed explicitly below
    inside = (grid.k1 != -(grid.n1 // 2)) & (grid.half_k2 != -(grid.n2 // 2))
    m1 = -1j * grid.half_k2 / kmag
    m2 = 1j * grid.k1 / kmag
    for m in (m1, m2):
        m *= inside
        m[0, 0] = 0.0
        m.flags.writeable = False
    return m1, m2


def _require_mean_zero(theta: SpectralField, op: str) -> None:
    if not theta.is_mean_zero:
        raise ValueError(f"{op} requires a mean-zero field (Riesz multiplier is singular at k=0)")


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """u = R^perp theta: divergence-free velocity from the scalar field."""
    _require_mean_zero(theta, "riesz_velocity")
    return tuple(SpectralField(theta.grid, m * theta.half) for m in riesz_multipliers(theta.grid))


@lru_cache(maxsize=8)
def _kernel_multipliers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Read-only (m1, m2, d1, d2) for the kernel, built once per grid, all on the
    half spectrum (columns k2 = 0 .. n2/2) that irfft2 and rfft2 read and write:
    the Riesz multipliers and the dealiased derivatives d_j = i k_j / (n1 n2),
    zero outside the 2/3 band."""
    d1, d2 = (np.zeros(grid.half_shape, dtype=np.complex128) for _ in range(2))
    d1.imag, d2.imag = (np.where(grid.dealias_mask, k / (grid.n1 * grid.n2), 0.0)
                        for k in (grid.k1, grid.half_k2))
    for m in (d1, d2):
        m.flags.writeable = False
    return (*riesz_multipliers(grid), d1, d2)


def _velocity(half: np.ndarray, grid: GridSpec,
              with_max_u: bool = False) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Grid samples of the velocity u = R^perp theta of the half array `half`,
    plus max |u| when asked for (else None)."""
    u1, u2 = (half_to_physical(m * half, grid) for m in _kernel_multipliers(grid)[:2])
    return u1, u2, math.sqrt(float(np.max(u1 * u1 + u2 * u2))) if with_max_u else None


def _nonlinear_raw(coeffs: np.ndarray, grid: GridSpec, velocity_coeffs: np.ndarray | None = None,
                   with_max_u: bool = False) -> tuple[np.ndarray, float | None]:
    """div(theta u) coefficients (dealiased) of the half array `coeffs`, on the
    half layout, plus max |u| on the grid when asked for (else None).

    The velocity derives from the half array `velocity_coeffs` when given
    (bilinear form), else from `coeffs` itself. The columns k2 = 0 and n2/2 of
    the result are exactly self-conjugate.
    max |u| is a pass over the grid that no kernel output depends on, so it is
    formed only for a caller that reads it: the march, at its initial and
    accepted states.
    """
    d1, d2 = _kernel_multipliers(grid)[2:]
    theta_phys = half_to_physical(coeffs, grid)
    u1_phys, u2_phys, max_u = _velocity(coeffs if velocity_coeffs is None
                                        else velocity_coeffs, grid, with_max_u)
    out = d1 * np.fft.rfft2(theta_phys * u1_phys)
    out += d2 * np.fft.rfft2(theta_phys * u2_phys)
    self_conjugate_columns(out, grid)
    return out, max_u


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """Dealiased div(theta u_theta); equals u.grad(theta) since div u = 0."""
    _require_mean_zero(theta, "nonlinear_term")
    return SpectralField(theta.grid, _nonlinear_raw(theta.half, theta.grid)[0])


def apply_semigroup(f: SpectralField, t: float, p: DissipParams) -> SpectralField:
    """exp(-t A(D)) f, the exact solution operator of the linear flow."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return SpectralField(f.grid, np.exp(-t * dissipation_multiplier(f.grid, p)) * f.half)
