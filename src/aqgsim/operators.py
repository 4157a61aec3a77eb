"""Fourier multipliers and the dealiased nonlinearity of the anisotropic flow.

The linear part acts mode-wise through A(k) = mu|k1|^{2 alpha} + nu|k2|^{2 beta};
the velocity is the perpendicular Riesz transform of the scalar; the nonlinear
term is div(theta u) computed pseudospectrally under the 2/3 rule, with the mask
folded into derivative multipliers on the rfft2 half spectrum of the fluxes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, SpectralField, full_spectrum, to_physical


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
        if self.mu <= 0.0 or self.nu <= 0.0:
            raise ValueError("mu and nu must be positive")

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


def dissipation_multiplier(grid: GridSpec, p: DissipParams) -> np.ndarray:
    return dissipation_symbol((grid.k1, grid.k2), p)


def gevrey_multiplier(grid: GridSpec, p: DissipParams) -> np.ndarray:
    return gevrey_symbol((grid.k1, grid.k2), p)


@lru_cache(maxsize=8)
def riesz_multipliers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only velocity multipliers (-i k2/|k|, i k1/|k|), built once per grid;
    zero at k=0 and on Nyquist lines.

    Nyquist rows/columns are self-conjugate, where an imaginary multiplier would
    break real-valuedness; dynamical fields live inside the dealiased band where
    this zeroing is vacuous.
    """
    kmag = np.sqrt(grid.k_sq)
    kmag[0, 0] = 1.0  # avoid 0/0; the zero mode is zeroed explicitly below
    m1 = -1j * grid.k2 / kmag
    m2 = 1j * grid.k1 / kmag
    for m in (m1, m2):
        m *= ~grid.nyquist_mask
        m[0, 0] = 0.0
        m.flags.writeable = False
    return m1, m2


def _require_mean_zero(theta: SpectralField, op: str) -> None:
    if not theta.is_mean_zero:
        raise ValueError(f"{op} requires a mean-zero field (Riesz multiplier is singular at k=0)")


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """u = R^perp theta: divergence-free velocity from the scalar field."""
    _require_mean_zero(theta, "riesz_velocity")
    m1, m2 = riesz_multipliers(theta.grid)
    return (SpectralField(theta.grid, m1 * theta.coeffs),
            SpectralField(theta.grid, m2 * theta.coeffs))


@lru_cache(maxsize=8)
def _kernel_multipliers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Read-only (m1, m2, d1, d2) for the kernel, built once per grid: the Riesz
    multipliers and, on the rfft2 half spectrum (columns k2 = 0 .. n2/2), the
    dealiased derivatives d_j = i k_j / (n1 n2), zero outside the 2/3 band."""
    h = grid.n2 // 2 + 1
    mask = grid.dealias_mask[:, :h]
    d1, d2 = (np.zeros(mask.shape, dtype=np.complex128) for _ in range(2))
    d1.imag, d2.imag = (np.where(mask, k / (grid.n1 * grid.n2), 0.0)
                        for k in (grid.k1, grid.k2[:, :h]))
    d1.flags.writeable = d2.flags.writeable = False
    return (*riesz_multipliers(grid), d1, d2)


def _nonlinear_raw(coeffs: np.ndarray, grid: GridSpec,
                   velocity_coeffs: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """div(theta u) coefficients (dealiased) plus max |u| on the grid.

    The velocity derives from `velocity_coeffs` when given (bilinear form),
    else from `coeffs` itself.
    """
    m1, m2, d1, d2 = _kernel_multipliers(grid)
    cv = coeffs if velocity_coeffs is None else velocity_coeffs
    theta_phys = to_physical(coeffs, grid)
    u1_phys = to_physical(m1 * cv, grid)
    u2_phys = to_physical(m2 * cv, grid)
    max_u = math.sqrt(float(np.max(u1_phys * u1_phys + u2_phys * u2_phys)))
    out = d1 * np.fft.rfft2(theta_phys * u1_phys)
    out += d2 * np.fft.rfft2(theta_phys * u2_phys)
    return full_spectrum(out, grid), max_u


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """Dealiased div(theta u_theta); equals u.grad(theta) since div u = 0."""
    _require_mean_zero(theta, "nonlinear_term")
    out, _ = _nonlinear_raw(theta.coeffs, theta.grid)
    return SpectralField(theta.grid, out)


def apply_semigroup(f: SpectralField, t: float, p: DissipParams) -> SpectralField:
    """exp(-t A(D)) f, the exact solution operator of the linear flow."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    decay = np.exp(-t * dissipation_multiplier(f.grid, p))
    return SpectralField(f.grid, decay * f.coeffs)
