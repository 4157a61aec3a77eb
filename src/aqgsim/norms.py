"""Norms as exact coefficient sums (Sobolev, directional, Gevrey-weighted) or
grid quadratures (Lp, scaled by the largest value so that any finite p stays in
range), in the normalized measure dx/(4 pi^2).

The coefficient sums (`_hs_norms`, `_hs_from_power`, `_hs_table`, `_gevrey_norm`)
take half arrays, a field's `half` or the solver's working arrays, and sum them
against `grid.half_sobolev_weight`, which counts each column with its
multiplicity, so each equals the sum over all modes.
`_hs_table` and `_lp_table` take many norms of one field in one pass, with the
bits of `_hs_from_power` and `_lp`.

The Gevrey weight exp((t/2) B(D)) has one exponent, `_gevrey_exponents`, and
one overflow policy: a saturated or non-finite norm reads as inf. Every
weighted norm in the package (the march trace, the Picard sups, the gevrey
report) goes through `_gevrey_norm`, and `_gevrey_norms` walks a node stack;
calibration, whose exponents stay below the cap, builds its weights once with
`_gevrey_weights` and applies them with `_weighted_hs_norms`, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SpectralField, half_sobolev_weight
from .operators import DissipParams, gevrey_multiplier

WEIGHT_CAP = 700.0  # keep exp() within double range; beyond it the norm saturates


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s norm with weight (1+|k|^2)^s, or the homogeneous |k|^{2s} sum (k=0 omitted)."""
    return _hs_norm(f.half, f.grid, s, homogeneous)


def _hs_norm(coeffs: np.ndarray, grid: GridSpec, s: float, homogeneous: bool = False) -> float:
    return float(_hs_norms(coeffs, grid, s, homogeneous))


def _hs_norms(coeffs: np.ndarray, grid: GridSpec, s: float,
              homogeneous: bool = False) -> np.ndarray:
    """H^s norms over the last two axes: of one half array, or of each node of a stack."""
    return _hs_from_power(np.abs(coeffs) ** 2, grid, s, homogeneous)


def _hs_from_power(power: np.ndarray, grid: GridSpec, s: float,
                   homogeneous: bool = False) -> np.ndarray:
    """_hs_norms from the power |c|^2, so that a caller taking many norms of one
    field forms it once."""
    w = half_sobolev_weight(grid, s, homogeneous)
    return np.sqrt((w * power).sum(axis=(-2, -1)))


def _hs_table(power: np.ndarray, grid: GridSpec, orders) -> dict:
    """{(s, homogeneous): _hs_from_power(power, grid, s, homogeneous)} of one
    power at each of `orders`, bit for bit, from one reduction: each weighted
    power is written into one row of a (len(orders), n1, n2/2 + 1) stack, and
    the rows are summed at once."""
    weights = [half_sobolev_weight(grid, s, homogeneous) for s, homogeneous in orders]
    stack = np.empty((len(weights), *power.shape))
    for row, w in zip(stack, weights):
        np.multiply(w, power, out=row)
    return dict(zip(orders, map(float, np.sqrt(stack.sum(axis=(-2, -1))))))


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm by grid quadrature of |f|^p in the normalized measure."""
    return _lp(np.abs(f.values()), p)


def vector_lp_norm(f1: SpectralField, f2: SpectralField, p: float) -> float:
    """L^p norm of the pointwise magnitude of the vector field (f1, f2)."""
    return _lp(np.sqrt(f1.values() ** 2 + f2.values() ** 2), p)


def _lp(v: np.ndarray, p: float) -> float:
    """mean(v^p)^(1/p) of values v >= 0 for finite p > 1, as m mean((v/m)^p)^(1/p)
    with m = max(v) so that no power over- or underflows; 0 when v vanishes."""
    return _lp_table(v, (p,))[p]


def _lp_table(v: np.ndarray, exponents) -> dict:
    """{p: _lp(v, p)} at each of `exponents`, with the max and the scaling by it
    taken once."""
    for p in exponents:
        if not 1.0 < p < math.inf:
            raise ValueError(f"Lebesgue exponent must be finite and exceed 1, got {p}")
    m = float(np.max(v))
    if m == 0.0:
        return dict.fromkeys(exponents, 0.0)
    r = v / m
    return {p: m * float(np.mean(r ** p) ** (1.0 / p)) for p in exponents}


def directional_seminorm(f: SpectralField, axis: int, exponent: float, s: float) -> float:
    """Homogeneous H^s norm of |d_axis|^exponent f."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    k = f.grid.k1 if axis == 1 else f.grid.half_k2
    return _hs_norm(np.abs(k) ** exponent * f.half, f.grid, s, True)


def gevrey_weighted_norm(f: SpectralField, t: float, s: float, p: DissipParams) -> float:
    """H^s norm of exp((t/2) B(D)) f; inf (not clipped) on weight overflow."""
    return _gevrey_norm(f.half, f.grid, t, s, p)


def _gevrey_norm(coeffs: np.ndarray, grid: GridSpec, t: float, s: float,
                 p: DissipParams) -> float:
    """gevrey_weighted_norm on bare coefficients.

    A weight exponent above WEIGHT_CAP on a nonzero mode, or a non-finite
    result, saturates the norm: it reads as inf. Zero modes carry no weight, so
    the live mask is built only when some exponent exceeds the cap.
    """
    if t < 0:
        raise ValueError(f"weight time must be nonnegative, got {t}")
    exponent = _gevrey_exponents(grid, (t,), p)[0]
    if not exponent.max() <= WEIGHT_CAP:  # also true for a NaN time
        live = coeffs != 0.0
        if np.any(live & (exponent > WEIGHT_CAP)):
            return math.inf
        exponent = np.where(live, exponent, 0.0)
    return float(_weighted_hs_norms(np.exp(exponent), coeffs, grid, s))


def _gevrey_exponents(grid: GridSpec, times, p: DissipParams) -> np.ndarray:
    """The weight exponents (t/2) B(k) on the half layout, one row per time."""
    return (0.5 * np.asarray(times, dtype=np.float64))[:, None, None] * gevrey_multiplier(grid, p)


def _gevrey_weights(grid: GridSpec, times, p: DissipParams) -> np.ndarray:
    """The weights exp((t/2) B(D)) that `_gevrey_norm` applies at each of
    `times`, bit for bit, as one (len(times), n1, n2/2 + 1) stack. An exponent
    above WEIGHT_CAP is a ValueError: there the norm's saturation depends on
    which modes are live, so no weight serves every field."""
    exponents = _gevrey_exponents(grid, times, p)
    if not exponents.max() <= WEIGHT_CAP:
        raise ValueError(f"a Gevrey weight exponent exceeds WEIGHT_CAP = {WEIGHT_CAP}")
    return np.exp(exponents)


def _weighted_hs_norms(weights: np.ndarray, coeffs: np.ndarray, grid: GridSpec,
                       s: float) -> np.ndarray:
    """H^s norms of weights * coeffs over the last two axes, with every weight
    row applied to the field (or the matching node of a stack) `coeffs`; a
    non-finite norm reads as inf."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf below
        values = _hs_norms(weights * coeffs, grid, s)
    return np.where(np.isfinite(values), values, math.inf)


def _gevrey_norms(coeffs: np.ndarray, grid: GridSpec, times: np.ndarray, s: float,
                  p: DissipParams) -> np.ndarray:
    """_gevrey_norm of each node of a stack, with weight time = node time."""
    return np.array([_gevrey_norm(c, grid, float(t), s, p) for c, t in zip(coeffs, times)])
