"""Norms as exact coefficient sums (Sobolev, directional, Gevrey-weighted) or
grid quadratures (Lp, scaled by the largest value so that any finite p stays in
range), in the normalized measure dx/(4 pi^2).

The coefficient sums (`_hs_norms`, `_hs_table`, `_weighted_hs_norms`) take half
arrays, a field's `half` or the solver's working arrays, and sum them against
`grid.half_sobolev_weight`, which counts each column with its multiplicity, so
each equals the sum over all modes. `_hs_table` and `_lp_table` take many norms
of one field in one pass, with the bits of `_hs_norms` and `_lp`.

The Gevrey weight exp((t/2) B(D)) has one builder, `_gevrey_weights`, where a
mode whose exponent passes WEIGHT_CAP weighs inf, and one reduction,
`_weighted_hs_norms`, with one rule: a zero mode weighs nothing, and a live
mode of infinite weight, or an overflow, makes the norm read inf. Every
weighted norm in the package (the march trace, the Picard sups, the gevrey
report) pairs the two through `_gevrey_norms`; calibration keeps one weight
stack per parameter set for its horizons and applies it with
`_weighted_hs_norms`.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SpectralField, half_sobolev_weight
from .operators import DissipParams, gevrey_multiplier

WEIGHT_CAP = 700.0  # keep exp() within double range; beyond it a mode weighs inf


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s norm with weight (1+|k|^2)^s, or the homogeneous |k|^{2s} sum (k=0 omitted)."""
    return _hs_norm(f.half, f.grid, s, homogeneous)


def _hs_norm(coeffs: np.ndarray, grid: GridSpec, s: float, homogeneous: bool = False) -> float:
    return float(_hs_norms(coeffs, grid, s, homogeneous))


def _hs_norms(coeffs: np.ndarray, grid: GridSpec, s: float,
              homogeneous: bool = False) -> np.ndarray:
    """H^s norms over the last two axes: of one half array, or of each node of a stack."""
    w = half_sobolev_weight(grid, s, homogeneous)
    return np.sqrt((w * np.abs(coeffs) ** 2).sum(axis=(-2, -1)))


def _hs_table(power: np.ndarray, grid: GridSpec, orders) -> dict:
    """{(s, homogeneous): _hs_norms(c, grid, s, homogeneous)} at each of
    `orders`, bit for bit, from the power |c|^2 of the coefficients c in one
    reduction: each weighted power is written into one row of a
    (len(orders), n1, n2/2 + 1) stack, and the rows are summed at once."""
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
    return float(_gevrey_norms(f.half, f.grid, (t,), s, p)[0])


def _gevrey_weights(grid: GridSpec, times, p: DissipParams) -> np.ndarray:
    """The weights exp((t/2) B(D)) at each of `times` >= 0, as one
    (len(times), n1, n2/2 + 1) stack. A mode whose exponent passes WEIGHT_CAP
    weighs inf; the capped exponent is formed only when some exponent does."""
    if any(t < 0.0 for t in times):
        raise ValueError(f"weight time must be nonnegative, got {min(times)}")
    exponents = np.multiply.outer(np.multiply(0.5, times), gevrey_multiplier(grid, p))
    if not exponents.max() <= WEIGHT_CAP:  # also true for a NaN time
        exponents[exponents > WEIGHT_CAP] = math.inf
    return np.exp(exponents)


def _weighted_hs_norms(weights: np.ndarray, coeffs: np.ndarray, grid: GridSpec,
                       s: float) -> np.ndarray:
    """H^s norms of weights * coeffs over the last two axes, with every weight
    row applied to the field (or the matching node of a stack) `coeffs`. A zero
    mode weighs nothing; a live mode of infinite weight, or an overflow, makes
    the norm read inf. The zero modes are masked only when a norm comes out
    non-finite, the one case where their weight can matter."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm reads as inf below
        values = _hs_norms(weights * coeffs, grid, s)
        if np.isfinite(values).all():
            return values
        values = _hs_norms(np.where(coeffs != 0.0, weights * coeffs, 0.0), grid, s)
    return np.where(np.isfinite(values), values, math.inf)


def _gevrey_norms(coeffs: np.ndarray, grid: GridSpec, times, s: float,
                  p: DissipParams) -> np.ndarray:
    """Gevrey-weighted H^s norms: of the half array `coeffs` at each of `times`,
    or of each node of a stack at its own time. A stack is weighted node by
    node, so no weight stack of its size is built."""
    if coeffs.ndim == 2:
        return _weighted_hs_norms(_gevrey_weights(grid, times, p), coeffs, grid, s)
    return np.array([_gevrey_norms(c, grid, (t,), s, p)[0] for c, t in zip(coeffs, times)])
