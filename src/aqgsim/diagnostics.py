"""Measurable forms of the regularity statements: weighted-norm traces, fitted
analyticity rates, the Gevrey report of a run, and the parameter-plane
classifier for the global-regularity condition. The scalar claims behind the
smoothing step (the weight comparison and the H^2 weight bound) are checked in
`lemmas.scalar_inequality_suite`."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import SpectralField
from .norms import _gevrey_norms, gevrey_weighted_norm, sobolev_norm
from .operators import DissipParams
from .solver import Trajectory

NOISE_FLOOR = 1e-14
MIN_FIT_MODES = 5


class Region(enum.Enum):
    Y1 = "Y1"
    Y2 = "Y2"
    Y3 = "Y3"
    OUTSIDE = "outside"


def region_classify(alpha: float, beta: float) -> Region:
    """Locate (alpha, beta) in the global-regularity parameter plane.

    Y1 = (1/2,1)^2; Y2: alpha in (1/2,1), beta in ((1-alpha)/(2 alpha), 1/2];
    Y3: alpha in (0,1/2], beta in (1/(2 alpha + 1), 1); otherwise outside.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError(f"(alpha, beta) must lie in the open unit square, got ({alpha}, {beta})")
    if alpha > 0.5:
        if beta > 0.5:
            return Region.Y1
        if beta > (1.0 - alpha) / (2.0 * alpha):
            return Region.Y2
        return Region.OUTSIDE
    if beta > 1.0 / (2.0 * alpha + 1.0):
        return Region.Y3
    return Region.OUTSIDE


def weighted_norm_trace(traj: Trajectory, p: DissipParams, s: float) -> np.ndarray:
    """Gevrey-weighted H^s norm at every node, with weight time = node time."""
    return _gevrey_norms(traj.coeffs, traj.grid, traj.times, s, p)


@dataclass(frozen=True)
class RateFit:
    rate1: float | None
    rate2: float | None
    residual1: float
    residual2: float
    n_modes1: int
    n_modes2: int

    @property
    def fitted(self) -> bool:
        return self.rate1 is not None and self.rate2 is not None


def analyticity_radius_fit(f_t: SpectralField, f_0: SpectralField,
                           p: DissipParams) -> RateFit:
    """Least-squares decay rates of log|f_t/f_0| against -|k1|^{2a} / -|k2|^{2b}
    along the coordinate axes; axes without enough live modes come back unfit.
    Under the linear flow over an elapsed time t the rates are (mu t, nu t)."""
    if f_t.grid != f_0.grid:
        raise ValueError("fields must share a grid")
    grid = f_t.grid

    def fit_axis(axis: int):
        kmax = (grid.n1 if axis == 1 else grid.n2) // 3
        exponent = 2.0 * (p.alpha if axis == 1 else p.beta)
        xs, ys = [], []
        for k in range(1, kmax + 1):
            idx = (k, 0) if axis == 1 else (0, k)
            a0 = abs(f_0.half[idx])
            at = abs(f_t.half[idx])
            if a0 > NOISE_FLOOR and at > NOISE_FLOOR:
                xs.append(float(k) ** exponent)
                ys.append(math.log(at) - math.log(a0))
        if len(xs) < MIN_FIT_MODES:
            return None, float("nan"), len(xs)
        x = np.asarray(xs)
        y = np.asarray(ys)
        design = np.column_stack([x, np.ones_like(x)])
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.max(np.abs(design @ sol - y)))
        return -float(sol[0]), resid, len(xs)

    r1, res1, n1 = fit_axis(1)
    r2, res2, n2 = fit_axis(2)
    return RateFit(r1, r2, res1, res2, n1, n2)


@dataclass(frozen=True)
class GevreyReport:
    """Weighted-norm trace (inf where the weight saturates), per-field rate fits,
    and the H^2 record of a run."""

    times: np.ndarray
    weighted_hs: np.ndarray
    h2_trace: np.ndarray
    fits: list[RateFit]


def build_gevrey_report(times, fields: list[SpectralField], p: DissipParams,
                        s: float) -> GevreyReport:
    """Gevrey-weighted H^s norm (weight time t), H^2 norm and decay-rate fit of
    each field at its time t; the rates are fitted against the first field,
    over the elapsed time t - times[0]. Times must be nondecreasing."""
    times = np.asarray(times, dtype=np.float64)
    if len(fields) != times.size or np.any(np.diff(times) < 0.0):
        raise ValueError("gevrey report needs one field per time, times nondecreasing")
    wtrace = np.array([gevrey_weighted_norm(f, float(t), s, p) for f, t in zip(fields, times)])
    fits = [analyticity_radius_fit(f, fields[0], p) for f in fields]
    h2 = np.array([sobolev_norm(f, 2.0) for f in fields])
    return GevreyReport(times, wtrace, h2, fits)
