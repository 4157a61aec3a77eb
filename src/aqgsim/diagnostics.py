"""Measurable forms of the regularity statements: weighted-norm traces, fitted
analyticity rates, the H^2 smoothing check, the remark inequality chain, and the
parameter-plane classifier for the global-regularity condition."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import SpectralField, sobolev_weight
from .norms import _gevrey_norms, gevrey_weighted_norm, sobolev_norm
from .operators import DissipParams, gevrey_multiplier
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
            a0 = abs(f_0.coeffs[idx])
            at = abs(f_t.coeffs[idx])
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
class SmoothingReport:
    t0: float
    epsilon: float
    h2_at_t0: float
    weight_sup: float
    weight_bound_constant: float
    continuity_modulus: float
    node_spacing: float


def h2_smoothing_check(traj: Trajectory, t0: float, p: DissipParams, s: float) -> SmoothingReport:
    """H^2 norm at an interior time plus the per-mode weight bound behind it.

    Verifies sup_k (1+|k|^2)^{4-2s} exp(-(t0-eps) B(k)) is finite, reporting the
    observed supremum and its ratio to 1 + (t0-eps)^{-(8-4s)/a} + (t0-eps)^{-(8-4s)/b};
    the continuity modulus is measured against the neighboring nodes.
    """
    times = traj.times
    if not (times[0] < t0 < times[-1]):
        raise ValueError(f"t0={t0} must be interior to the trajectory span "
                         f"[{times[0]}, {times[-1]}]")
    i0 = int(np.argmin(np.abs(times - t0)))
    i0 = min(max(i0, 1), traj.n_nodes - 2)
    t_node = float(times[i0])
    eps = 0.5 * t_node
    grid = traj.grid
    B = gevrey_multiplier(grid, p)
    weight = sobolev_weight(grid, 4.0 - 2.0 * s) * np.exp(-(t_node - eps) * B)
    weight_sup = float(np.max(weight))
    margin = t_node - eps
    comparison = 1.0 + margin ** (-(8.0 - 4.0 * s) / p.alpha) \
        + margin ** (-(8.0 - 4.0 * s) / p.beta)
    f0 = traj.field(i0)
    modulus = max(sobolev_norm(traj.field(i0 - 1) - f0, 2.0),
                  sobolev_norm(traj.field(i0 + 1) - f0, 2.0))
    return SmoothingReport(t_node, eps, sobolev_norm(f0, 2.0), weight_sup,
                           weight_sup / comparison, modulus, traj.dt)


@dataclass(frozen=True)
class RemarkChainReport:
    prerequisite_ok: bool
    min_log_slack_lower: float
    max_log_slack_lower: float
    min_log_slack_upper: float
    max_log_slack_upper: float
    violations_lower: int
    violations_upper: int
    samples: int
    t_max: float

    @property
    def violations(self) -> int:
        return self.violations_lower + self.violations_upper


def remark_chain_check(p: DissipParams, T0: float, t_samples: int = 16,
                       T1: float | None = None, kmax: int = 128) -> RemarkChainReport:
    """Scan the two-sided weight comparison over a wavenumber lattice and
    sampled times t in [0, min(T0, T1)].

    In log space the claims are t(|k1|^a + |k2|^b) - t|k|^a + T0 >= 0 and
    T0 + 2t|k|^b - t(|k1|^a + |k2|^b) >= 0; violations are findings, not errors.
    """
    if T0 <= 0.0:
        raise ValueError("T0 must be positive")
    t_hi = min(T0, T1) if T1 is not None else T0
    kk = np.arange(-kmax, kmax + 1, dtype=float)
    k1 = kk[:, None]
    k2 = kk[None, :]
    mixed = np.abs(k1) ** p.alpha + np.abs(k2) ** p.beta
    iso_a = (k1**2 + k2**2) ** (0.5 * p.alpha)
    iso_b = (k1**2 + k2**2) ** (0.5 * p.beta)
    lo_min, lo_max = math.inf, -math.inf
    up_min, up_max = math.inf, -math.inf
    viol_lo = viol_up = 0
    samples = 0
    for t in np.linspace(0.0, t_hi, t_samples):
        slack_lo = t * mixed - t * iso_a + T0
        slack_up = T0 + 2.0 * t * iso_b - t * mixed
        lo_min = min(lo_min, float(np.min(slack_lo)))
        lo_max = max(lo_max, float(np.max(slack_lo)))
        up_min = min(up_min, float(np.min(slack_up)))
        up_max = max(up_max, float(np.max(slack_up)))
        viol_lo += int(np.count_nonzero(slack_lo < -1e-12))
        viol_up += int(np.count_nonzero(slack_up < -1e-12))
        samples += slack_lo.size
    return RemarkChainReport(p.alpha <= p.beta, lo_min, lo_max, up_min, up_max,
                             viol_lo, viol_up, samples, float(t_hi))


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
