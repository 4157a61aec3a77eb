"""Constructive core: existence-time conditions, the Duhamel bilinear operator,
plain and Gevrey-weighted Picard iterations, the second-order exponential (ETD2RK)
march with step-doubling error control, and checkpoint-based continuation.

The fixed-point map is psi(theta) = L0 - B(theta, theta) on a uniform time grid,
with L0 the semigroup trajectory of the initial data and B the Duhamel integral
of the dealiased nonlinearity, discretized by the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridSpec, SpectralField, sobolev_weight, to_physical
from .norms import GevreyNorm, _gevrey_norm, gevrey_weighted_norm, sobolev_norm
from .operators import (DissipParams, dissipation_multiplier, gevrey_multiplier,
                        riesz_multipliers, _nonlinear_raw)

LOG_3_2 = math.log(1.5)


# ---------------------------------------------------------------------------
# existence-time conditions
# ---------------------------------------------------------------------------


def solve_time_condition(exponents, bound: float, with_exp_factor: bool = False) -> float:
    """Largest T >= 0 with sum_i T^{a_i} (optionally times e^T) <= bound.

    Bisection on the left side to relative precision 1e-12. With a nonpositive
    exponent (outside the guaranteed regime) the left side is not monotone; the
    admissible set is then located from its interior minimum, and 0 is returned
    when it is empty.
    """
    exponents = [float(a) for a in exponents]
    if not exponents:
        raise ValueError("need at least one exponent")
    if bound <= 0.0:
        return 0.0
    if math.isinf(bound):
        return math.inf

    def g(t: float) -> float:
        total = sum(t**a for a in exponents)
        if with_exp_factor:
            return math.inf if t > 700.0 else total * math.exp(t)
        return total

    if min(exponents) > 0.0:
        lo = 0.0
        hi = 1.0
    else:
        # locate the interior minimum of g on a log grid, then walk right
        ts = np.logspace(-16, 16, 2000)
        vals = np.array([g(float(t)) for t in ts])
        i_min = int(np.argmin(vals))
        if vals[i_min] > bound:
            return 0.0
        lo = float(ts[i_min])
        hi = lo * 2.0
    for _ in range(200):
        if g(hi) > bound:
            break
        hi *= 2.0
    else:
        return hi
    for _ in range(200):
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
        mid = 0.5 * (lo + hi)
        if g(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class ConstantsTable:
    """Calibrated (or user-supplied) values of the implicit estimate constants."""

    C1: float
    C2: float
    C3: float
    C4: float

    def __post_init__(self):
        for name in ("C1", "C2", "C3", "C4"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def _step1_exponents(p: DissipParams) -> list[float]:
    return [(p.s - 2.0 + 2.0 * p.alpha) / (2.0 * p.alpha),
            (p.s - 2.0 + 2.0 * p.beta) / (2.0 * p.beta)]


def _step2_exponents(p: DissipParams) -> list[float]:
    return [(2.0 * p.alpha - 1.0) / (2.0 * p.alpha),
            (2.0 * p.beta - 1.0) / (2.0 * p.beta),
            (2.0 * p.alpha - 1.0) / (4.0 * p.alpha),
            (4.0 * p.beta - 2.0 * p.alpha - 1.0) / (4.0 * p.beta)]


def existence_time(theta0_norm: float, p: DissipParams, c: ConstantsTable,
                   weighted: bool = False) -> float:
    """Largest horizon satisfying every applicable smallness condition.

    Plain mode intersects the low-regularity condition with (for s >= 1) the
    four-term condition. Weighted mode additionally multiplies the left sides
    by e^T, requires e^T < 3/2, and caps the result by the plain horizon.
    """
    if theta0_norm < 0.0:
        raise ValueError("theta0_norm must be nonnegative")
    if theta0_norm == 0.0:
        return math.inf
    p.warn_if_unguaranteed()
    candidates = [solve_time_condition(_step1_exponents(p),
                                       1.0 / (8.0 * c.C1 * theta0_norm))]
    if p.s >= 1.0:
        candidates.append(solve_time_condition(_step2_exponents(p),
                                               1.0 / (8.0 * c.C2 * theta0_norm)))
    t_plain = min(candidates)
    if not weighted:
        return t_plain
    weighted_candidates = [
        solve_time_condition(_step1_exponents(p), 1.0 / (8.0 * c.C3 * theta0_norm),
                             with_exp_factor=True)]
    if p.s >= 1.0:
        weighted_candidates.append(
            solve_time_condition(_step2_exponents(p), 1.0 / (8.0 * c.C4 * theta0_norm),
                                 with_exp_factor=True))
    return min(t_plain, LOG_3_2 * (1.0 - 1e-12), *weighted_candidates)


# ---------------------------------------------------------------------------
# trajectories and the Duhamel operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Fields on a uniform time grid, stored as one (n_nodes, n1, n2) stack."""

    grid: GridSpec
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (times.size, *self.grid.shape):
            raise ValueError("trajectory stack does not match times/grid")
        if times.size < 2:
            raise ValueError("trajectory needs at least two nodes")
        dt = np.diff(times)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("trajectory time grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_nodes(self) -> int:
        return int(self.times.size)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def fields(self) -> list[SpectralField]:
        return [self.field(i) for i in range(self.n_nodes)]

    def hs_norms(self, s: float) -> np.ndarray:
        return _hs_norms(self.coeffs, self.grid, s)

    def sup_hs(self, s: float) -> float:
        return float(np.max(self.hs_norms(s)))


def _hs_norms(stack: np.ndarray, grid: GridSpec, s: float) -> np.ndarray:
    """H^s norm of every node of an (n_nodes, n1, n2) coefficient stack."""
    return np.sqrt(np.sum(sobolev_weight(grid, s) * np.abs(stack) ** 2, axis=(1, 2)))


def time_grid(T: float, n_nodes: int) -> np.ndarray:
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    if n_nodes < 2:
        raise ValueError("need at least two time nodes")
    return np.linspace(0.0, T, n_nodes)


def constant_trajectory(f: SpectralField, times: np.ndarray) -> Trajectory:
    stack = np.broadcast_to(f.coeffs, (len(times), *f.grid.shape)).copy()
    return Trajectory(f.grid, times, stack)


def semigroup_trajectory(theta0: SpectralField, times: np.ndarray,
                         p: DissipParams) -> Trajectory:
    """L0: exact linear evolution of theta0 sampled on the time grid."""
    A = dissipation_multiplier(theta0.grid, p)
    stack = np.exp(-np.asarray(times)[:, None, None] * A) * theta0.coeffs
    return Trajectory(theta0.grid, np.asarray(times, dtype=float), stack)


def _duhamel_sum(N: np.ndarray, dt: float, grid: GridSpec, p: DissipParams) -> np.ndarray:
    """Trapezoid Duhamel sum out[i] = dt sum_j'' exp(-(i-j) dt A) N[j] over nodes 0..i.

    Evaluated by the exact recursion out[i] = E out[i-1] + (dt/2)(E N[i-1] + N[i])
    with E = exp(-dt A), in time linear in the number of nodes.
    """
    E = np.exp(-dt * dissipation_multiplier(grid, p))
    out = np.zeros(N.shape, dtype=np.complex128)
    for i in range(1, N.shape[0]):
        out[i] = E * out[i - 1] + 0.5 * dt * (E * N[i - 1] + N[i])
    return out


def duhamel_bilinear(traj1: Trajectory, traj2: Trajectory, p: DissipParams) -> Trajectory:
    """B(theta1, theta2): trapezoid-in-time Duhamel integral of the nonlinearity."""
    if traj1.grid != traj2.grid:
        raise ValueError("mismatched grids in duhamel_bilinear")
    if traj1.n_nodes != traj2.n_nodes or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("mismatched time grids in duhamel_bilinear")
    grid = traj1.grid
    mean_scale = max(1.0, float(np.max(np.abs(traj1.coeffs))), float(np.max(np.abs(traj2.coeffs))))
    if max(np.max(np.abs(traj1.coeffs[:, 0, 0])), np.max(np.abs(traj2.coeffs[:, 0, 0]))) \
            > 1e-12 * mean_scale:
        raise ValueError("duhamel_bilinear requires mean-zero trajectories")
    # div(theta1(tau) u_{theta2(tau)}) per node
    N = np.empty_like(traj1.coeffs)
    for j in range(traj1.n_nodes):
        N[j], _ = _nonlinear_raw(traj1.coeffs[j], grid, velocity_coeffs=traj2.coeffs[j])
    return Trajectory(grid, traj1.times, _duhamel_sum(N, traj1.dt, grid, p))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    T: float
    n_nodes: int = 64
    max_iter: int = 60
    tol: float = 1e-10
    weighted: bool = False
    allow_beyond_horizon: bool = False

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("PicardConfig.T must be positive")
        if self.tol <= 0.0:
            raise ValueError("PicardConfig.tol must be positive")
        if self.n_nodes < 2:
            raise ValueError("PicardConfig.n_nodes must be >= 2")


@dataclass(frozen=True)
class BallCheck:
    sup_hs: float
    bound: float
    within: bool
    weighted_sup: float | None = None
    weighted_within: bool | None = None


@dataclass(frozen=True)
class PicardReport:
    converged: bool
    iterations: int
    distances: list[float]
    contraction_ratios: list[float]
    ball_radius_check: BallCheck
    trajectory: Trajectory
    theta0_norm: float
    existence_horizon: float
    within_guaranteed_horizon: bool
    constants: ConstantsTable
    weighted_existence_horizon: float | None = None
    weighted_trace: list[GevreyNorm] | None = None
    weight_domination_slack: float | None = None
    note: str = ""


def weight_domination_slack(p: DissipParams, T: float, grid: GridSpec,
                            n_t: int = 64) -> float:
    """max over retained modes and t in [0, T] of (t/2)B(k) - t A(k) - t.

    Nonpositive iff the weighted semigroup obeys exp((t/2)B - tA) <= e^t mode-wise
    (exact when mu = nu = 1, from A - B >= -2).
    """
    A = dissipation_multiplier(grid, p)
    B = gevrey_multiplier(grid, p)
    ts = np.linspace(0.0, T, n_t)[:, None, None]
    return float(np.max(ts * (0.5 * B - A - 1.0)))


def picard_solve(theta0: SpectralField, cfg: PicardConfig, p: DissipParams,
                 c: ConstantsTable) -> PicardReport:
    """Iterate psi(theta) = L0 - B(theta, theta) to the discrete mild solution."""
    return _picard_engine(theta0, cfg, p, c, weighted=False)


def weighted_picard_solve(theta0: SpectralField, cfg: PicardConfig, p: DissipParams,
                          c: ConstantsTable) -> PicardReport:
    """Same iteration, additionally tracking the Gevrey-weighted norm and the
    Step-2 ball membership of every node of the converged trajectory."""
    return _picard_engine(theta0, cfg, p, c, weighted=True)


def _picard_engine(theta0: SpectralField, cfg: PicardConfig, p: DissipParams,
                   c: ConstantsTable, weighted: bool) -> PicardReport:
    if not theta0.is_mean_zero:
        raise ValueError("picard_solve requires mean-zero initial data")
    grid = theta0.grid
    s = p.s
    norm0 = sobolev_norm(theta0, s)
    horizon = existence_time(norm0, p, c, weighted=weighted)
    weighted_horizon = horizon if weighted else None
    within = cfg.T <= horizon * (1.0 + 1e-12)
    note = ""
    if not within:
        if not cfg.allow_beyond_horizon:
            raise ValueError(
                f"requested horizon T={cfg.T} exceeds guaranteed existence time "
                f"{horizon:.6g}; set allow_beyond_horizon to override")
        note = "outside guaranteed ball"

    times = time_grid(cfg.T, cfg.n_nodes)
    if norm0 == 0.0:
        traj = constant_trajectory(theta0, times)
        ball = BallCheck(0.0, 0.0, True,
                         weighted_sup=0.0 if weighted else None,
                         weighted_within=True if weighted else None)
        return PicardReport(True, 0, [], [], ball, traj, 0.0, horizon, within, c,
                            weighted_existence_horizon=weighted_horizon,
                            weighted_trace=[GevreyNorm(0.0, False, None)] * cfg.n_nodes
                            if weighted else None,
                            weight_domination_slack=None, note=note)

    L0 = semigroup_trajectory(theta0, times, p)
    current = L0.coeffs.copy()
    sup_hs_all = float(np.max(_hs_norms(current, grid, s)))
    weighted_sup_all = _weighted_sup(grid, times, current, p, s) if weighted else None

    distances: list[float] = []
    converged = False
    growth_streak = 0
    iterations = 0
    for _ in range(cfg.max_iter):
        B = duhamel_bilinear(Trajectory(grid, times, current),
                             Trajectory(grid, times, current), p)
        new = L0.coeffs - B.coeffs
        iterations += 1
        d = float(np.max(_hs_norms(new - current, grid, s)))
        distances.append(d)
        current = new
        sup_hs_all = max(sup_hs_all, float(np.max(_hs_norms(current, grid, s))))
        if weighted:
            weighted_sup_all = max(weighted_sup_all,
                                   _weighted_sup(grid, times, current, p, s))
        if d < cfg.tol:
            converged = True
            break
        if len(distances) >= 2 and d > distances[-2]:
            growth_streak += 1
            if growth_streak >= 3:
                note = (note + "; " if note else "") + "diverging distances"
                break
        else:
            growth_streak = 0

    ratios = [distances[i + 1] / distances[i]
              for i in range(len(distances) - 1) if distances[i] > 0.0]
    bound = 2.0 * norm0
    traj = Trajectory(grid, times, current)
    wtrace = None
    wslack = None
    if weighted:
        wtrace = [gevrey_weighted_norm(traj.field(i), float(times[i]), s, p)
                  for i in range(traj.n_nodes)]
        wslack = weight_domination_slack(p, cfg.T, grid)
    ball = BallCheck(sup_hs_all, bound, sup_hs_all <= bound * (1.0 + 1e-9),
                     weighted_sup=weighted_sup_all,
                     weighted_within=(weighted_sup_all <= bound * (1.0 + 1e-9))
                     if weighted else None)
    return PicardReport(converged, iterations, distances, ratios, ball, traj,
                        norm0, horizon, within, c,
                        weighted_existence_horizon=weighted_horizon,
                        weighted_trace=wtrace, weight_domination_slack=wslack,
                        note=note)


def _weighted_sup(grid: GridSpec, times: np.ndarray, coeffs: np.ndarray,
                  p: DissipParams, s: float) -> float:
    B = gevrey_multiplier(grid, p)
    w = sobolev_weight(grid, s)
    worst = 0.0
    for i, t in enumerate(times):
        weighted = np.exp(0.5 * float(t) * B) * coeffs[i]
        worst = max(worst, float(np.sqrt(np.sum(w * np.abs(weighted) ** 2))))
    return worst


# ---------------------------------------------------------------------------
# constant calibration
# ---------------------------------------------------------------------------

_CALIBRATION_HORIZONS = (0.25, 0.5, 1.0, 2.0)


def calibrate_constants(p: DissipParams, n_samples: int = 16, seed: int = 0,
                        grid: GridSpec | None = None, kmax: int = 10,
                        spectrum_slope: float = 2.0, n_nodes: int = 33,
                        return_details: bool = False):
    """Estimate C1..C4 as 2x the worst observed left/right ratio of the
    corresponding bilinear estimate over random band-limited field pairs.

    Deterministic given the seed; sample k of a larger run reuses sample k of a
    smaller one, so enlarging n_samples can only increase the estimates.
    """
    from .lemmas import FieldEnsembleSpec, random_band_limited_field

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grid = grid or GridSpec(64, 64)
    spec = FieldEnsembleSpec(grid, seed=seed, count=2 * n_samples, kmax=kmax,
                             spectrum_slope=spectrum_slope)
    s = p.s
    m1, m2 = riesz_multipliers(grid)
    ratios = {"C1": 0.0, "C2": 0.0, "C3": 0.0, "C4": 0.0}
    cz_worst = 0.0
    for i in range(n_samples):
        f = random_band_limited_field(spec, 2 * i)
        g = random_band_limited_field(spec, 2 * i + 1)
        nf, ng = sobolev_norm(f, s), sobolev_norm(g, s)
        cz_worst = max(cz_worst, abs(
            math.sqrt(float(np.sum((np.abs(m1 * f.coeffs) ** 2 + np.abs(m2 * f.coeffs) ** 2))))
            / math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2))) - 1.0))
        # f and g are constant in time, so one nonlinear evaluation serves every
        # node of every horizon
        Nfg, _ = _nonlinear_raw(f.coeffs, grid, velocity_coeffs=g.coeffs)
        N = np.broadcast_to(Nfg, (n_nodes, *grid.shape))
        for T in _CALIBRATION_HORIZONS:
            times = time_grid(T, n_nodes)
            # for constant N every mode of the Duhamel sum grows with the node
            # index, and so does exp((t/2)B): every sup below is at the last node
            B = _duhamel_sum(N, float(times[1] - times[0]), grid, p)[-1:]
            lhs_plain = float(_hs_norms(B, grid, s)[0])
            g1 = sum(T**a for a in _step1_exponents(p))
            g2 = sum(T**a for a in _step2_exponents(p))
            ratios["C1"] = max(ratios["C1"], lhs_plain / (g1 * nf * ng))
            if g2 > 0.0:
                ratios["C2"] = max(ratios["C2"], lhs_plain / (g2 * nf * ng))
            # weighted form: weight both the output and the input factors
            lhs_w = _weighted_sup(grid, times[-1:], B, p, s)
            nfw = _weighted_sup(grid, times[-1:], f.coeffs[None], p, s)
            ngw = _weighted_sup(grid, times[-1:], g.coeffs[None], p, s)
            eT = math.exp(T)
            ratios["C3"] = max(ratios["C3"], lhs_w / (eT * g1 * nfw * ngw))
            if g2 > 0.0:
                ratios["C4"] = max(ratios["C4"], lhs_w / (eT * g2 * nfw * ngw))
    table = ConstantsTable(*(2.0 * max(ratios[k], 1e-12) for k in ("C1", "C2", "C3", "C4")))
    if return_details:
        return table, {"max_ratios": ratios, "cz_p2_deviation": cz_worst,
                       "n_samples": n_samples, "seed": seed}
    return table


# ---------------------------------------------------------------------------
# long-time march (second-order exponential integrator ETD2RK, step doubling)
# ---------------------------------------------------------------------------

def phi2(x: np.ndarray, expm1_neg: np.ndarray | None = None) -> np.ndarray:
    """phi_2(x) = (e^-x - 1 + x) / x^2 elementwise for x >= 0, with phi_2(0) = 1/2.

    Below x = 0.1 the closed form loses about 2e-16/x relative to cancellation
    in expm1(-x) + x, so a ten-term Taylor series is summed at those entries
    instead. A caller that already holds expm1(-x) passes it as `expm1_neg`.
    """
    em1 = np.expm1(-x) if expm1_neg is None else expm1_neg
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (em1 + x) / (x * x)
    series = [(-1) ** k / math.factorial(k + 2) for k in range(9, -1, -1)]
    small = x < 0.1
    out[small] = np.polyval(series, x[small])
    return out


@dataclass
class DiagnosticsTrace:
    """Per-node diagnostics along a march; columns match the trace CSV schema."""

    t: list[float] = dc_field(default_factory=list)
    l2: list[float] = dc_field(default_factory=list)
    hs: list[float] = dc_field(default_factory=list)
    h2: list[float] = dc_field(default_factory=list)
    gevrey_hs: list[float] = dc_field(default_factory=list)
    diss1: list[float] = dc_field(default_factory=list)
    diss2: list[float] = dc_field(default_factory=list)
    max_u: list[float] = dc_field(default_factory=list)
    dt: list[float] = dc_field(default_factory=list)
    gevrey_saturated: list[bool] = dc_field(default_factory=list)
    diss_integral: list[float] = dc_field(default_factory=list)
    aborted: bool = False
    abort_reason: str | None = None

    CSV_HEADER = "t,l2,hs,h2,gevrey_hs,diss1,diss2,max_u,dt"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for i in range(len(self.t)):
            row = (self.t[i], self.l2[i], self.hs[i], self.h2[i], self.gevrey_hs[i],
                   self.diss1[i], self.diss2[i], self.max_u[i], self.dt[i])
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EvolveResult:
    trace: DiagnosticsTrace
    final: SpectralField
    t_final: float
    aborted: bool = False
    abort_reason: str | None = None
    rejected_steps: int = 0


def evolve(theta0: SpectralField, T: float, p: DissipParams, cfl: float = 0.4, *,
           nonlinear: bool = True, rtol: float = 1e-8, atol: float = 1e-12,
           dt_init: float | None = None, dt_max: float | None = None,
           dt_fixed: float | None = None, trace_stride: int = 1,
           checkpoint_times=(), on_checkpoint=None, t_offset: float = 0.0) -> EvolveResult:
    """March the flow to time T with ETD2RK (Cox & Matthews 2002), exact in the
    linear decay and second order in the dealiased nonlinearity, as two half
    steps per step of size dt; error control (off when dt_fixed is given) compares
    them with one full step in H^s. Initial data is projected onto the dealiased band.

    Trace times are reported as t_offset + t; checkpoint_times are in the same
    offset clock and trigger on_checkpoint(t_global, SpectralField) exactly at
    those times.
    """
    if T <= 0.0:
        raise ValueError("evolve horizon must be positive")
    if not theta0.is_mean_zero:
        raise ValueError("evolve requires mean-zero initial data")
    grid = theta0.grid
    s = p.s
    A = dissipation_multiplier(grid, p)
    m1, m2 = riesz_multipliers(grid)
    w_s = sobolev_weight(grid, s)
    w_2 = sobolev_weight(grid, 2.0)
    d1 = np.abs(grid.k1) ** (2.0 * p.alpha)
    d2 = np.abs(grid.k2) ** (2.0 * p.beta)

    def hs_of(c):
        return float(np.sqrt(np.sum(w_s * np.abs(c) ** 2)))

    def diss_rate(c):
        m = np.abs(c) ** 2
        return 2.0 * float(p.mu * np.sum(d1 * m) + p.nu * np.sum(d2 * m))

    def propagators(dt):
        a = dt * A
        em1 = np.expm1(-a)
        W = np.where(A > 0.0, -em1 / np.where(A > 0.0, A, 1.0), dt)
        return np.exp(-a), W, dt * phi2(a, em1)

    def rhs(c):
        # overflow here surfaces as a non-finite state and triggers the abort path
        with np.errstate(over="ignore", invalid="ignore"):
            if not nonlinear:
                return None, _max_velocity(c, grid, m1, m2)
            Nc, mu = _nonlinear_raw(c, grid)
            return -Nc, mu

    def etd2rk(c, N_c, E, W, P):
        with np.errstate(over="ignore", invalid="ignore"):
            a = E * c + W * N_c
            return a + P * (rhs(a)[0] - N_c)

    trace = DiagnosticsTrace()
    cps = sorted(float(x) - t_offset for x in checkpoint_times)
    cps = [x for x in cps if 1e-14 < x <= T * (1.0 + 1e-12)]

    c = np.where(grid.dealias_mask, theta0.coeffs, 0.0)
    t = 0.0
    N_c, max_u = rhs(c)
    diss_int = 0.0
    dt_ceiling = dt_max if dt_max is not None else T
    if dt_fixed is not None:
        dt_prop = dt_fixed
    elif dt_init is not None:
        dt_prop = dt_init
    else:
        # the linear factor is exact, so without a nonlinearity any step works
        dt_prop = dt_ceiling if not nonlinear else min(1e-3, dt_ceiling)
    _record(trace, grid, p, s, w_s, w_2, d1, d2, t + t_offset, c, max_u, dt_prop, diss_int)

    steps_since_trace = 0
    aborted = False
    reason = None
    propagated_dt = None
    rejected = 0

    while t < T * (1.0 - 1e-12):
        remaining = T - t
        dt = dt_prop if dt_fixed is None else dt_fixed
        dt = min(dt, dt_ceiling)
        if nonlinear and max_u > 0.0 and dt_fixed is None:
            dt = min(dt, cfl * grid.dx / max_u)
        hit_cp = False
        if cps and t + dt >= cps[0] * (1.0 - 1e-12):
            dt = cps[0] - t
            hit_cp = True
        elif remaining <= dt * (1.0 + 1e-9):
            dt = remaining
        elif dt_fixed is None and t + 2.0 * dt > (cps[0] if cps else T):
            # split the way to the next target evenly rather than leave a sliver
            dt = 0.5 * ((cps[0] if cps else T) - t)
        if dt <= 0.0 or not math.isfinite(dt):
            aborted, reason = True, f"step size collapsed (dt={dt})"
            break

        if propagated_dt != dt:
            prop_full, prop_half = propagators(dt), propagators(0.5 * dt)
            propagated_dt = dt

        if nonlinear:
            half = etd2rk(c, N_c, *prop_half)
            fine = etd2rk(half, rhs(half)[0], *prop_half)
        else:
            half = prop_half[0] * c
            fine = prop_half[0] * half

        if not np.all(np.isfinite(fine.view(np.float64))):
            aborted, reason = True, f"non-finite state at t={t + t_offset:.6g}"
            break

        if dt_fixed is None and nonlinear:
            err = hs_of(fine - etd2rk(c, N_c, *prop_full))
            scale = atol + rtol * hs_of(fine)
            factor = 0.9 * (scale / max(err, 1e-300)) ** (1.0 / 3.0)
            if err > scale and dt > 1e-13 * max(T, 1.0):
                dt_prop = dt * max(0.2, factor)
                rejected += 1
                continue
            dt_prop = dt * min(5.0, max(0.2, factor))

        diss_int += dt / 6.0 * (diss_rate(c) + 4.0 * diss_rate(half) + diss_rate(fine))
        c = fine
        t += dt
        N_c, max_u = rhs(c)
        steps_since_trace += 1
        at_cp = hit_cp or (cps and abs(t - cps[0]) <= 1e-12 * max(1.0, cps[0]))
        if at_cp and cps:
            cps.pop(0)
            if on_checkpoint is not None:
                on_checkpoint(t + t_offset, SpectralField(grid, c))
        done = t >= T * (1.0 - 1e-12)
        if steps_since_trace >= trace_stride or done or at_cp:
            _record(trace, grid, p, s, w_s, w_2, d1, d2, t + t_offset, c, max_u, dt, diss_int)
            steps_since_trace = 0

    trace.aborted, trace.abort_reason = aborted, reason
    return EvolveResult(trace, SpectralField(grid, c), t + t_offset, aborted, reason, rejected)


def _max_velocity(c: np.ndarray, grid: GridSpec, m1: np.ndarray, m2: np.ndarray) -> float:
    u1 = to_physical(m1 * c, grid)
    u2 = to_physical(m2 * c, grid)
    return float(np.max(np.sqrt(u1**2 + u2**2)))


def _record(trace: DiagnosticsTrace, grid: GridSpec, p: DissipParams, s: float,
            w_s: np.ndarray, w_2: np.ndarray, d1: np.ndarray, d2: np.ndarray,
            t: float, c: np.ndarray, max_u: float, dt: float, diss_int: float) -> None:
    mod2 = np.abs(c) ** 2
    trace.t.append(float(t))
    trace.l2.append(float(np.sqrt(np.sum(mod2))))
    trace.hs.append(float(np.sqrt(np.sum(w_s * mod2))))
    trace.h2.append(float(np.sqrt(np.sum(w_2 * mod2))))
    g = _gevrey_norm(c, grid, max(t, 0.0), s, p)
    trace.gevrey_hs.append(g.value)
    trace.gevrey_saturated.append(g.saturated)
    trace.diss1.append(float(np.sqrt(np.sum(d1 * mod2))))
    trace.diss2.append(float(np.sqrt(np.sum(d2 * mod2))))
    trace.max_u.append(float(max_u))
    trace.dt.append(float(dt))
    trace.diss_integral.append(float(diss_int))


# ---------------------------------------------------------------------------
# restart / gluing
# ---------------------------------------------------------------------------


def glue_continue(checkpoint, T_extra: float, p: DissipParams, **evolve_kwargs) -> EvolveResult:
    """Resume the march from a stored state; trace times use the global clock.

    `checkpoint` is a path or a loaded Checkpoint; its grid and parameters must
    match p exactly (typed error naming the first mismatched field otherwise).
    """
    from .checkpoint import Checkpoint, CheckpointMismatchError, read_checkpoint

    cp = checkpoint if isinstance(checkpoint, Checkpoint) else read_checkpoint(checkpoint)
    for name in ("alpha", "beta", "mu", "nu", "s"):
        if getattr(cp.params, name) != getattr(p, name):
            raise CheckpointMismatchError(name)
    return evolve(cp.field, T_extra, p, t_offset=cp.t, **evolve_kwargs)
