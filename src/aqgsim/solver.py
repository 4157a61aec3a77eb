"""Constructive core: existence-time conditions, the Duhamel bilinear operator,
plain and Gevrey-weighted Picard iterations, constant calibration, the long-time
march and checkpoint-based continuation.

The fixed-point map is psi(theta) = L0 - B(theta, theta) on a uniform time grid,
with L0 the semigroup trajectory of the initial data and B the Duhamel integral
of the dealiased nonlinearity, discretized by the trapezoid rule. The map is one
recursion, `_duhamel_nodes`, over kernels drawn node by node: from zero it yields
B, which `duhamel_bilinear` stacks and calibration runs on all-ones input; from
-theta0 it yields -(L0 - B), since L0[i] = exp(-dt A) L0[i-1]. The Picard engine
iterates phi = -theta, whose kernels are those of theta (the nonlinearity is
quadratic), so that recursion yields phi's next iterate, which overwrites the
engine's one node stack node by node.

The march is a stepper and a driver: `Etdrk4Stepper` holds the ETDRK4 scheme,
its propagators, the step-doubling error control and the kernel count; `evolve`
targets the steps, records the trace and its energy quadrature, and aborts.

Layouts (see `grid`): the solver holds only the half layout, the columns
k2 = 0 .. n2/2. The kernels, the recursion, calibration, the Picard iterate, every
`Trajectory` stack, the march state, its propagators and every norm taken of them
are half-layout arrays, as is every multiplier they read, and a field enters
and leaves the solver as a `SpectralField` holding that layout (`half`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridSpec, SpectralField
from .lemmas import FieldEnsembleSpec, random_band_limited_field
from .norms import (_gevrey_norms, _gevrey_weights, _hs_norm, _hs_norms, _hs_table,
                    _weighted_hs_norms, sobolev_norm)
from .operators import (DissipParams, dissipation_multiplier, gevrey_multiplier,
                        symbol_multipliers, _nonlinear_raw, _velocity)

LOG_3_2 = math.log(1.5)


# ---------------------------------------------------------------------------
# existence-time conditions
# ---------------------------------------------------------------------------


def _power_sum(t: float, exponents) -> float:
    """sum_i t^{a_i}, the left side of a smallness condition at a calibration
    horizon; a term beyond the float range reads as inf."""
    try:
        return sum(t**a for a in exponents)
    except OverflowError:
        return math.inf


_U_MIN, _U_MAX = math.log(5e-324), math.log(1.7e308)  # u = log T over the positive floats


def solve_time_condition(exponents, bound: float,
                         with_exp_factor: bool = False) -> tuple[float, float]:
    """The interval (T_lo, T_hi) of T > 0 with sum_i T^{a_i} (optionally times e^T) <= bound.

    The log of the left side at T = e^u, a log-sum-exp of the lines a_i u (plus
    e^u), is convex in u for exponents of any sign. Its minimiser is found by
    bisection on the sign of its slope, then each end of the interval by bisection
    in u to 1e-12 relative in T, on the admissible side. T_lo = 0.0 when every small
    T is admissible, T_hi = inf when every large one is; (0.0, 0.0) is the empty set.
    """
    exponents = [float(a) for a in exponents]
    if not exponents:
        raise ValueError("need at least one exponent")
    log_bound = math.log(bound) if bound > 0.0 else -math.inf

    def h(u):  # (h, slope); an infinite a_i u makes h infinite, not NaN, and T = 1 gives T^a = 1
        terms = [a * u if u else 0.0 for a in exponents]
        top = max(terms)
        if math.isinf(top):  # h moves with the sign of top * u
            value, slope = top, top * u
        else:
            w = [math.exp(t - top) for t in terms]
            value = top + math.log(sum(w))
            slope = sum(a * x for a, x in zip(exponents, w) if x) / sum(w)
        e = math.exp(u) if with_exp_factor else 0.0
        return value + e, slope + e

    def bisect(yes, no, test):  # width 2.5e-13 > 2 ulps of |u| <= 745, so mid is strictly inside
        while abs(yes - no) > 2.5e-13:
            mid = 0.5 * (yes + no)
            yes, no = (mid, no) if test(mid) else (yes, mid)
        return yes

    def admissible(u):
        return h(u)[0] <= log_bound

    u_min = bisect(_U_MAX, _U_MIN, lambda u: h(u)[1] >= 0.0)
    if not admissible(u_min):
        return 0.0, 0.0
    T_lo = 0.0 if admissible(_U_MIN) else math.exp(bisect(u_min, _U_MIN, admissible))
    T_hi = math.inf if admissible(_U_MAX) else math.exp(bisect(u_min, _U_MAX, admissible))
    return T_lo, T_hi


@dataclass(frozen=True)
class ConstantsTable:
    """Calibrated (or user-supplied) values of the implicit estimate constants."""

    C1: float
    C2: float
    C3: float
    C4: float

    def __post_init__(self):
        for name in ("C1", "C2", "C3", "C4"):
            if not getattr(self, name) > 0.0:
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
                   weighted: bool = False) -> tuple[float, float]:
    """The interval (T_lo, T_hi) meeting the low-regularity condition and, for s >= 1,
    the four-term one; weighted mode intersects it with the same conditions times
    e^T and with e^T < 3/2. (0.0, 0.0) when none does; zero data gives (0.0, inf)."""
    if not theta0_norm >= 0.0:
        raise ValueError("theta0_norm must be nonnegative")
    if theta0_norm == 0.0:
        return 0.0, math.inf
    p.warn_if_unguaranteed()

    def intervals(C_low, C_four, with_exp_factor=False):  # the four-term one for s >= 1
        conditions = [(_step1_exponents(p), C_low), (_step2_exponents(p), C_four)]
        return [solve_time_condition(a, 1.0 / (8.0 * C * theta0_norm), with_exp_factor)
                for a, C in conditions[:2 if p.s >= 1.0 else 1]]

    found = intervals(c.C1, c.C2)
    if weighted:
        found += [(0.0, LOG_3_2 * (1.0 - 1e-12)), *intervals(c.C3, c.C4, True)]
    T_lo, T_hi = max(lo for lo, _ in found), min(hi for _, hi in found)
    return (T_lo, T_hi) if T_lo <= T_hi else (0.0, 0.0)


def admits_horizon(T: float, T_lo: float, T_hi: float) -> bool:
    """T > 0 lies in [T_lo, T_hi] up to the precision of the ends, 1e-12 relative."""
    return T > 0.0 and T_lo * (1.0 - 1e-12) <= T <= T_hi * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# trajectories and the Duhamel operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Fields on a uniform time grid, stored as one half-layout
    (n_nodes, n1, n2/2 + 1) stack; `field(i)` is node i as a field."""

    grid: GridSpec
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (expected := (times.size, *self.grid.half_shape)):
            raise ValueError(f"trajectory stack {coeffs.shape} does not match times/grid: "
                             f"expected (n_nodes, n1, n2/2 + 1) = {expected}")
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


def time_grid(T: float, n_nodes: int) -> np.ndarray:
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    if n_nodes < 2:
        raise ValueError("need at least two time nodes")
    return np.linspace(0.0, T, n_nodes)


def constant_trajectory(f: SpectralField, times: np.ndarray) -> Trajectory:
    stack = np.broadcast_to(f.half, (len(times), *f.half.shape)).copy()
    return Trajectory(f.grid, times, stack)


def semigroup_trajectory(theta0: SpectralField, times: np.ndarray,
                         p: DissipParams) -> Trajectory:
    """L0: exact linear evolution of theta0 sampled on the time grid."""
    grid, times = theta0.grid, np.asarray(times, dtype=float)
    A = dissipation_multiplier(grid, p)
    stack = np.empty((times.size, *grid.half_shape), dtype=np.complex128)
    for j, t in enumerate(times):
        stack[j] = np.exp(-t * A) * theta0.half
    return Trajectory(grid, times, stack)


def _duhamel_nodes(N, dt: float, grid: GridSpec, p: DissipParams, out0=None):
    """The recursion out[i] = E out[i-1] + (dt/2)(E N[i-1] + N[i]), E = exp(-dt A),
    on the half layout from out[0] = out0 (zero by default) over the node kernels
    N[0], N[1], ..., yielded node by node in time linear in the number of nodes.

    From zero, out[i] = dt sum_j'' exp(-(i-j) dt A) N[j] is the trapezoid Duhamel
    sum B; from -theta0 it is -(L0 - B), the negated mild map. It runs in place,
    with the operations of that formula in its order, so the bits are its bits;
    out0 must be a fresh writable array. N[i] is drawn only after out[i-1] was
    yielded, and only N[i-1] is kept. Every node is yielded as the same array,
    updated in place by the next step, so a caller that keeps a node copies it.
    """
    acc = np.zeros(grid.half_shape, dtype=np.complex128) if out0 is None else out0
    E = np.exp(-dt * dissipation_multiplier(grid, p))
    N = iter(N)
    prev = next(N)
    tmp = np.empty_like(acc)
    half_dt = 0.5 * dt
    yield acc
    for N_i in N:
        np.multiply(E, prev, out=tmp)
        tmp += N_i
        tmp *= half_dt
        np.multiply(E, acc, out=acc)
        acc += tmp
        prev = N_i
        yield acc


def duhamel_bilinear(traj1: Trajectory, traj2: Trajectory, p: DissipParams) -> Trajectory:
    """B(theta1, theta2): trapezoid-in-time Duhamel integral of the nonlinearity.

    The kernel div(theta1(tau) u_{theta2(tau)}) is taken node by node as the
    recursion draws it, and each node is written into the half-layout output,
    the only node stack formed.
    B has mean zero for any input: the divergence multipliers vanish at k = 0,
    so its k = 0 entries are exactly 0 whatever the means of theta1 and theta2."""
    if traj1.grid != traj2.grid:
        raise ValueError("mismatched grids in duhamel_bilinear")
    if traj1.n_nodes != traj2.n_nodes or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("mismatched time grids in duhamel_bilinear")
    grid = traj1.grid
    kernels = (_nonlinear_raw(a, grid, velocity_coeffs=b)[0]
               for a, b in zip(traj1.coeffs, traj2.coeffs))
    out = np.empty_like(traj1.coeffs)
    for j, acc in enumerate(_duhamel_nodes(kernels, traj1.dt, grid, p)):
        out[j] = acc
    return Trajectory(grid, traj1.times, out)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    """One solve's horizon T (positive; any horizon is iterated, and a map that does
    not contract there shows in the report), time nodes, iteration cap and H^s
    distance tolerance."""

    T: float
    n_nodes: int = 64
    max_iter: int = 60
    tol: float = 1e-10

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("PicardConfig.T must be positive")
        if not self.tol > 0.0:
            raise ValueError("PicardConfig.tol must be positive")
        if self.n_nodes < 2:
            raise ValueError("PicardConfig.n_nodes must be >= 2")


@dataclass(frozen=True)
class PicardReport:
    """What one run measured: H^s sup distances of successive iterates and their
    ratios; `sup_hs`, the largest node norm of any iterate (L0 included), against
    the ball radius `bound` = 2||theta0||_{H^s}; on a weighted run (else None) the
    same sup of the Gevrey-weighted norm, inf if saturated; the last iterate."""

    converged: bool
    iterations: int
    distances: list[float]
    contraction_ratios: list[float]
    sup_hs: float
    bound: float
    within: bool
    trajectory: Trajectory
    weighted_sup: float | None = None
    weighted_within: bool | None = None
    note: str = ""


def weight_domination_slack(p: DissipParams, T: float, grid: GridSpec) -> float:
    """max over retained modes (the half layout: A, B are even in k2) and times
    t in [0, T] of (t/2)B(k) - t A(k) - t.

    Nonpositive iff the weighted semigroup obeys exp((t/2)B - tA) <= e^t mode-wise
    (exact when mu = nu = 1, from A - B >= -2). It is t x, x = max(0.5 B - A - 1),
    so it peaks at t = T or at t = 0, where 0.0 * x keeps the sign of zero.
    """
    x = float(np.max(0.5 * gevrey_multiplier(grid, p) - dissipation_multiplier(grid, p) - 1.0))
    return max(0.0 * x, T * x)


def picard_solve(theta0: SpectralField, cfg: PicardConfig, p: DissipParams) -> PicardReport:
    """Iterate psi(theta) = L0 - B(theta, theta) to the discrete mild solution."""
    return _picard_engine(theta0, cfg, p, weighted=False)


def weighted_picard_solve(theta0: SpectralField, cfg: PicardConfig,
                          p: DissipParams) -> PicardReport:
    """Same iteration, additionally tracking the Gevrey-weighted sup of every
    iterate and its Step-2 ball membership."""
    return _picard_engine(theta0, cfg, p, weighted=True)


def _picard_engine(theta0: SpectralField, cfg: PicardConfig, p: DissipParams,
                   weighted: bool) -> PicardReport:
    """Each iterate's sups enter the report once, as it is formed. The iteration
    holds one half-layout (n_nodes, n1, n2/2 + 1) stack, phi = -theta, starting
    from -L0, swept node by node: the kernel of row j is taken (that of theta,
    bit for bit, since each factor of the quadratic kernel changes sign
    exactly), the recursion from -theta0 advanced to -(L0_j - B_j), its H^s
    distance and norm recorded (those of its negation, bit for bit), and then
    row j is overwritten with it, since the sweep no longer reads it. After the
    last iteration the stack is negated in place and becomes the report's
    trajectory. The horizon cfg.T is iterated as given; whether it lies in the
    existence interval is the caller's question. A non-finite distance ends the run as "non-finite
    distances", three distance growths in a row as "diverging distances"; zero
    data is its own fixed point, converged with no iterations. A sup that is not
    finite is never within its ball."""
    if not theta0.is_mean_zero:
        raise ValueError("picard_solve requires mean-zero initial data")
    grid = theta0.grid
    s = p.s
    norm0 = sobolev_norm(theta0, s)
    times = time_grid(cfg.T, cfg.n_nodes)
    dt = float(times[1] - times[0])
    minus_theta0 = -theta0.half
    current = semigroup_trajectory(-theta0, times, p).coeffs  # phi = -theta, from -L0 on
    node_hs = np.array([_hs_norm(c, grid, s) for c in current])
    node_dist = np.empty_like(node_hs)
    sup_hs_all = float(np.max(node_hs))
    weighted_sup_all = _weighted_sup(grid, times, current, p, s) if weighted else None

    distances: list[float] = []
    converged = norm0 == 0.0
    note = ""
    growth_streak = 0
    for _ in range(0 if converged else cfg.max_iter):
        kernels = (_nonlinear_raw(row, grid)[0] for row in current)
        for j, new in enumerate(_duhamel_nodes(kernels, dt, grid, p, minus_theta0.copy())):
            node_dist[j] = _hs_norm(new - current[j], grid, s)
            node_hs[j] = _hs_norm(new, grid, s)
            current[j] = new
        d = float(np.max(node_dist))
        distances.append(d)
        sup_hs_all = max(sup_hs_all, float(np.max(node_hs)))
        if weighted:
            weighted_sup_all = max(weighted_sup_all, _weighted_sup(grid, times, current, p, s))
        if d < cfg.tol:
            converged = True
            break
        if not math.isfinite(d):
            note = "non-finite distances"
            break
        growth_streak = growth_streak + 1 if len(distances) >= 2 and d > distances[-2] else 0
        if growth_streak >= 3:
            note = "diverging distances"
            break

    ratios = [distances[i + 1] / distances[i]
              for i in range(len(distances) - 1) if distances[i] > 0.0]
    bound = 2.0 * norm0

    def within(sup):
        return math.isfinite(sup) and sup <= bound * (1.0 + 1e-9)

    np.negative(current, out=current)
    return PicardReport(converged, len(distances), distances, ratios, sup_hs_all, bound,
                        within(sup_hs_all), Trajectory(grid, times, current),
                        weighted_sup_all, within(weighted_sup_all) if weighted else None, note)


def _weighted_sup(grid: GridSpec, times: np.ndarray, coeffs: np.ndarray,
                  p: DissipParams, s: float) -> float:
    """Largest Gevrey-weighted H^s norm over the nodes; a saturated node gives inf."""
    return float(np.max(_gevrey_norms(coeffs, grid, times, s, p)))


# ---------------------------------------------------------------------------
# constant calibration
# ---------------------------------------------------------------------------

_CALIBRATION_HORIZONS = (0.25, 0.5, 1.0, 2.0)
_CALIBRATION_GRID, _CALIBRATION_KMAX, _CALIBRATION_SLOPE = GridSpec(64, 64), 10, 2.0
_CALIBRATION_NODES = 33


def calibrate_constants(p: DissipParams | Sequence[DissipParams], n_samples: int = 16,
                        seed: int = 0) -> ConstantsTable | list[ConstantsTable]:
    """Estimate C1..C4 as 2x the worst observed left/right ratio of the
    corresponding bilinear estimate over random band-limited field pairs
    (on the 64^2 grid, band |k| <= 10, spectrum |k|^-2, 33 time nodes).

    f and g are constant in time, so the Duhamel sum of their nonlinearity N is
    W N, with W the last node of the Duhamel recursion from zero over all-ones
    kernels; both that sum and exp((t/2)B) grow with t, so every sup over a
    horizon is its value at t = T.

    Deterministic given the seed; sample k of a larger run reuses sample k of a
    smaller one, so enlarging n_samples can only increase the estimates. A ratio
    is floored at 1e-12, so every constant is positive.

    `p` may also be a sequence of parameter sets that share s, such as a sweep's
    lattice; the result is then one table per entry, each bit-identical to the
    table of its own call. The calibration is one pass over the samples: each
    pair f, g is drawn, normed and put through the kernel once, and streamed, so
    memory does not grow with n_samples. Each parameter set builds its W and its
    Gevrey weights for the four horizons once, as two real (4, n1, n2/2 + 1)
    stacks (about 0.14 MB), and takes each norm of a sample at every horizon in one
    stacked reduction; the ratios are updated sample by sample, horizon by
    horizon, as one call per set would.
    """
    params = [p] if isinstance(p, DissipParams) else list(p)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len({q.s for q in params}) != 1:
        raise ValueError("calibration needs one or more parameter sets sharing s")
    grid, n_nodes = _CALIBRATION_GRID, _CALIBRATION_NODES
    spec = FieldEnsembleSpec(grid, seed=seed, count=2 * n_samples, kmax=_CALIBRATION_KMAX,
                             spectrum_slope=_CALIBRATION_SLOPE)
    s = params[0].s
    # W_T, the recursion's last node (no node stack), is real from all-ones kernels
    setups = [(np.stack([deque(_duhamel_nodes(itertools.repeat(1.0, n_nodes),
                                              T / (n_nodes - 1), grid, q), maxlen=1)[0].real
                         for T in _CALIBRATION_HORIZONS]),
               _gevrey_weights(grid, _CALIBRATION_HORIZONS, q),
               [(_power_sum(T, _step1_exponents(q)), _power_sum(T, _step2_exponents(q)),
                 math.exp(T)) for T in _CALIBRATION_HORIZONS])
              for q in params]
    ratios = [{"C1": 0.0, "C2": 0.0, "C3": 0.0, "C4": 0.0} for _ in params]
    for i in range(n_samples):
        f = random_band_limited_field(spec, 2 * i)
        g = random_band_limited_field(spec, 2 * i + 1)
        nf, ng = sobolev_norm(f, s), sobolev_norm(g, s)
        Nfg = _nonlinear_raw(f.half, grid, velocity_coeffs=g.half)[0]
        for (W, G, gains), r in zip(setups, ratios):
            B = W * Nfg
            # weighted form: weight both the output and the input factors
            weighted = (_weighted_hs_norms(G, x, grid, s).tolist()
                        for x in (B, f.half, g.half))
            norms = zip(_hs_norms(B, grid, s).tolist(), *weighted, gains)
            for lhs_plain, lhs_w, nfw, ngw, (g1, g2, eT) in norms:
                # a power sum underflows to 0.0 (alpha or beta near 0): it bounds nothing
                if g1 > 0.0:
                    r["C1"] = max(r["C1"], lhs_plain / (g1 * nf * ng))
                    r["C3"] = max(r["C3"], lhs_w / (eT * g1 * nfw * ngw))
                if g2 > 0.0:
                    r["C2"] = max(r["C2"], lhs_plain / (g2 * nf * ng))
                    r["C4"] = max(r["C4"], lhs_w / (eT * g2 * nfw * ngw))
    tables = [ConstantsTable(*(2.0 * max(r[k], 1e-12) for k in ("C1", "C2", "C3", "C4")))
              for r in ratios]
    return tables[0] if isinstance(p, DissipParams) else tables


# ---------------------------------------------------------------------------
# long-time march (fourth-order exponential integrator ETDRK4, step doubling)
# ---------------------------------------------------------------------------

# Taylor coefficients (-1)^j / (j + 3)!, j = 19..0, of phi_3(-x)
_PHI3_SERIES = [(-1) ** j / math.factorial(j + 3) for j in range(19, -1, -1)]


def phi_functions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 of -x elementwise for x >= 0, phi_k(0) = 1/k!:

        phi_1 = (1 - e^-x) / x,  phi_2 = (e^-x - 1 + x) / x^2,
        phi_3 = (1 - x + x^2/2 - e^-x) / x^3.

    The closed forms of phi_2 and phi_3, from one expm1(-x), lose about 1e-16/x
    and 1e-16/x^2 relative to cancellation as x -> 0, so below x = 1 phi_3 is
    summed as a 20-term Taylor series (truncation below 1e-19 relative), and
    phi_2 = 1/2 - x phi_3 and phi_1 = 1 - x phi_2 follow from it without
    cancellation.
    """
    em1 = np.expm1(-x)
    with np.errstate(divide="ignore", invalid="ignore"):
        x2 = x * x
        p1, p2, p3 = -em1 / x, (em1 + x) / x2, -(em1 + x - 0.5 * x2) / (x2 * x)
    small = x < 1.0
    xs = x[small]
    p3[small] = s3 = np.polyval(_PHI3_SERIES, xs)
    p2[small] = s2 = 0.5 - xs * s3
    p1[small] = 1.0 - xs * s2
    return p1, p2, p3


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
    diss_integral: list[float] = dc_field(default_factory=list)

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
    abort_reason: str | None = None
    rejected_steps: int = 0
    accepted_steps: int = 0
    kernel_calls: int = 0

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def interrupted(self) -> bool:
        return self.aborted and self.abort_reason.startswith("interrupted")


class Etdrk4Stepper:
    """One march's ETDRK4 scheme (Cox & Matthews 2002) and its error control on
    the half layout. It holds the multiplier `A`, the propagators of the last dt
    (exp and the phi functions run once per build, on one stacked call),
    `kernel_calls`, and `dt`, the next proposal, which fixed and linear steps keep.
    An adaptive step is two half steps, kept, checked in H^s against one full step
    by the 1/5-power controller: 10 kernel calls; a fixed step takes 3."""

    def __init__(self, grid: GridSpec, p: DissipParams, dt: float, *, nonlinear: bool = True,
                 adaptive: bool = True, rtol: float = 1e-8, atol: float = 1e-12,
                 dt_min: float = 0.0):
        self.grid, self.s, self.dt = grid, p.s, dt
        self.A = dissipation_multiplier(grid, p)
        self.nonlinear, self.adaptive = nonlinear, nonlinear and adaptive
        self.rtol, self.atol, self.dt_min = rtol, atol, dt_min  # a rejection at dt <= dt_min fails
        self.kernel_calls = 0
        self._built = (None, None, None)  # (dt, full-step, half-step coefficients)

    def rhs(self, c: np.ndarray, with_max_u: bool = False):
        """The kernel of c (None on the linear path) and, if asked, max |u|."""
        # overflow here surfaces as a non-finite state and aborts the march
        with np.errstate(over="ignore", invalid="ignore"):
            if not self.nonlinear:
                return None, _velocity(c, self.grid, with_max_u)[2]
            self.kernel_calls += 1
            Nc, max_u = _nonlinear_raw(c, self.grid, with_max_u=with_max_u)
            return -Nc, max_u

    def _propagators(self, dt: float):
        # a step of size h takes its weights from e^-x and phi_k(x) at x = h A and
        # its stage factors from x / 2, so dt A and dt A / 2 serve the step, and
        # dt A / 4 the half steps
        if self._built[0] != dt:
            x = np.multiply.outer([f * dt for f in (1.0, 0.5, 0.25)[:3 if self.adaptive else 2]],
                                  self.A)
            built = list(zip(np.exp(-x), *phi_functions(x)))

            def coefficients(h, at_h, at_half):
                E, p1, p2, p3 = at_h
                return (E, at_half[0], 0.5 * h * at_half[1], h * (p1 - 3.0 * p2 + 4.0 * p3),
                        2.0 * h * (p2 - 2.0 * p3), h * (4.0 * p3 - p2))

            self._built = (dt, coefficients(dt, *built[:2]),
                           coefficients(0.5 * dt, *built[1:]) if self.adaptive else None)
        return self._built[1:]

    def _etdrk4(self, c, N_c, E, E2, Q, f1, f2, f3):
        with np.errstate(over="ignore", invalid="ignore"):
            E2c = E2 * c
            a = E2c + Q * N_c
            N_a = self.rhs(a)[0]
            N_b = self.rhs(E2c + Q * N_a)[0]
            N_d = self.rhs(E2 * a + Q * (2.0 * N_b - N_c))[0]
            return E * c + f1 * N_c + f2 * (N_a + N_b) + f3 * N_d

    def step(self, c: np.ndarray, N_c, dt: float):
        """Step the state c, whose kernel is N_c, by dt: (new state, None) when
        accepted, (None, None) when rejected, (None, cause) when the march must
        end: "step size collapsed", "non-finite state" or "non-finite error norm"."""
        if dt <= 0.0 or not math.isfinite(dt):
            return None, "step size collapsed"
        full, half = self._propagators(dt)
        if not self.nonlinear:
            c_new = full[0] * c
        elif not self.adaptive:
            c_new = self._etdrk4(c, N_c, *full)
        else:  # two half steps, kept; the one step only checks them
            mid = self._etdrk4(c, N_c, *half)
            c_new = self._etdrk4(mid, self.rhs(mid)[0], *half)
        if not np.all(np.isfinite(c_new.view(np.float64))):
            return None, "non-finite state"
        if self.adaptive:
            err = float(_hs_norms(c_new - self._etdrk4(c, N_c, *full), self.grid, self.s))
            if not math.isfinite(err):  # no step size can pass this test
                return None, "non-finite error norm"
            scale = self.atol + self.rtol * float(_hs_norms(c_new, self.grid, self.s))
            factor = 0.9 * (scale / max(err, 1e-300)) ** (1.0 / 5.0)
            if err > scale:
                if dt <= self.dt_min:
                    return None, "step size collapsed"
                self.dt = dt * max(0.2, factor)
                return None, None
            self.dt = dt * min(5.0, max(0.2, factor))
        return c_new, None


def evolve(theta0: SpectralField, T: float, p: DissipParams, *, nonlinear: bool = True,
           rtol: float = 1e-8, atol: float = 1e-12, dt_max: float | None = None,
           dt_fixed: float | None = None, trace_stride: int = 1, checkpoint_times=(),
           on_checkpoint=None, t_offset: float = 0.0) -> EvolveResult:
    """March the flow to time T: the driver of one `Etdrk4Stepper`, adaptive
    unless dt_fixed is given. Initial data is projected onto the dealiased band.

    The stepper proposes each step, capped by dt_max; a step ends exactly on the
    next checkpoint or T, and halves the way there rather than leave a sliver;
    a step so shortened leaves its proposal standing for the next one.
    `kernel_calls` counts one call for the initial state and the stepper's. The
    trace's `diss_integral` sums the dissipation rate D = 2 sum A |c|^2 over each
    step by the Hermite (end-corrected trapezoid) rule dt/2 (D0 + D1) +
    dt^2/12 (D0' - D1'), fourth order, with D' = 4 Re sum A conj(c) (N(c) - A c)
    from the kernels at the step's two ends. A step the stepper fails ends the
    march, and `abort_reason` names the cause; `aborted` is true exactly when it
    is set. A KeyboardInterrupt in the loop (on_checkpoint's too) ends it as
    "interrupted at t=...". An aborted march ends with the last accepted state
    as `final` and its row ending the trace.

    Trace times are reported as t_offset + t; checkpoint_times are in the same
    offset clock and trigger on_checkpoint(t_global, SpectralField) exactly at
    those times.
    """
    if not T > 0.0:
        raise ValueError("evolve horizon must be positive")
    if not theta0.is_mean_zero:
        raise ValueError("evolve requires mean-zero initial data")
    grid = theta0.grid
    dt_ceiling = dt_max if dt_max is not None else T
    if dt_fixed is not None:
        dt_first = dt_fixed
    else:  # the linear factor is exact, so without a nonlinearity any step works
        dt_first = dt_ceiling if not nonlinear else min(1e-3, dt_ceiling)
    stepper = Etdrk4Stepper(grid, p, dt_first, nonlinear=nonlinear, adaptive=dt_fixed is None,
                            rtol=rtol, atol=atol, dt_min=1e-13 * max(T, 1.0))
    A = stepper.A
    A_counted = A * grid.multiplicity  # a half-layout sum against it is the full sum

    def diss_rates(c, N_c):
        # D = 2 sum A |c|^2 and D' = 4 Re sum A conj(c) (N_c - A c) of the state c
        # whose kernel is N_c (None on the linear path)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.conj(A_counted * c)
            dc = -A * c if N_c is None else N_c - A * c
            return 2.0 * float(np.sum(w * c).real), 4.0 * float(np.sum(w * dc).real)

    trace = DiagnosticsTrace()
    cps = sorted(float(x) - t_offset for x in checkpoint_times)
    cps = [x for x in cps if 0.0 < x <= T * (1.0 + 1e-12)]

    c = np.where(grid.dealias_mask, theta0.half, 0.0)
    t = diss_int = 0.0
    N_c, max_u = stepper.rhs(c, with_max_u=True)
    rates = diss_rates(c, N_c)
    dt_done = dt_first  # the step that reached the state c; the first proposal at t = 0
    _record(trace, grid, p, t + t_offset, c, max_u, dt_done, diss_int)
    steps_since_trace = accepted = rejected = 0
    reason = None
    try:
        while t < T * (1.0 - 1e-12):
            target = cps[0] if cps else T
            dt = proposal = min(stepper.dt, dt_ceiling)
            if t + dt >= target * (1.0 - 1e-12):
                dt = target - t
            elif dt_fixed is None and t + 2.0 * dt > target:
                # split the way to the target evenly rather than leave a sliver
                dt = 0.5 * (target - t)
            c_new, cause = stepper.step(c, N_c, dt)
            if cause is not None:
                reason = (f"{cause} (dt={dt})" if cause == "step size collapsed"
                          else f"{cause} at t={t + t_offset:.6g}")
                break
            if c_new is None:
                rejected += 1
                continue
            if dt < proposal:  # a step shortened to land on a target keeps its proposal
                stepper.dt = max(stepper.dt, proposal)
            N_next, max_u_next = stepper.rhs(c_new, with_max_u=True)
            rates_next = diss_rates(c_new, N_next)
            step_int = (0.5 * dt * (rates[0] + rates_next[0])
                        + dt * dt / 12.0 * (rates[1] - rates_next[1]))
            # one commit, so that an interrupt leaves the last accepted state whole
            c, t, N_c, rates, max_u, diss_int, dt_done, accepted = (
                c_new, t + dt, N_next, rates_next, max_u_next, diss_int + step_int, dt,
                accepted + 1)
            steps_since_trace += 1
            at_cp = bool(cps) and abs(t - cps[0]) <= 1e-12 * max(1.0, cps[0])
            if at_cp:
                cps.pop(0)
                if on_checkpoint is not None:
                    on_checkpoint(t + t_offset, SpectralField(grid, c))
            done = t >= T * (1.0 - 1e-12)
            if steps_since_trace >= trace_stride or done or at_cp:
                _record(trace, grid, p, t + t_offset, c, max_u, dt_done, diss_int)
                steps_since_trace = 0
    except KeyboardInterrupt:
        reason = f"interrupted at t={t + t_offset:.6g}"
    # every march ends with the row of its last accepted state; a row cut short goes
    complete = min(map(len, vars(trace).values()))
    for column in vars(trace).values():
        del column[complete:]
    if trace.t[-1] != float(t + t_offset):
        _record(trace, grid, p, t + t_offset, c, max_u, dt_done, diss_int)
    return EvolveResult(trace, SpectralField(grid, c), t + t_offset, reason,
                        rejected, accepted, stepper.kernel_calls)


def _record(trace: DiagnosticsTrace, grid: GridSpec, p: DissipParams, t: float,
            c: np.ndarray, max_u: float, dt: float, diss_int: float) -> None:
    """Append the diagnostics of the half-layout state c to the trace."""
    d1, d2 = symbol_multipliers(grid, p)[:2]
    power = np.abs(c) ** 2
    norms = _hs_table(power, grid, ((0.0, False), (p.s, False), (2.0, False)))
    mod2 = grid.multiplicity * power  # a weighted sum of it is the full sum
    trace.t.append(float(t))
    for column, s in ((trace.l2, 0.0), (trace.hs, p.s), (trace.h2, 2.0)):
        column.append(norms[s, False])
    for column, w in ((trace.diss1, d1), (trace.diss2, d2)):
        column.append(float(np.sqrt(np.sum(w * mod2))))
    trace.gevrey_hs.append(float(_gevrey_norms(c, grid, (max(t, 0.0),), p.s, p)[0]))
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
    from .checkpoint import Checkpoint, read_checkpoint

    cp = checkpoint if isinstance(checkpoint, Checkpoint) else read_checkpoint(checkpoint)
    cp.require_params(p)
    return evolve(cp.field, T_extra, p, t_offset=cp.t, **evolve_kwargs)
