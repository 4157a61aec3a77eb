"""Existence-time conditions, Duhamel operator, Picard iterations, the march."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from aqgsim.diagnostics import weighted_norm_trace
from aqgsim.grid import (GridSpec, SpectralField, field_from_modes, half_sobolev_weight,
                         sine_field, zero_field)
from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field
from aqgsim.norms import _hs_norms, gevrey_weighted_norm, sobolev_norm
from aqgsim.operators import (DissipParams, RegimeWarning, apply_semigroup,
                              dissipation_symbol, gevrey_multiplier, nonlinear_term)
from aqgsim.solver import (LOG_3_2, ConstantsTable, Etdrk4Stepper, PicardConfig, Trajectory,
                           calibrate_constants, constant_trajectory, duhamel_bilinear,
                           evolve, existence_time, glue_continue, phi_functions, picard_solve,
                           semigroup_trajectory, solve_time_condition, time_grid,
                           weight_domination_slack, weighted_picard_solve)

TABLE = ConstantsTable(0.25, 0.12, 0.05, 0.02)


def unit_random_field(grid, seed, s, kmax=8, slope=2.0):
    spec = FieldEnsembleSpec(grid, seed=seed, count=1, kmax=kmax, spectrum_slope=slope)
    f = random_band_limited_field(spec, 0)
    return f * (1.0 / sobolev_norm(f, s))


def recursion_stack(N, dt, grid, p, out0=None):
    """Every node of the Duhamel recursion over the kernels N, from out0 (zero
    when it is None), as one half-layout stack."""
    import aqgsim.solver as solver

    return np.array([node.copy() for node in solver._duhamel_nodes(N, dt, grid, p, out0)])


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one at each nonlinear-kernel call made by the solver."""
    import aqgsim.solver as solver

    calls = []
    kernel = solver._nonlinear_raw

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solver, "_nonlinear_raw", counting)
    return calls


# ---------------------------------------------------------------------------
# existence time
# ---------------------------------------------------------------------------


def test_time_condition_symmetric_closed_form():
    # 2 sqrt(T) <= 1  =>  T = 1/4
    assert solve_time_condition([0.5, 0.5], 1.0)[1] == pytest.approx(0.25, rel=1e-10)


def test_time_condition_golden_ratio_case():
    # sqrt(T) + T^(1/4) = 1 with y = T^(1/4): y^2 + y = 1
    expected = ((math.sqrt(5.0) - 1.0) / 2.0) ** 4
    assert solve_time_condition([0.5, 0.25], 1.0)[1] == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.14589803375031546, rel=1e-12)


def test_time_condition_exp_factor_is_smaller():
    _, plain = solve_time_condition([0.5, 0.5], 1.0)
    _, damped = solve_time_condition([0.5, 0.5], 1.0, with_exp_factor=True)
    assert damped < plain


@pytest.mark.parametrize("exponents, bound, expected", [
    ([-0.5, -0.2], 1.0, math.inf),  # nonincreasing: every large T is admissible
    ([0.01], 1e3, 1e300),  # T^0.01 <= 1e3 holds far beyond 2^200
    # step 1 at alpha = beta = 0.75, s = 0.51, C1 = 0.02, unit data: 2 T^(1/150) <= 6.25
    ([0.01 / 1.5] * 2, 6.25, 3.125**150),
], ids=["nonincreasing", "small_exponent", "s_near_lower_end"])
def test_time_condition_beyond_any_doubling_cap(exponents, bound, expected):
    assert solve_time_condition(exponents, bound)[1] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("exponents, bound, expected", [
    ([0.01], 0.2, (0.0, 0.2**100)),  # 1.3e-70
    ([0.5], 1e-40, (0.0, 1e-80)),
    # alpha = beta = 0.3, s = 0: 2 T^(-7/3) <= 1/8 holds for T >= 16^(3/7) only
    ([-7.0 / 3.0, -7.0 / 3.0], 0.125, (16.0 ** (3.0 / 7.0), math.inf)),
], ids=["tiny_upper_end", "upper_end_1e-80", "lower_end"])
def test_time_condition_interval_closed_form(exponents, bound, expected):
    assert solve_time_condition(exponents, bound) == pytest.approx(expected, rel=1e-12)


def test_time_condition_decreasing_left_side_has_a_lower_end():
    T_lo, T_hi = solve_time_condition([-0.5, -0.2], 1.0)
    assert T_hi == math.inf
    assert T_lo == pytest.approx(8.3553, rel=1e-4)
    assert T_lo**-0.5 + T_lo**-0.2 == pytest.approx(1.0, rel=1e-12)


def test_existence_time_just_above_s_lower():
    # step 1 at s = 0.51: 2 T^(1/150) <= 1 / (8 * 0.25 * 10), so T0 = 0.025^150
    p = DissipParams(0.75, 0.75, s=0.51)
    _, T0 = existence_time(10.0, p, ConstantsTable(0.25, 0.25, 0.25, 0.25))
    assert T0 == pytest.approx(0.025**150, rel=1e-10)


def test_time_condition_ends_are_tight():
    """Each finite end is admissible, and a point 1e-9 relative outside it is not."""
    rng = np.random.default_rng(16)

    def log_lhs(exponents, T, with_exp_factor):
        logs = [a * math.log(T) for a in exponents]
        return float(np.logaddexp.reduce(logs)) + (T if with_exp_factor else 0.0)

    for _ in range(300):
        n = int(rng.integers(1, 5))
        exponents = list(rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 3.0, n))
        bound = 10.0 ** rng.uniform(-3.0, 3.0)
        with_exp_factor = bool(rng.integers(2))
        T_lo, T_hi = solve_time_condition(exponents, bound, with_exp_factor)
        log_bound = math.log(bound)
        if T_hi == 0.0:  # empty: no T on a log grid is admissible
            assert T_lo == 0.0
            assert all(log_lhs(exponents, T, with_exp_factor) > log_bound
                       for T in np.logspace(-300, 300, 601))
            continue
        for end, outside in ((T_lo, T_lo * (1.0 - 1e-9)), (T_hi, T_hi * (1.0 + 1e-9))):
            if 0.0 < end < math.inf:
                assert log_lhs(exponents, end, with_exp_factor) <= log_bound
                assert log_lhs(exponents, outside, with_exp_factor) > log_bound
        if T_lo == 0.0:
            assert log_lhs(exponents, 1e-300, with_exp_factor) <= log_bound
        if T_hi == math.inf:
            assert log_lhs(exponents, 1e300, with_exp_factor) <= log_bound


def test_existence_time_zero_data(params_sym):
    assert existence_time(0.0, params_sym, TABLE)[1] == math.inf


def test_existence_time_monotone_in_norm(params_sym):
    _, t_small = existence_time(0.5, params_sym, TABLE)
    _, t_large = existence_time(2.0, params_sym, TABLE)
    assert t_large < t_small


def test_existence_time_weighted_cap(params_sym):
    _, t0 = existence_time(1.0, params_sym, TABLE)
    _, t1 = existence_time(1.0, params_sym, TABLE, weighted=True)
    assert t1 <= t0
    assert t1 < LOG_3_2
    # weighted cap binds even for tiny data
    assert existence_time(1e-9, params_sym, TABLE, weighted=True)[1] < LOG_3_2


def test_existence_time_warns_outside_regime():
    p = DissipParams(0.4, 0.75, s=1.3)
    with pytest.warns(RegimeWarning):
        existence_time(1.0, p, TABLE)


def test_low_s_uses_single_condition():
    # for s < 1 only the first condition applies; with these constants the
    # four-term condition would be far more restrictive
    p_low = DissipParams(0.9, 0.9, s=0.5)
    c = ConstantsTable(0.1, 1e6, 0.1, 1e6)
    _, t_low = existence_time(1.0, p_low, c)
    assert t_low > 1e-3


# ---------------------------------------------------------------------------
# trajectories and Duhamel
# ---------------------------------------------------------------------------


def test_trajectory_requires_uniform_times(grid32):
    stack = np.zeros((3, *grid32.half_shape), dtype=complex)
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(grid32, np.array([0.0, 0.1, 0.5]), stack)


def test_duhamel_zero_trajectory(grid32, params_sym):
    times = time_grid(0.5, 9)
    z = constant_trajectory(zero_field(grid32), times)
    f = constant_trajectory(sine_field(grid32, (1, 0)), times)
    out = duhamel_bilinear(z, f, params_sym)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_duhamel_single_mode_integrand_vanishes(grid32, params_sym):
    times = time_grid(0.5, 9)
    f = constant_trajectory(sine_field(grid32, (1, 0)), times)
    out = duhamel_bilinear(f, f, params_sym)
    assert np.max(np.abs(out.coeffs)) < 1e-15


def test_duhamel_bilinearity(grid64, params_sym):
    times = time_grid(0.4, 9)
    f = constant_trajectory(unit_random_field(grid64, 1, 1.0), times)
    g = constant_trajectory(unit_random_field(grid64, 2, 1.0), times)
    scaled = constant_trajectory(unit_random_field(grid64, 1, 1.0) * 3.0, times)
    a = duhamel_bilinear(scaled, g, params_sym)
    b = duhamel_bilinear(f, g, params_sym)
    assert np.allclose(a.coeffs, 3.0 * b.coeffs, rtol=1e-12, atol=1e-15)


def test_duhamel_output_is_mean_free_for_inputs_with_means(grid64, params_sym):
    """The divergence multipliers vanish at k = 0: B of fields with means 0.7 and
    -2.5 has exactly zero k = 0 entries and otherwise matches the mean-free B."""
    times = time_grid(0.5, 9)
    spec = FieldEnsembleSpec(grid64, seed=11, count=2, kmax=10, spectrum_slope=2.0)
    f, g = (constant_trajectory(random_band_limited_field(spec, i), times) for i in range(2))
    shifted = []
    for traj, mean in ((f, 0.7), (g, -2.5)):
        coeffs = traj.coeffs.copy()
        coeffs[:, 0, 0] += mean
        shifted.append(Trajectory(grid64, times, coeffs))
    got = duhamel_bilinear(*shifted, params_sym).coeffs
    ref = duhamel_bilinear(f, g, params_sym).coeffs
    assert np.all(got[:, 0, 0] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_duhamel_mismatched_grids(grid32, params_sym):
    times = time_grid(0.5, 5)
    f = constant_trajectory(sine_field(grid32, (1, 0)), times)
    g = constant_trajectory(sine_field(GridSpec(64, 64), (1, 0)), times)
    with pytest.raises(ValueError, match="mismatched"):
        duhamel_bilinear(f, g, params_sym)


def test_duhamel_matches_quadratic_trapezoid_sum(grid64, params):
    """The linear-time recursion reproduces the explicit trapezoid sum
    dt [E^i N_0 / 2 + sum_{0<j<i} E^{i-j} N_j + N_i / 2] on a time-varying trajectory."""
    theta0 = unit_random_field(grid64, 5, params.s)
    traj = semigroup_trajectory(theta0, time_grid(0.5, 33), params)
    got = duhamel_bilinear(traj, traj, params).coeffs
    N = np.array([nonlinear_term(f).coeffs for f in traj.fields()])
    A = dissipation_symbol((grid64.k1, grid64.k2), params)
    dt = traj.dt
    ref = np.zeros_like(N)
    for i in range(1, traj.n_nodes):
        acc = 0.5 * (np.exp(-i * dt * A) * N[0] + N[i])
        for j in range(1, i):
            acc = acc + np.exp(-(i - j) * dt * A) * N[j]
        ref[i] = dt * acc
    ref = ref[..., :grid64.n2 // 2 + 1]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("stack", ["random", "ones", "random_from_nonzero"])
def test_duhamel_sum_in_place_matches_recursion_formula_bitwise(grid64, params, stack):
    """The in-place recursion gives the bits of the one-line formula
    out[i] = E out[i-1] + (dt/2)(E N[i-1] + N[i]) at every half-layout node: from
    zero on a complex stack and on calibration's all-ones input (the scalar 1.0
    at each node), and from a nonzero complex node 0."""
    n, dt = 17, 0.37 / 16
    rng = np.random.default_rng(7)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h = grid64.n2 // 2 + 1
    N = [1.0] * n if stack == "ones" else complex_normal(n, *grid64.half_shape)
    E = np.exp(-dt * dissipation_symbol((grid64.k1, grid64.k2[:, :h]), params))
    ref = np.zeros((n, *grid64.half_shape), dtype=np.complex128)
    out0 = None
    if stack == "random_from_nonzero":
        ref[0] = out0 = complex_normal(*grid64.half_shape)
    for i in range(1, n):
        ref[i] = E * ref[i - 1] + 0.5 * dt * (E * N[i - 1] + N[i])
    got = recursion_stack(N, dt, grid64, params, None if out0 is None else out0.copy())
    assert got.tobytes() == ref.tobytes()


def test_duhamel_bilinear_is_duhamel_sum_of_kernel_stack_bitwise(grid64, params):
    """The node-by-node operator gives the bits of the recursion from zero over
    the explicit stack of kernels div(theta1 u_theta2), for two distinct inputs."""
    import aqgsim.solver as solver

    times = time_grid(0.3, 17)
    traj1, traj2 = (semigroup_trajectory(unit_random_field(grid64, seed, params.s), times, params)
                    for seed in (5, 6))
    N = np.array([solver._nonlinear_raw(a, grid64, velocity_coeffs=b)[0]
                  for a, b in zip(traj1.coeffs, traj2.coeffs)])
    got = duhamel_bilinear(traj1, traj2, params).coeffs
    assert got.tobytes() == recursion_stack(N, traj1.dt, grid64, params).tobytes()


def test_node_stacks_held_by_picard_and_duhamel(params_sym):
    """At 64^2 with 64 nodes the traced peak of a Picard solve, plain or
    weighted, stays under 0.75 full (n_nodes, n1, n2) complex stacks: the
    iterate is one half-layout (n_nodes, n1, n2/2 + 1) stack, plus per-node
    temporaries, with no L0, kernel, Duhamel or full-layout stack.
    `duhamel_bilinear` holds its half-layout output stack only."""
    import tracemalloc

    grid = GridSpec(64, 64)
    stack_bytes = 64 * grid.n1 * grid.n2 * 16
    theta0 = unit_random_field(grid, 4, params_sym.s)
    cfg = PicardConfig(T=0.1, n_nodes=64, max_iter=3)
    L0 = semigroup_trajectory(theta0, time_grid(cfg.T, cfg.n_nodes), params_sym)
    runs = {"picard_solve": lambda: picard_solve(theta0, cfg, params_sym),
            "weighted_picard_solve": lambda: weighted_picard_solve(theta0, cfg, params_sym),
            "duhamel_bilinear": lambda: duhamel_bilinear(L0, L0, params_sym)}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * stack_bytes, (name, peak / stack_bytes)


def test_duhamel_trapezoid_self_convergence(grid64, params_sym):
    """Successive node doublings shrink the quadrature error like n^-2."""
    f = unit_random_field(grid64, 3, 1.0)
    g = unit_random_field(grid64, 4, 1.0)
    outs = {}
    for n in (9, 17, 33):
        times = time_grid(1.0, n)
        outs[n] = duhamel_bilinear(constant_trajectory(f, times),
                                   constant_trajectory(g, times), params_sym)

    def diff(a, b, stride):
        d = a.coeffs - b.coeffs[::stride]
        w = half_sobolev_weight(grid64, 1.0)
        return np.max(np.sqrt(np.sum(w * np.abs(d) ** 2, axis=(1, 2))))

    e1 = diff(outs[9], outs[17], 2)
    e2 = diff(outs[17], outs[33], 2)
    assert 3.0 < e1 / e2 < 5.5


# ---------------------------------------------------------------------------
# Picard iterations
# ---------------------------------------------------------------------------


def test_picard_zero_data(grid32, params_sym):
    cfg = PicardConfig(T=0.5, n_nodes=5)
    rep = picard_solve(zero_field(grid32), cfg, params_sym)
    assert rep.converged
    assert rep.iterations == 0
    assert np.max(np.abs(rep.trajectory.coeffs)) == 0.0


def test_picard_single_mode_is_semigroup(grid32, params_sym):
    theta0 = sine_field(grid32, (1, 0))
    _, T = existence_time(sobolev_norm(theta0, 1.0), params_sym, TABLE)
    cfg = PicardConfig(T=T, n_nodes=9, tol=1e-12)
    rep = picard_solve(theta0, cfg, params_sym)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.distances[0] < 1e-14
    exact = semigroup_trajectory(theta0, rep.trajectory.times, params_sym)
    assert np.max(np.abs(rep.trajectory.coeffs - exact.coeffs)) < 1e-13


def test_picard_random_data_contracts(grid64, params_sym):
    theta0 = unit_random_field(grid64, 7, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    _, T = existence_time(1.0, params_sym, table)
    cfg = PicardConfig(T=T, n_nodes=17, tol=1e-11)
    rep = picard_solve(theta0, cfg, params_sym)
    assert rep.converged
    assert rep.within
    assert all(r <= 0.5 for r in rep.contraction_ratios)
    # distances strictly decreasing once the iteration starts contracting
    ds = rep.distances
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def test_picard_limit_is_discrete_mild_solution(grid64, params_sym):
    theta0 = unit_random_field(grid64, 8, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    _, T = existence_time(1.0, params_sym, table)
    cfg = PicardConfig(T=T, n_nodes=17, tol=1e-11)
    rep = picard_solve(theta0, cfg, params_sym)
    L0 = semigroup_trajectory(theta0.dealiased(), rep.trajectory.times, params_sym)
    B = duhamel_bilinear(rep.trajectory, rep.trajectory, params_sym)
    resid = L0.coeffs - B.coeffs - rep.trajectory.coeffs
    w = half_sobolev_weight(grid64, params_sym.s)
    worst = np.max(np.sqrt(np.sum(w * np.abs(resid) ** 2, axis=(1, 2))))
    assert worst < 10 * cfg.tol


def test_picard_iterates_beyond_the_existence_time(grid32, params_sym):
    """A horizon outside the existence interval is iterated, not refused: the
    report covers [0, cfg.T] and says whether the map contracted there."""
    theta0 = unit_random_field(grid32, 6, params_sym.s)
    _, T0 = existence_time(1.0, params_sym, TABLE)
    cfg = PicardConfig(T=3.0 * T0, n_nodes=9, max_iter=20)
    rep = picard_solve(theta0, cfg, params_sym)
    assert rep.trajectory.times[-1] == cfg.T
    assert rep.converged or rep.note == "diverging distances"


def test_picard_divergence_reported_not_raised(grid32, params_sym):
    # with large data the discrete map expands at T = 5; three consecutive
    # distance growths end the run as a finding
    theta0 = unit_random_field(grid32, 1, 1.0) * 5.0
    cfg = PicardConfig(T=5.0, n_nodes=9, max_iter=15)
    rep = picard_solve(theta0, cfg, params_sym)
    assert not rep.converged
    assert "diverging distances" in rep.note
    assert rep.iterations < cfg.max_iter


@pytest.mark.parametrize("solve", [picard_solve, weighted_picard_solve])
def test_one_picard_iteration_is_the_recursion_from_minus_theta0(grid64, params_sym, solve):
    """The first iterate is byte for byte the negated Duhamel recursion on the
    half layout from -theta0 over the kernels of L0, and agrees with
    L0 - B(L0, L0), L0 from `semigroup_trajectory` and B from `duhamel_bilinear`,
    within 1e-14 relative H^s at every node. Its distance is the largest node
    H^s norm of its difference from L0."""
    import aqgsim.solver as solver

    s = params_sym.s
    theta0 = unit_random_field(grid64, 5, s)
    rep = solve(theta0, PicardConfig(T=0.3, n_nodes=17, max_iter=1), params_sym)
    L0 = semigroup_trajectory(theta0, rep.trajectory.times, params_sym)
    kernels = (solver._nonlinear_raw(c, grid64)[0] for c in L0.coeffs)
    first = -recursion_stack(kernels, L0.dt, grid64, params_sym, -theta0.half)
    assert rep.trajectory.coeffs.tobytes() == first.tobytes()
    mild = L0.coeffs - duhamel_bilinear(L0, L0, params_sym).coeffs
    assert np.all(_hs_norms(first - mild, grid64, s) <= 1e-14 * _hs_norms(mild, grid64, s))
    assert rep.distances == [float(np.max(_hs_norms(first - L0.coeffs, grid64, s)))]


def test_picard_exp_calls_are_nodes_plus_iterations(grid32, params_sym, monkeypatch):
    """A plain solve with n nodes and k iterations exponentiates a half-layout
    array n + k times: the nodes of L0 once, and E = exp(-dt A) once per
    iteration."""
    calls = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        if np.shape(x) == grid32.half_shape:
            calls.append(1)
        return exp(x, *args, **kwargs)

    theta0 = unit_random_field(grid32, 4, params_sym.s)
    cfg = PicardConfig(T=0.2, n_nodes=9, max_iter=8, tol=1e-300)
    monkeypatch.setattr(np, "exp", counting)
    rep = picard_solve(theta0, cfg, params_sym)
    monkeypatch.undo()
    assert rep.iterations >= 3
    assert len(calls) == cfg.n_nodes + rep.iterations


@pytest.mark.parametrize("solve", [picard_solve, weighted_picard_solve])
@pytest.mark.parametrize("amplitude", [1e120, 1e200])
def test_picard_non_finite_distance_ends_the_run(grid32, params_sym, solve, amplitude):
    """Overflowing data ends the run at the first non-finite distance. At 1e120
    the distances of the first iterate's nodes are 0 (node 0, which is L0) and
    inf; at 1e200 the kernel overflows and they are 0 and NaN, which a reduction
    that drops NaN would read as 0, a converged run. The sup is infinite, so it
    is not within the ball, even at 1e200, where the bound is infinite too."""
    theta0 = unit_random_field(grid32, 1, params_sym.s) * amplitude
    with np.errstate(all="ignore"):
        rep = solve(theta0, PicardConfig(T=0.5, n_nodes=9, max_iter=8), params_sym)
    assert not rep.converged
    assert rep.iterations == 1 and not math.isfinite(rep.distances[0])
    assert rep.note == "non-finite distances"
    assert rep.sup_hs == math.inf and rep.within is False
    assert rep.weighted_within is (None if solve is picard_solve else False)


def test_weighted_picard_single_mode_weight_cancels_decay(grid32, params_sym):
    """On sin(x1) the weight exp(t) exactly cancels the decay exp(-t)."""
    theta0 = sine_field(grid32, (1, 0))
    norm0 = sobolev_norm(theta0, params_sym.s)
    _, T1 = existence_time(norm0, params_sym, TABLE, weighted=True)
    cfg = PicardConfig(T=T1, n_nodes=9)
    rep = weighted_picard_solve(theta0, cfg, params_sym)
    assert rep.converged
    assert all(v == pytest.approx(norm0, rel=1e-12)
               for v in weighted_norm_trace(rep.trajectory, params_sym, params_sym.s))
    assert rep.weighted_within


def test_weighted_picard_random_data_ball(grid64, params_sym):
    theta0 = unit_random_field(grid64, 9, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    _, T1 = existence_time(1.0, params_sym, table, weighted=True)
    assert T1 < LOG_3_2
    cfg = PicardConfig(T=T1, n_nodes=17)
    rep = weighted_picard_solve(theta0, cfg, params_sym)
    assert rep.converged
    assert rep.weighted_sup <= 2.0 * (1.0 + 1e-6)
    assert weight_domination_slack(params_sym, T1, grid64) <= 1e-12


def test_weighted_picard_forms_each_gevrey_norm_once(grid32, params_sym, monkeypatch):
    """A weighted solve weighs every node of L0 and of each iterate once, one
    node at a time."""
    import aqgsim.norms as norms

    calls = []
    build = norms._gevrey_weights

    def counting(grid, times, p):
        calls.append(len(times))
        return build(grid, times, p)

    monkeypatch.setattr(norms, "_gevrey_weights", counting)
    theta0 = unit_random_field(grid32, 4, params_sym.s)
    _, T1 = existence_time(1.0, params_sym, TABLE, weighted=True)
    cfg = PicardConfig(T=T1, n_nodes=9, tol=1e-12)
    rep = weighted_picard_solve(theta0, cfg, params_sym)
    assert rep.converged and rep.iterations >= 2
    assert calls == [1] * (cfg.n_nodes * (rep.iterations + 1))


def test_every_gevrey_norm_takes_its_weight_from_one_builder(grid32, params_sym, monkeypatch):
    """The march trace, the gevrey report, the Picard sups and calibration all
    build their Gevrey weights with `_gevrey_weights`: one weight per trace row
    and per report row at its time, one per Picard node at the node's time, and
    one stack of the four horizons per calibrated parameter set."""
    import aqgsim.norms as norms
    import aqgsim.solver as solver
    from aqgsim.diagnostics import build_gevrey_report

    calls = []
    build = norms._gevrey_weights

    def counting(grid, times, p):
        calls.append(tuple(np.asarray(times).tolist()))
        return build(grid, times, p)

    for module in (norms, solver):
        monkeypatch.setattr(module, "_gevrey_weights", counting)
    theta0 = unit_random_field(grid32, 4, params_sym.s)
    res = evolve(theta0, 0.05, params_sym)
    assert calls == [(t,) for t in res.trace.t]
    calls.clear()
    build_gevrey_report([0.0, res.t_final], [theta0, res.final], params_sym, params_sym.s)
    assert calls == [(0.0,), (res.t_final,)]
    calls.clear()
    _, T1 = existence_time(1.0, params_sym, TABLE, weighted=True)
    rep = weighted_picard_solve(theta0, PicardConfig(T=T1, n_nodes=9, tol=1e-12), params_sym)
    assert sorted(set(calls)) == [(t,) for t in rep.trajectory.times.tolist()]
    calls.clear()
    calibrate_constants(params_sym, n_samples=1)
    assert calls == [solver._CALIBRATION_HORIZONS]


def test_weight_domination_scalar_scan():
    """Mode-wise exp((t/2)B - tA) <= e^t over a million random (k, t) pairs."""
    p = DissipParams(0.75, 0.75)
    rng = np.random.default_rng(77)
    k1 = rng.uniform(0.0, 200.0, size=1_000_000)
    k2 = rng.uniform(0.0, 200.0, size=1_000_000)
    t = rng.uniform(0.0, LOG_3_2, size=1_000_000)
    A = k1 ** (2 * p.alpha) + k2 ** (2 * p.beta)
    B = 2.0 * (k1**p.alpha + k2**p.beta)
    log_ratio = 0.5 * t * B - t * A - t
    assert np.max(log_ratio) <= math.log1p(1e-12)


def test_weight_domination_slack_grid(grid64, params_sym):
    assert weight_domination_slack(params_sym, 0.4, grid64) <= 0.0


# ---------------------------------------------------------------------------
# constant calibration
# ---------------------------------------------------------------------------


def test_calibration_positive_and_deterministic(params_sym):
    a = calibrate_constants(params_sym, n_samples=3, seed=4)
    b = calibrate_constants(params_sym, n_samples=3, seed=4)
    assert a == b
    for name in ("C1", "C2", "C3", "C4"):
        assert getattr(a, name) > 0.0


def test_calibration_monotone_in_samples(params_sym):
    small = calibrate_constants(params_sym, n_samples=3, seed=4)
    large = calibrate_constants(params_sym, n_samples=6, seed=4)
    for name in ("C1", "C2", "C3", "C4"):
        assert getattr(large, name) >= getattr(small, name)


def test_calibration_one_kernel_call_per_field_pair(params_sym, kernel_calls):
    calibrate_constants(params_sym, n_samples=3, seed=4)
    assert len(kernel_calls) == 3


@pytest.mark.parametrize("p", [DissipParams(0.75, 0.75, s=1.0),
                               DissipParams(0.6, 0.9, s=1.2)])
def test_calibration_weighted_input_sup_matches_full_loop(p):
    """Calibration takes the Duhamel sum of its constant nonlinearity N at the
    last node as W_T N, with W_i the node-i value of the all-ones Duhamel sum, and
    every sup over a horizon at t = T. Evaluated over all 33 nodes instead: the
    plain and weighted sups of W_i N are at the last node, the Gevrey norms of f
    and g at T are their maxima over the node times, and C1..C4 come out bitwise
    twice the max ratios. W_T N agrees with the last node of the
    Duhamel sum of the constant N stack to rounding."""
    import aqgsim.solver as solver

    fast_table = calibrate_constants(p, n_samples=3, seed=4)
    grid, s, n = GridSpec(64, 64), p.s, 33
    spec = FieldEnsembleSpec(grid, seed=4, count=6, kmax=10, spectrum_slope=2.0)
    ratios = {"C1": 0.0, "C2": 0.0, "C3": 0.0, "C4": 0.0}
    for i in range(3):
        f = random_band_limited_field(spec, 2 * i)
        g = random_band_limited_field(spec, 2 * i + 1)
        nf, ng = sobolev_norm(f, s), sobolev_norm(g, s)
        N = solver._nonlinear_raw(f.half, grid, velocity_coeffs=g.half)[0]
        for T in solver._CALIBRATION_HORIZONS:
            times = time_grid(T, n)
            W = recursion_stack(itertools.repeat(1.0, n), times[1], grid, p,
                                np.zeros(grid.half_shape, complex))
            stack = W * N
            reference = recursion_stack(itertools.repeat(N, n), times[1], grid, p,
                                        np.zeros(grid.half_shape, complex))
            assert np.all(np.abs(stack[-1] - reference[-1]) <= 1e-14 * np.abs(reference[-1]))
            plain = _hs_norms(stack, grid, s)
            weighted = [gevrey_weighted_norm(SpectralField(grid, c), t, s, p)
                        for c, t in zip(stack, times)]
            assert np.max(plain) == plain[-1] and max(weighted) == weighted[-1]
            nfw, ngw = (max(gevrey_weighted_norm(h, t, s, p) for t in times)
                        for h in (f, g))
            assert nfw == gevrey_weighted_norm(f, T, s, p)
            assert ngw == gevrey_weighted_norm(g, T, s, p)
            g1 = solver._power_sum(T, solver._step1_exponents(p))
            g2 = solver._power_sum(T, solver._step2_exponents(p))
            eT = math.exp(T)
            found = {"C1": float(np.max(plain)) / (g1 * nf * ng),
                     "C3": max(weighted) / (eT * g1 * nfw * ngw)}
            if g2 > 0.0:
                found.update(C2=float(np.max(plain)) / (g2 * nf * ng),
                             C4=max(weighted) / (eT * g2 * nfw * ngw))
            for name, ratio in found.items():
                ratios[name] = max(ratios[name], ratio)
    # above the 1e-12 floor, the table pins every ratio bitwise
    assert all(ratio > 1e-12 for ratio in ratios.values())
    assert fast_table == ConstantsTable(*(2.0 * ratios[k] for k in ratios))


def _former_gevrey_norm(coeffs, grid, t, s, p):
    """Reference: the weighted norm as calibration took it, one weight per call,
    with the cap check and the non-finite reading."""
    from aqgsim.norms import WEIGHT_CAP, _hs_norm

    exponent = 0.5 * t * gevrey_multiplier(grid, p)
    if not exponent.max() <= WEIGHT_CAP:
        live = coeffs != 0.0
        if np.any(live & (exponent > WEIGHT_CAP)):
            return math.inf
        exponent = np.where(live, exponent, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _hs_norm(np.exp(exponent) * coeffs, grid, s)
    return value if math.isfinite(value) else math.inf


def _expression_calibration(p, n_samples, seed):
    """Reference: calibration as one loop per parameter set, the samples in the
    outer loop and the horizons in the inner one, each norm taken per horizon."""
    import collections

    import aqgsim.solver as solver
    from aqgsim.norms import _hs_norm

    grid, n_nodes = solver._CALIBRATION_GRID, solver._CALIBRATION_NODES
    spec = FieldEnsembleSpec(grid, seed=seed, count=2 * n_samples, kmax=solver._CALIBRATION_KMAX,
                             spectrum_slope=solver._CALIBRATION_SLOPE)
    s = p.s
    horizons = [(T, collections.deque(solver._duhamel_nodes(
                    itertools.repeat(1.0, n_nodes), T / (n_nodes - 1), grid, p), maxlen=1)[0],
                 solver._power_sum(T, solver._step1_exponents(p)),
                 solver._power_sum(T, solver._step2_exponents(p)), math.exp(T))
                for T in solver._CALIBRATION_HORIZONS]
    ratios = {"C1": 0.0, "C2": 0.0, "C3": 0.0, "C4": 0.0}
    for i in range(n_samples):
        f = random_band_limited_field(spec, 2 * i)
        g = random_band_limited_field(spec, 2 * i + 1)
        nf, ng = sobolev_norm(f, s), sobolev_norm(g, s)
        Nfg, _ = solver._nonlinear_raw(f.half, grid, velocity_coeffs=g.half)
        for T, W_T, g1, g2, eT in horizons:
            B = W_T * Nfg
            lhs_plain = _hs_norm(B, grid, s)
            if g1 > 0.0:
                ratios["C1"] = max(ratios["C1"], lhs_plain / (g1 * nf * ng))
            if g2 > 0.0:
                ratios["C2"] = max(ratios["C2"], lhs_plain / (g2 * nf * ng))
            lhs_w = _former_gevrey_norm(B, grid, T, s, p)
            nfw = _former_gevrey_norm(f.half, grid, T, s, p)
            ngw = _former_gevrey_norm(g.half, grid, T, s, p)
            if g1 > 0.0:
                ratios["C3"] = max(ratios["C3"], lhs_w / (eT * g1 * nfw * ngw))
            if g2 > 0.0:
                ratios["C4"] = max(ratios["C4"], lhs_w / (eT * g2 * nfw * ngw))
    return ConstantsTable(*(2.0 * max(ratios[k], 1e-12) for k in ("C1", "C2", "C3", "C4")))


def _hex(table):
    return [float.hex(getattr(table, name)) for name in ("C1", "C2", "C3", "C4")]


# two lattices, each sharing its s: alpha > beta, alpha < beta, mu and nu off 1,
# and s below 1 (the step-1 condition alone) as well as above
_CALIBRATION_LATTICES = (
    [DissipParams(0.75, 0.75, s=1.0), DissipParams(0.9, 0.6, s=1.0),
     DissipParams(0.6, 0.9, mu=0.7, nu=1.9, s=1.0)],
    [DissipParams(0.8, 0.65, s=0.7), DissipParams(0.55, 0.95, mu=1.3, nu=0.4, s=0.7)],
)


@pytest.mark.parametrize("n_samples", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 5])
def test_calibration_tables_are_those_of_the_per_horizon_loop_bitwise(n_samples, seed):
    """The one-pass calibration, alone or over a lattice, gives every constant
    of the per-sample, per-horizon loop bit for bit."""
    for lattice in _CALIBRATION_LATTICES:
        tables = calibrate_constants(lattice, n_samples=n_samples, seed=seed)
        assert isinstance(tables, list) and len(tables) == len(lattice)
        for p, table in zip(lattice, tables):
            want = _hex(_expression_calibration(p, n_samples, seed))
            assert _hex(table) == want, p
            single = calibrate_constants(p, n_samples=n_samples, seed=seed)
            assert isinstance(single, ConstantsTable) and _hex(single) == want, p


def test_calibration_lattice_must_share_s():
    with pytest.raises(ValueError, match="sharing s"):
        calibrate_constants([DissipParams(0.75, 0.75, s=1.0), DissipParams(0.75, 0.75, s=1.2)])
    with pytest.raises(ValueError, match="sharing s"):
        calibrate_constants([])


def test_calibration_lattice_draws_and_kernels_each_sample_once(kernel_calls, monkeypatch):
    import aqgsim.solver as solver

    draws = []
    draw = solver.random_band_limited_field

    def counting(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(solver, "random_band_limited_field", counting)
    calibrate_constants(_CALIBRATION_LATTICES[0], n_samples=3, seed=4)
    assert len(kernel_calls) == 3 and len(draws) == 6


@pytest.mark.parametrize("p", [DissipParams(0.75, 0.75, s=1.0), _CALIBRATION_LATTICES[0]])
def test_calibration_builds_its_gevrey_weights_once(p, monkeypatch):
    """The exp calls on arrays of the calibration grid's half shape (or stacks
    of them), the Duhamel factors and the Gevrey weights, do not grow with the
    number of samples."""
    import aqgsim.solver as solver

    half = solver._CALIBRATION_GRID.half_shape
    calls = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        if np.shape(x)[-2:] == half:
            calls.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    counts = []
    for n_samples in (1, 4):
        calls.clear()
        calibrate_constants(p, n_samples=n_samples, seed=3)
        counts.append(len(calls))
    n_params = 1 if isinstance(p, DissipParams) else len(p)
    # per parameter set: one Duhamel factor per horizon and one weight stack
    assert counts == [5 * n_params] * 2


def _bare_product_sup(grid, times, coeffs, p, s):
    """The weighted sup of a half-layout stack as a plain product loop, with no
    overflow policy."""
    B = gevrey_multiplier(grid, p)
    worst = 0.0
    for i, t in enumerate(times):
        worst = max(worst, float(_hs_norms(np.exp(0.5 * float(t) * B) * coeffs[i], grid, s)))
    return worst


@pytest.mark.parametrize("grid, p", [
    (GridSpec(64, 64), DissipParams(0.75, 0.75, s=1.0)),
    (GridSpec(32, 48), DissipParams(0.6, 0.85, mu=0.7, nu=1.9, s=1.3)),
])
def test_weighted_sup_matches_bare_product_loop(grid, p):
    import aqgsim.solver as solver

    times = time_grid(0.4, 9)
    stack = semigroup_trajectory(unit_random_field(grid, 5, p.s), times, p).coeffs
    got = solver._weighted_sup(grid, times, stack, p, p.s)
    assert 0.0 < got < math.inf
    assert got == _bare_product_sup(grid, times, stack, p, p.s)


def test_weighted_sup_of_saturated_node_is_inf():
    import aqgsim.solver as solver

    grid = GridSpec(64, 64)
    p = DissipParams(0.75, 0.75, s=400.0)  # (1+|k|^2)^400 overflows inside the band
    f = unit_random_field(grid, 0, 1.0, kmax=10)
    with np.errstate(over="ignore", invalid="ignore"):
        assert gevrey_weighted_norm(f, 0.25, p.s, p) == math.inf
        assert solver._weighted_sup(grid, np.array([0.25]), f.half[None], p, p.s) == math.inf


def test_constants_table_validation():
    with pytest.raises(ValueError):
        ConstantsTable(1.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: evolve(sine_field(GridSpec(16, 16), (1, 0)), math.nan, DissipParams(0.75, 0.75)),
     "evolve horizon must be positive"),
    (lambda: PicardConfig(T=math.nan), "PicardConfig.T must be positive"),
    (lambda: PicardConfig(T=0.1, tol=math.nan), "PicardConfig.tol must be positive"),
    (lambda: ConstantsTable(math.nan, 1.0, 1.0, 1.0), "C1 must be positive"),
    (lambda: existence_time(math.nan, DissipParams(0.75, 0.75), TABLE),
     "theta0_norm must be nonnegative"),
], ids=["evolve.T", "PicardConfig.T", "PicardConfig.tol", "ConstantsTable.C1",
        "existence_time.theta0_norm"])
def test_nan_fails_positivity_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# the march
# ---------------------------------------------------------------------------


def test_interrupted_march_ends_at_the_last_accepted_state(grid32, params):
    """An interrupt from on_checkpoint ends the march as an abort: its final
    state and trace are bit for bit those of a march that ends at the checkpoint."""
    theta0 = unit_random_field(grid32, 3, params.s)

    def interrupt(t, f):
        raise KeyboardInterrupt

    cut = evolve(theta0, 0.2, params, dt_fixed=0.01, checkpoint_times=[0.1],
                 on_checkpoint=interrupt)
    straight = evolve(theta0, 0.1, params, dt_fixed=0.01)
    assert cut.aborted and cut.interrupted and not straight.interrupted
    assert cut.abort_reason == "interrupted at t=0.1" and cut.t_final == straight.t_final
    assert cut.final.coeffs.tobytes() == straight.final.coeffs.tobytes()
    assert cut.trace.to_csv() == straight.trace.to_csv()
    assert cut.accepted_steps == straight.accepted_steps


def test_interrupt_while_recording_leaves_no_partial_row(grid32, params, monkeypatch):
    """An interrupt halfway through recording the row of step 3 drops that
    partial row; the trace then ends with step 3's whole row, as recorded by an
    uninterrupted march."""
    import aqgsim.solver as solver

    theta0 = unit_random_field(grid32, 3, params.s)
    straight = evolve(theta0, 0.2, params, dt_fixed=0.01)
    record, cuts = solver._record, []

    def cut_short(trace, grid, p, t, *args):
        if len(trace.t) == 3 and not cuts:
            cuts.append(t)
            trace.t.append(t)
            trace.l2.append(0.0)
            raise KeyboardInterrupt
        record(trace, grid, p, t, *args)

    monkeypatch.setattr(solver, "_record", cut_short)
    cut = evolve(theta0, 0.2, params, dt_fixed=0.01)
    assert cut.abort_reason == "interrupted at t=0.03" and cut.t_final == cuts[0]
    assert cut.trace.to_csv().splitlines() == straight.trace.to_csv().splitlines()[:5]


def test_evolve_linear_matches_semigroup(grid64, params):
    theta0 = unit_random_field(grid64, 11, 0.0, kmax=21, slope=2.5) * 0.5
    res = evolve(theta0, 1.0, params, nonlinear=False, dt_max=0.05)
    assert not res.aborted
    exact = apply_semigroup(theta0.dealiased(), 1.0, params)
    nz = np.abs(exact.coeffs) > 0
    rel = np.max(np.abs(res.final.coeffs[nz] - exact.coeffs[nz]) / np.abs(exact.coeffs[nz]))
    assert rel < 1e-10


def test_evolve_two_mode_exact_decay(grid32):
    p = DissipParams(0.75, 0.75, s=1.0)
    theta0 = sine_field(grid32, (1, 0)) + sine_field(grid32, (0, 1))
    res = evolve(theta0, 0.5, p, rtol=1e-9, atol=1e-13)
    exact = apply_semigroup(theta0, 0.5, p)
    assert sobolev_norm(res.final - exact, 1.0) < 1e-9


def energy_residual(trace):
    """max |L2(t)^2 + int_0^t D - L2(0)^2| over the trace's rows."""
    l2 = np.array(trace.l2)
    return float(np.max(np.abs(l2**2 + np.array(trace.diss_integral) - l2[0] ** 2)))


@pytest.mark.parametrize("march", [{"dt_fixed": 1e-3}, {"rtol": 1e-8}], ids=["fixed", "adaptive"])
def test_evolve_l2_monotone_and_energy_balance(grid64, params, march):
    theta0 = unit_random_field(grid64, 12, 0.0) * 0.25
    res = evolve(theta0, 0.1, params, **march)
    assert not res.aborted
    assert np.all(np.diff(np.array(res.trace.l2)) <= 1e-15)
    assert energy_residual(res.trace) / 0.1 < 1e-6


def test_evolve_energy_quadrature_is_fourth_order(grid64, params):
    """On the energy-law criterion's setup, the energy residual falls about 16x
    per halving of a fixed step: the Hermite rule and the step are fourth order."""
    theta0 = unit_random_field(grid64, 12, 0.0, kmax=8, slope=3.0) * 0.25
    resid = [energy_residual(evolve(theta0, 0.25, params, dt_fixed=dt).trace)
             for dt in (4e-3, 2e-3, 1e-3)]
    ratios = [a / b for a, b in zip(resid, resid[1:])]
    assert all(12.0 < r < 20.0 for r in ratios), ratios


def test_evolve_trace_schema_and_stride(grid32, params_sym):
    theta0 = sine_field(grid32, (1, 0))
    res = evolve(theta0, 0.1, params_sym, dt_fixed=0.01, trace_stride=5)
    tr = res.trace
    assert tr.CSV_HEADER == "t,l2,hs,h2,gevrey_hs,diss1,diss2,max_u,dt"
    csv = tr.to_csv().splitlines()
    assert csv[0] == tr.CSV_HEADER
    # rows: initial + every 5th step + final
    assert len(csv) == 1 + len(tr.t)
    assert tr.t[0] == 0.0
    assert tr.t[-1] == pytest.approx(0.1, rel=1e-12)


def test_evolve_checkpoint_hook_called_exactly(grid32, params_sym):
    theta0 = sine_field(grid32, (1, 0))
    seen = []
    evolve(theta0, 0.4, params_sym, dt_fixed=0.03,
           checkpoint_times=[0.2], on_checkpoint=lambda t, f: seen.append((t, f)))
    assert len(seen) == 1
    assert seen[0][0] == pytest.approx(0.2, rel=1e-12)
    exact = apply_semigroup(theta0, seen[0][0], params_sym)
    assert sobolev_norm(seen[0][1] - exact, 1.0) < 1e-12


def test_evolve_aborts_on_overflow(grid32, params_sym):
    """The march ends at its last finite state, whose row ends the trace even
    when the stride would not have recorded it."""
    theta0 = unit_random_field(grid32, 14, 0.0) * 1e9
    for trace_stride in (1, 5):
        res = evolve(theta0, 50.0, params_sym, dt_fixed=1.0, trace_stride=trace_stride)
        assert res.aborted
        assert "non-finite" in res.abort_reason
        assert np.all(np.isfinite(res.final.coeffs.view(np.float64)))
        assert res.t_final > 0.0 and res.trace.t[-1] == res.t_final


def test_evolve_aborts_on_non_finite_error_norm(grid32):
    """(1+|k|^2)^400 overflows, so the H^s error norm is NaN: abort at once rather
    than accept every step while dt collapses."""
    theta0 = unit_random_field(grid32, 3, 0.0)
    with np.errstate(all="ignore"):
        res = evolve(theta0, 0.1, DissipParams(0.75, 0.75, s=400.0))
    assert res.aborted
    assert res.abort_reason == "non-finite error norm at t=0"
    assert res.accepted_steps == res.rejected_steps == 0


def test_evolve_aborts_when_the_step_collapses(grid32, params):
    """A tolerance no step meets ends the march once a step fails at the dt floor."""
    theta0 = unit_random_field(grid32, 3, 0.0)
    res = evolve(theta0, 0.05, params, rtol=1e-16, atol=0.0)
    assert res.aborted
    assert res.abort_reason.startswith("step size collapsed (dt=")
    assert res.accepted_steps == 0
    assert res.t_final == 0.0


@pytest.mark.parametrize("dt_fixed", [math.nan, -1.0])
def test_evolve_aborts_on_a_bad_fixed_step(grid32, params, dt_fixed):
    """A fixed step that is not a positive number ends the march before any step."""
    res = evolve(unit_random_field(grid32, 3, 0.0), 0.05, params, dt_fixed=dt_fixed)
    assert res.abort_reason == f"step size collapsed (dt={dt_fixed})"
    assert res.accepted_steps == 0 and res.t_final == 0.0


def test_evolve_rtol_sets_the_step_at_loose_tolerances(grid64, params_sym):
    """Each tolerance takes its own steps and meets its own bound in relative H^1."""
    theta0 = unit_random_field(grid64, 5, 1.0, kmax=21, slope=1.5) * 100.0
    ref = evolve(theta0, 0.05, params_sym, rtol=1e-11, trace_stride=10**9).final
    steps = []
    for rtol in (1e-2, 1e-4):
        res = evolve(theta0, 0.05, params_sym, rtol=rtol, trace_stride=10**9)
        steps.append(res.accepted_steps)
        assert sobolev_norm(res.final - ref, 1.0) <= rtol * sobolev_norm(ref, 1.0)
    assert steps[0] < steps[1], steps


def test_phi_functions_match_decimal_reference():
    xs = np.concatenate([np.logspace(-10.0, 3.0, 1500),
                         np.linspace(0.99, 1.01, 201)])
    with localcontext() as ctx:
        ctx.prec = 50
        ref = []
        for d in map(Decimal, xs.tolist()):
            e = (-d).exp()
            ref.append([float((1 - e) / d), float((e - 1 + d) / (d * d)),
                        float((1 - d + d * d / 2 - e) / (d * d * d))])
    ref = np.array(ref).T
    got = np.array(phi_functions(xs))
    assert np.max(np.abs(got - ref) / ref) <= 1e-14
    assert [phi[0] for phi in phi_functions(np.array([0.0]))] == [1.0, 0.5, 1.0 / 6.0]
    # no jump where the series hands over to the closed form
    for below, at in phi_functions(np.array([np.nextafter(1.0, 0.0), 1.0])):
        assert abs(below - at) <= 1e-14 * at


def test_phi_functions_of_a_stack_are_those_of_its_slices_bitwise(grid64, params):
    """The march's propagators take the phi functions of its 2 or 3 step factors
    in one call on their stack; each slice has the bits of its own call."""
    A = dissipation_symbol((grid64.k1, grid64.k2), params)
    x = np.multiply.outer([f * 0.013 for f in (1.0, 0.5, 0.25)], A)
    stacked = phi_functions(x)
    assert np.any(x < 1.0) and np.any(x >= 1.0)  # both branches on every slice
    for i in range(x.shape[0]):
        for got, want in zip(stacked, phi_functions(x[i])):
            assert got[i].tobytes() == want.tobytes()
        assert np.exp(-x)[i].tobytes() == np.exp(-x[i]).tobytes()


def test_march_trace_max_u_is_that_of_the_recorded_state(monkeypatch):
    """max |u| is formed only at the states the trace records, and each row's
    is the max |u| of its state, on the march benchmark's config (64^2, the
    seed-1 field at unit H^s norm, rtol 1e-8 to T = 0.2)."""
    import aqgsim.solver as solver
    from aqgsim.operators import _velocity

    grid = GridSpec(64, 64)
    p = DissipParams(0.75, 0.75, s=1.0)
    theta0 = unit_random_field(grid, 1, p.s, kmax=10)
    recorded = []
    record = solver._record

    def keeping(trace, grid, p, t, c, max_u, dt, diss_int):
        recorded.append(c.copy())
        return record(trace, grid, p, t, c, max_u, dt, diss_int)

    asked = []
    kernel = solver._nonlinear_raw

    def counting(*args, with_max_u=False, **kwargs):
        asked.append(with_max_u)
        return kernel(*args, with_max_u=with_max_u, **kwargs)

    monkeypatch.setattr(solver, "_record", keeping)
    monkeypatch.setattr(solver, "_nonlinear_raw", counting)
    res = evolve(theta0, 0.2, p, rtol=1e-8)
    assert len(recorded) == len(res.trace.max_u) == res.accepted_steps + 1
    assert sum(asked) == res.accepted_steps + 1 and len(asked) == res.kernel_calls
    assert res.trace.max_u == [_velocity(c, grid, with_max_u=True)[2] for c in recorded]


def test_evolve_fourth_order_self_convergence(grid64, params):
    """Fixed steps T/4 ... T/64: successive differences shrink by 16 per halving."""
    theta0 = unit_random_field(grid64, 21, params.s)
    finals = [evolve(theta0, 0.2, params, dt_fixed=0.2 / n, trace_stride=10**9).final
              for n in (4, 8, 16, 32, 64)]
    diffs = [sobolev_norm(a - b, params.s) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(3.9 < q < 4.1 for q in orders), orders


def test_evolve_kernel_calls_per_step(grid32, params, kernel_calls):
    """Accepted steps cost 11 kernel calls, rejected ones 10, fixed steps 4."""
    theta0 = unit_random_field(grid32, 3, 0.0)
    # a tolerance this tight rejects at least one step
    res = evolve(theta0, 0.02, params, rtol=1e-12, atol=0.0)
    assert res.accepted_steps == len(res.trace.t) - 1
    assert res.rejected_steps > 0
    assert res.kernel_calls == len(kernel_calls)
    assert res.kernel_calls == 1 + 11 * res.accepted_steps + 10 * res.rejected_steps
    kernel_calls.clear()
    res = evolve(theta0, 0.02, params, dt_fixed=0.002)
    assert res.accepted_steps == len(res.trace.t) - 1 == 10
    assert res.rejected_steps == 0
    assert res.kernel_calls == len(kernel_calls) == 1 + 4 * 10
    kernel_calls.clear()
    res = evolve(theta0, 0.02, params, nonlinear=False, dt_max=0.002)
    assert res.accepted_steps == len(res.trace.t) - 1 == 10
    assert res.rejected_steps == 0
    assert res.kernel_calls == len(kernel_calls) == 0


@pytest.mark.parametrize("march", [{"dt_fixed": 0.01}, {"rtol": 1e-8}], ids=["fixed", "adaptive"])
def test_one_stepper_step_from_a_checkpoint_matches_evolve(grid32, params, march, tmp_path,
                                                           monkeypatch):
    """From a state that a march wrote as a checkpoint, one `Etdrk4Stepper.step`
    at the march's next dt gives the march's next state bit for bit. With the
    kernel of the new state, the step costs what the march charges for it: 4
    kernel calls fixed, 11 adaptive; a step that a tighter tolerance rejects
    costs 10 and proposes a shorter one."""
    import aqgsim.solver as solver
    from aqgsim.checkpoint import read_checkpoint, write_checkpoint

    states, record = [], solver._record

    def keeping(trace, grid, p, t, c, *args):
        states.append(c.copy())
        record(trace, grid, p, t, c, *args)

    monkeypatch.setattr(solver, "_record", keeping)
    path = tmp_path / "cp.aqgs"
    res = evolve(unit_random_field(grid32, 3, params.s), 0.1, params, checkpoint_times=[0.05],
                 on_checkpoint=lambda t, f: write_checkpoint(path, f, params, t), **march)
    cp = read_checkpoint(path)
    k = res.trace.t.index(cp.t)
    dt = res.trace.dt[k + 1]
    c = cp.field.half
    assert np.array_equal(c, states[k])  # equal up to the sign of zero
    adaptive = "dt_fixed" not in march
    stepper = Etdrk4Stepper(grid32, params, dt, adaptive=adaptive)
    c_new, cause = stepper.step(c, stepper.rhs(c)[0], dt)
    stepper.rhs(c_new)
    assert cause is None and c_new.tobytes() == states[k + 1].tobytes()
    assert stepper.kernel_calls == 1 + (11 if adaptive else 4)
    if not adaptive:
        assert stepper.dt == dt
    else:
        tight = Etdrk4Stepper(grid32, params, dt, rtol=1e-12, atol=0.0)
        assert tight.step(c, tight.rhs(c)[0], dt) == (None, None)
        assert tight.kernel_calls == 1 + 10 and tight.dt < dt


def test_a_linear_step_checks_the_state_too(grid32, params):
    """The linear path has no kernel, yet a non-finite state still fails the step."""
    stepper = Etdrk4Stepper(grid32, params, 0.01, nonlinear=False)
    c = np.zeros(grid32.half_shape, dtype=np.complex128)
    c[1, 1] = math.nan
    assert stepper.step(c, None, 0.01) == (None, "non-finite state")
    assert stepper.kernel_calls == 0


def test_evolve_no_sliver_steps(grid32, params):
    """Adaptive steps reach checkpoints and T without a step far below the last."""
    theta0 = unit_random_field(grid32, 3, 0.0)
    seen = []
    res = evolve(theta0, 0.1, params, checkpoint_times=[0.03, 0.07],
                 on_checkpoint=lambda t, f: seen.append(t))
    assert seen == pytest.approx([0.03, 0.07], rel=1e-12)
    assert res.t_final == pytest.approx(0.1, rel=1e-12)
    dt = np.array(res.trace.dt[1:])
    assert np.min(dt[1:] / dt[:-1]) >= 0.4


def test_evolve_step_shortened_to_a_checkpoint_keeps_its_proposal(grid64, params_sym):
    """A step cut to land on a checkpoint at t = 1e-15 does not leave the march
    to regrow its step from that size: 27 accepted steps and 298 kernel calls
    reach T = 0.2 (43 and 474 when the proposal was lost), within 1e-9
    relative H^1 of an rtol = 1e-12 march."""
    theta0 = unit_random_field(grid64, 1, 1.0, kmax=10)
    res = evolve(theta0, 0.2, params_sym, checkpoint_times=[1e-15, 0.05])
    ref = evolve(theta0, 0.2, params_sym, rtol=1e-12)
    assert res.rejected_steps == 0 and res.kernel_calls <= 300
    assert sobolev_norm(res.final - ref.final, 1.0) <= 1e-9 * sobolev_norm(ref.final, 1.0)


def test_evolve_requires_mean_zero(grid32, params_sym):
    f = field_from_modes(grid32, {(0, 0): 1.0, (1, 0): 0.5j})
    with pytest.raises(ValueError, match="mean-zero"):
        evolve(f, 0.1, params_sym)


# ---------------------------------------------------------------------------
# restart / gluing
# ---------------------------------------------------------------------------


def test_glue_restart_reproduces_full_run(grid64, params, tmp_path):
    from aqgsim.checkpoint import write_checkpoint

    theta0 = unit_random_field(grid64, 13, 0.0) * 0.3
    dt = 1.0 / 256.0
    full = evolve(theta0, 0.5, params, dt_fixed=dt)
    first = evolve(theta0, 0.25, params, dt_fixed=dt)
    path = tmp_path / "mid.aqgs"
    write_checkpoint(path, first.final, params, 0.25)
    second = glue_continue(path, 0.25, params, dt_fixed=dt)
    assert second.t_final == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(second.final.coeffs, full.final.coeffs)
    assert sobolev_norm(second.final - full.final, params.s) <= 1e-8
    # the glued trace carries the global clock
    assert second.trace.t[0] == pytest.approx(0.25, rel=1e-12)


def test_glue_restart_at_zero_identical(grid32, params_sym, tmp_path):
    from aqgsim.checkpoint import write_checkpoint

    theta0 = sine_field(grid32, (1, 0)) * 0.5
    path = tmp_path / "zero.aqgs"
    write_checkpoint(path, theta0, params_sym, 0.0)
    direct = evolve(theta0, 0.2, params_sym, dt_fixed=0.01)
    glued = glue_continue(path, 0.2, params_sym, dt_fixed=0.01)
    assert np.array_equal(direct.final.coeffs, glued.final.coeffs)


def test_glue_rejects_mismatched_params(grid32, params_sym, tmp_path):
    from aqgsim.checkpoint import CheckpointMismatchError, write_checkpoint

    theta0 = sine_field(grid32, (1, 0))
    path = tmp_path / "cp.aqgs"
    write_checkpoint(path, theta0, params_sym, 0.1)
    other = DissipParams(0.6, params_sym.beta, s=params_sym.s)
    with pytest.raises(CheckpointMismatchError, match="alpha"):
        glue_continue(path, 0.1, other)
