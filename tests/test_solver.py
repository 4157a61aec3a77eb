"""Existence-time conditions, Duhamel operator, Picard iterations, the march."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from aqgsim.grid import GridSpec, field_from_modes, sine_field, zero_field
from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field
from aqgsim.norms import sobolev_norm
from aqgsim.operators import (DissipParams, RegimeWarning, apply_semigroup,
                              dissipation_symbol, nonlinear_term)
from aqgsim.solver import (LOG_3_2, ConstantsTable, PicardConfig, Trajectory,
                           calibrate_constants, constant_trajectory, duhamel_bilinear,
                           evolve, existence_time, glue_continue, phi2, picard_solve,
                           semigroup_trajectory, solve_time_condition, time_grid,
                           weight_domination_slack, weighted_picard_solve)

TABLE = ConstantsTable(0.25, 0.12, 0.05, 0.02)


def unit_random_field(grid, seed, s, kmax=8, slope=2.0):
    spec = FieldEnsembleSpec(grid, seed=seed, count=1, kmax=kmax, spectrum_slope=slope)
    f = random_band_limited_field(spec, 0)
    return f * (1.0 / sobolev_norm(f, s))


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
    assert solve_time_condition([0.5, 0.5], 1.0) == pytest.approx(0.25, rel=1e-10)


def test_time_condition_golden_ratio_case():
    # sqrt(T) + T^(1/4) = 1 with y = T^(1/4): y^2 + y = 1
    expected = ((math.sqrt(5.0) - 1.0) / 2.0) ** 4
    assert solve_time_condition([0.5, 0.25], 1.0) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.14589803375031546, rel=1e-12)


def test_time_condition_exp_factor_is_smaller():
    plain = solve_time_condition([0.5, 0.5], 1.0)
    damped = solve_time_condition([0.5, 0.5], 1.0, with_exp_factor=True)
    assert damped < plain


def test_existence_time_zero_data(params_sym):
    assert existence_time(0.0, params_sym, TABLE) == math.inf


def test_existence_time_monotone_in_norm(params_sym):
    t_small = existence_time(0.5, params_sym, TABLE)
    t_large = existence_time(2.0, params_sym, TABLE)
    assert t_large < t_small


def test_existence_time_weighted_cap(params_sym):
    t0 = existence_time(1.0, params_sym, TABLE)
    t1 = existence_time(1.0, params_sym, TABLE, weighted=True)
    assert t1 <= t0
    assert t1 < LOG_3_2
    # weighted cap binds even for tiny data
    assert existence_time(1e-9, params_sym, TABLE, weighted=True) < LOG_3_2


def test_existence_time_warns_outside_regime():
    p = DissipParams(0.4, 0.75, s=1.3)
    with pytest.warns(RegimeWarning):
        existence_time(1.0, p, TABLE)


def test_low_s_uses_single_condition():
    # for s < 1 only the first condition applies; with these constants the
    # four-term condition would be far more restrictive
    p_low = DissipParams(0.9, 0.9, s=0.5)
    c = ConstantsTable(0.1, 1e6, 0.1, 1e6)
    t_low = existence_time(1.0, p_low, c)
    assert t_low > 1e-3


# ---------------------------------------------------------------------------
# trajectories and Duhamel
# ---------------------------------------------------------------------------


def test_trajectory_requires_uniform_times(grid32):
    stack = np.zeros((3, 32, 32), dtype=complex)
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
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
        w = (1.0 + grid64.k_sq) ** 1.0
        return np.max(np.sqrt(np.sum(w * np.abs(d) ** 2, axis=(1, 2))))

    e1 = diff(outs[9], outs[17], 2)
    e2 = diff(outs[17], outs[33], 2)
    assert 3.0 < e1 / e2 < 5.5


# ---------------------------------------------------------------------------
# Picard iterations
# ---------------------------------------------------------------------------


def test_picard_zero_data(grid32, params_sym):
    cfg = PicardConfig(T=0.5, n_nodes=5)
    rep = picard_solve(zero_field(grid32), cfg, params_sym, TABLE)
    assert rep.converged
    assert rep.iterations == 0
    assert np.max(np.abs(rep.trajectory.coeffs)) == 0.0


def test_picard_single_mode_is_semigroup(grid32, params_sym):
    theta0 = sine_field(grid32, (1, 0))
    T = existence_time(sobolev_norm(theta0, 1.0), params_sym, TABLE)
    cfg = PicardConfig(T=T, n_nodes=9, tol=1e-12)
    rep = picard_solve(theta0, cfg, params_sym, TABLE)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.distances[0] < 1e-14
    exact = semigroup_trajectory(theta0, rep.trajectory.times, params_sym)
    assert np.max(np.abs(rep.trajectory.coeffs - exact.coeffs)) < 1e-13


def test_picard_random_data_contracts(grid64, params_sym):
    theta0 = unit_random_field(grid64, 7, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    T = existence_time(1.0, params_sym, table)
    cfg = PicardConfig(T=T, n_nodes=17, tol=1e-11)
    rep = picard_solve(theta0, cfg, params_sym, table)
    assert rep.converged
    assert rep.ball_radius_check.within
    assert all(r <= 0.5 for r in rep.contraction_ratios)
    # distances strictly decreasing once the iteration starts contracting
    ds = rep.distances
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def test_picard_limit_is_discrete_mild_solution(grid64, params_sym):
    theta0 = unit_random_field(grid64, 8, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    T = existence_time(1.0, params_sym, table)
    cfg = PicardConfig(T=T, n_nodes=17, tol=1e-11)
    rep = picard_solve(theta0, cfg, params_sym, table)
    L0 = semigroup_trajectory(theta0.dealiased(), rep.trajectory.times, params_sym)
    B = duhamel_bilinear(rep.trajectory, rep.trajectory, params_sym)
    resid = L0.coeffs - B.coeffs - rep.trajectory.coeffs
    w = (1.0 + grid64.k_sq) ** params_sym.s
    worst = np.max(np.sqrt(np.sum(w * np.abs(resid) ** 2, axis=(1, 2))))
    assert worst < 10 * cfg.tol


def test_picard_horizon_guard(grid32, params_sym):
    theta0 = sine_field(grid32, (1, 0))
    T = existence_time(sobolev_norm(theta0, 1.0), params_sym, TABLE)
    with pytest.raises(ValueError, match="existence time"):
        picard_solve(theta0, PicardConfig(T=3.0 * T, n_nodes=5), params_sym, TABLE)
    rep = picard_solve(theta0, PicardConfig(T=3.0 * T, n_nodes=5,
                                            allow_beyond_horizon=True),
                       params_sym, TABLE)
    assert not rep.within_guaranteed_horizon
    assert "outside guaranteed ball" in rep.note


def test_picard_divergence_reported_not_raised(grid32, params_sym):
    # far beyond the horizon with large data the map expands; three
    # consecutive distance growths end the run as a finding
    theta0 = unit_random_field(grid32, 1, 1.0) * 5.0
    cfg = PicardConfig(T=5.0, n_nodes=9, max_iter=15, allow_beyond_horizon=True)
    rep = picard_solve(theta0, cfg, params_sym, TABLE)
    assert not rep.converged
    assert "diverging distances" in rep.note
    assert rep.iterations < cfg.max_iter


def test_weighted_picard_single_mode_weight_cancels_decay(grid32, params_sym):
    """On sin(x1) the weight exp(t) exactly cancels the decay exp(-t)."""
    theta0 = sine_field(grid32, (1, 0))
    norm0 = sobolev_norm(theta0, params_sym.s)
    T1 = existence_time(norm0, params_sym, TABLE, weighted=True)
    cfg = PicardConfig(T=T1, n_nodes=9, weighted=True)
    rep = weighted_picard_solve(theta0, cfg, params_sym, TABLE)
    assert rep.converged
    values = [g.value for g in rep.weighted_trace]
    assert all(v == pytest.approx(norm0, rel=1e-12) for v in values)
    assert rep.ball_radius_check.weighted_within


def test_weighted_picard_random_data_ball(grid64, params_sym):
    theta0 = unit_random_field(grid64, 9, params_sym.s)
    table = calibrate_constants(params_sym, n_samples=6, seed=2)
    T1 = existence_time(1.0, params_sym, table, weighted=True)
    assert T1 < LOG_3_2
    cfg = PicardConfig(T=T1, n_nodes=17, weighted=True)
    rep = weighted_picard_solve(theta0, cfg, params_sym, table)
    assert rep.converged
    assert rep.ball_radius_check.weighted_sup <= 2.0 * (1.0 + 1e-6)
    assert rep.weight_domination_slack <= 1e-12


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
def test_calibration_weighted_input_sup_matches_full_loop(p, monkeypatch):
    """Calibration takes every sup over a horizon at its last node: the weighted
    sups of the constant inputs, and the plain and weighted sups of the Duhamel
    sum. Each is bitwise the sup over all 33 nodes, and so are C1..C4."""
    import aqgsim.solver as solver

    duhamel, hs, loop = solver._duhamel_sum, solver._hs_norms, solver._weighted_sup
    sums = []

    def recording(N, dt, grid, p):
        sums.append(duhamel(N, dt, grid, p))
        return sums[-1]

    monkeypatch.setattr(solver, "_duhamel_sum", recording)
    fast = calibrate_constants(p, n_samples=3, seed=4, return_details=True)
    grid = GridSpec(64, 64)
    horizons = solver._CALIBRATION_HORIZONS * 3
    assert len(sums) == len(horizons)
    for T, B in zip(horizons, sums):
        times = time_grid(T, 33)
        assert hs(B[-1:], grid, p.s)[0] == np.max(hs(B, grid, p.s))
        assert loop(grid, times[-1:], B[-1:], p, p.s) == loop(grid, times, B, p, p.s)

    def hs_every_node(stack, grid, s):
        if np.shares_memory(stack, sums[-1]):  # the last node of a Duhamel sum
            return np.max(hs(sums[-1], grid, s), keepdims=True)
        return hs(stack, grid, s)

    def every_node(grid, times, coeffs, p, s):
        if len(times) == 1:  # a last-node sup: take it over all 33 nodes again
            times = time_grid(float(times[0]), 33)
            coeffs = (sums[-1] if np.shares_memory(coeffs, sums[-1])
                      else np.broadcast_to(coeffs[0], (33, *grid.shape)))
        return loop(grid, times, coeffs, p, s)

    monkeypatch.setattr(solver, "_hs_norms", hs_every_node)
    monkeypatch.setattr(solver, "_weighted_sup", every_node)
    full = calibrate_constants(p, n_samples=3, seed=4, return_details=True)
    assert fast[0] == full[0]
    assert fast[1]["max_ratios"] == full[1]["max_ratios"]


def test_calibration_riesz_isometry_observed(params_sym):
    _, details = calibrate_constants(params_sym, n_samples=3, seed=4,
                                     return_details=True)
    assert details["cz_p2_deviation"] < 1e-12


def test_constants_table_validation():
    with pytest.raises(ValueError):
        ConstantsTable(1.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the march
# ---------------------------------------------------------------------------


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


def test_evolve_l2_monotone_and_energy_balance(grid64, params):
    theta0 = unit_random_field(grid64, 12, 0.0) * 0.25
    res = evolve(theta0, 0.1, params, dt_fixed=1e-3)
    tr = res.trace
    l2 = np.array(tr.l2)
    assert np.all(np.diff(l2) <= 1e-15)
    resid = np.abs(l2**2 + np.array(tr.diss_integral) - l2[0] ** 2)
    assert np.max(resid) / 0.1 < 1e-6


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
    theta0 = unit_random_field(grid32, 14, 0.0) * 1e9
    res = evolve(theta0, 50.0, params_sym, dt_fixed=1.0)
    assert res.aborted
    assert "non-finite" in res.abort_reason
    assert np.all(np.isfinite(res.final.coeffs.view(np.float64)))
    assert res.trace.aborted


def test_phi2_matches_decimal_reference():
    xs = np.concatenate([np.logspace(-10.0, 3.0, 1500),
                         np.linspace(0.09, 0.11, 201)])
    with localcontext() as ctx:
        ctx.prec = 50
        ref = np.array([float(((-d).exp() - 1 + d) / (d * d))
                        for d in map(Decimal, xs.tolist())])
    assert np.max(np.abs(phi2(xs) - ref) / ref) <= 1e-14
    assert phi2(np.array([0.0]))[0] == 0.5
    # no jump where the series hands over to the closed form
    below, at = phi2(np.array([np.nextafter(0.1, 0.0), 0.1]))
    assert abs(below - at) <= 1e-14 * at


def test_evolve_second_order_self_convergence(grid64, params):
    """Fixed steps T/4 ... T/64: successive differences shrink by 4 per halving."""
    theta0 = unit_random_field(grid64, 21, params.s)
    finals = [evolve(theta0, 0.2, params, dt_fixed=0.2 / n, trace_stride=10**9).final
              for n in (4, 8, 16, 32, 64)]
    diffs = [sobolev_norm(a - b, params.s) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.9 < q < 2.1 for q in orders), orders


def test_evolve_kernel_calls_per_step(grid32, params, kernel_calls):
    """Accepted steps cost 5 kernel calls, rejected ones 4, fixed steps 4."""
    theta0 = unit_random_field(grid32, 3, 0.0)
    # an oversized first step forces rejections
    res = evolve(theta0, 0.02, params, dt_init=0.02)
    accepted = len(res.trace.t) - 1
    assert res.rejected_steps > 0
    assert len(kernel_calls) == 1 + 5 * accepted + 4 * res.rejected_steps
    kernel_calls.clear()
    res = evolve(theta0, 0.02, params, dt_fixed=0.002)
    assert len(res.trace.t) - 1 == 10
    assert res.rejected_steps == 0
    assert len(kernel_calls) == 1 + 4 * 10


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
