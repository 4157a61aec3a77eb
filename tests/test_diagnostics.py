"""Region classifier, rate fits, smoothing check, remark chain, Gevrey report."""

import math

import numpy as np
import pytest

from aqgsim.diagnostics import (Region, analyticity_radius_fit, build_gevrey_report,
                                h2_smoothing_check, region_classify, remark_chain_check,
                                weighted_norm_trace)
from aqgsim.grid import GridSpec
from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field
from aqgsim.norms import gevrey_weighted_norm, sobolev_norm
from aqgsim.operators import DissipParams, apply_semigroup
from aqgsim.solver import semigroup_trajectory


def band_field(grid, seed, kmax, slope=2.5):
    spec = FieldEnsembleSpec(grid, seed=seed, count=1, kmax=kmax, spectrum_slope=slope)
    return random_band_limited_field(spec, 0)


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------


def test_region_spot_values():
    assert region_classify(0.75, 0.75) is Region.Y1
    # threshold (1 - 0.75) / 1.5 = 1/6 < 0.30 <= 1/2
    assert region_classify(0.75, 0.30) is Region.Y2
    # Y3 needs beta > 1/(2*0.4 + 1) = 5/9 > 0.5
    assert region_classify(0.40, 0.50) is Region.OUTSIDE
    assert region_classify(0.40, 0.60) is Region.Y3
    assert region_classify(0.75, 0.10) is Region.OUTSIDE


def test_region_rejects_out_of_range():
    with pytest.raises(ValueError):
        region_classify(0.0, 0.5)
    with pytest.raises(ValueError):
        region_classify(0.5, 1.0)


def test_region_partition_scan():
    """200x200 scan: the three labels are disjoint and exhaust the condition."""
    n = 200
    grid = (np.arange(1, n + 1) - 0.5) / n
    for alpha in grid:
        threshold = 1.0 / (2.0 * alpha + 1.0) if alpha <= 0.5 else (1.0 - alpha) / (2.0 * alpha)
        for beta in grid:
            label = region_classify(float(alpha), float(beta))
            in_y1 = alpha > 0.5 and beta > 0.5
            in_y2 = alpha > 0.5 and threshold < beta <= 0.5
            in_y3 = alpha <= 0.5 and beta > threshold
            memberships = [in_y1, in_y2, in_y3]
            assert sum(memberships) <= 1
            condition_holds = beta > threshold
            if condition_holds:
                expected = (Region.Y1 if in_y1 else Region.Y2 if in_y2 else Region.Y3)
                assert label is expected
            else:
                assert label is Region.OUTSIDE


# ---------------------------------------------------------------------------
# analyticity rate fit
# ---------------------------------------------------------------------------


def test_rate_fit_zero_time():
    grid = GridSpec(64, 64)
    f = band_field(grid, 3, 21)
    fit = analyticity_radius_fit(f, f, DissipParams(0.75, 0.6))
    assert fit.rate1 == pytest.approx(0.0, abs=1e-15)
    assert fit.rate2 == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t", [0.1, 0.3, 1.0])
def test_rate_fit_recovers_linear_decay(t):
    grid = GridSpec(128, 128)
    p = DissipParams(0.75, 0.6, mu=1.0, nu=1.0, s=1.2)
    f0 = band_field(grid, 5, 42)
    ft = apply_semigroup(f0, t, p)
    fit = analyticity_radius_fit(ft, f0, p)
    assert fit.fitted
    assert fit.rate1 == pytest.approx(t * p.mu, rel=0.01)
    assert fit.rate2 == pytest.approx(t * p.nu, rel=0.01)


def test_rate_fit_scaled_coefficients():
    grid = GridSpec(128, 128)
    p = DissipParams(0.75, 0.6, mu=2.0, nu=0.5, s=1.2)
    f0 = band_field(grid, 6, 42)
    ft = apply_semigroup(f0, 0.3, p)
    fit = analyticity_radius_fit(ft, f0, p)
    assert fit.rate1 == pytest.approx(0.3 * 2.0, rel=0.01)
    assert fit.rate2 == pytest.approx(0.3 * 0.5, rel=0.01)


def test_rate_fit_unfit_without_modes():
    grid = GridSpec(32, 32)
    p = DissipParams(0.75, 0.75)
    # support far off the axes only
    from aqgsim.grid import field_from_modes
    f = field_from_modes(grid, {(3, 4): 1.0, (2, 5): 0.5j, (5, 2): 0.25,
                                (4, 3): 0.1j, (1, 6): 0.2})
    fit = analyticity_radius_fit(f, f, p)
    assert fit.rate1 is None
    assert not fit.fitted
    assert fit.n_modes1 == 0


# ---------------------------------------------------------------------------
# H^2 smoothing
# ---------------------------------------------------------------------------


def test_h2_smoothing_band_limited(grid64, params):
    f0 = band_field(grid64, 7, 12)
    times = np.linspace(0.0, 0.4, 41)
    traj = semigroup_trajectory(f0, times, params)
    rep = h2_smoothing_check(traj, 0.2, params, params.s)
    assert math.isfinite(rep.h2_at_t0)
    assert rep.h2_at_t0 > 0.0
    assert math.isfinite(rep.weight_sup)
    # finer node spacing shrinks the continuity modulus roughly linearly
    fine = semigroup_trajectory(f0, np.linspace(0.0, 0.4, 81), params)
    rep_fine = h2_smoothing_check(fine, 0.2, params, params.s)
    assert rep_fine.continuity_modulus < 0.6 * rep.continuity_modulus


def test_h2_weight_sup_decreases_with_t0(grid64, params):
    f0 = band_field(grid64, 7, 12)
    times = np.linspace(0.0, 0.4, 41)
    traj = semigroup_trajectory(f0, times, params)
    sups = [h2_smoothing_check(traj, t0, params, params.s).weight_sup
            for t0 in (0.1, 0.2, 0.3)]
    assert sups[0] > sups[1] > sups[2]


def test_h2_smoothing_rejects_boundary(grid64, params):
    f0 = band_field(grid64, 7, 12)
    traj = semigroup_trajectory(f0, np.linspace(0.0, 0.4, 11), params)
    with pytest.raises(ValueError, match="interior"):
        h2_smoothing_check(traj, 0.0, params, params.s)
    with pytest.raises(ValueError, match="interior"):
        h2_smoothing_check(traj, 0.4, params, params.s)


# ---------------------------------------------------------------------------
# remark chain
# ---------------------------------------------------------------------------


def test_remark_chain_no_violations_when_ordered():
    p = DissipParams(0.75, 0.8, s=1.2)
    rep = remark_chain_check(p, T0=0.3, t_samples=9, kmax=128)
    assert rep.prerequisite_ok
    assert rep.violations == 0
    # slack e^{+-T0} at t = 0: both log-slacks start at exactly T0
    assert rep.min_log_slack_lower >= 0.0
    assert rep.min_log_slack_upper >= 0.0


def test_remark_chain_diagonal_alpha_eq_beta():
    p = DissipParams(0.75, 0.75)
    rep = remark_chain_check(p, T0=0.2, t_samples=9, kmax=64)
    assert rep.violations == 0


def test_remark_chain_diagonal_scalar_identity():
    # on k1 = k2 with alpha = beta the middle exponent is 2 t |k1|^a and the
    # isotropic one is t 2^{a/2} |k1|^a; the two-sided comparison is direct
    a, t, T0 = 0.75, 0.15, 0.3
    for k in (1.0, 4.0, 37.0, 128.0):
        mixed = 2.0 * t * k**a
        iso = t * (2.0 ** (a / 2.0)) * k**a
        assert iso <= mixed + T0
        assert mixed <= 2.0 * iso + T0


def test_remark_chain_flags_reversed_order():
    p = DissipParams(0.9, 0.55, s=1.0)
    rep = remark_chain_check(p, T0=0.05, t_samples=9, kmax=64)
    assert not rep.prerequisite_ok
    assert rep.violations > 0  # findings, not an exception


def test_remark_chain_respects_t1_cap():
    p = DissipParams(0.75, 0.8, s=1.2)
    rep = remark_chain_check(p, T0=0.5, t_samples=5, T1=0.1, kmax=32)
    assert rep.t_max == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_rates_grow_on_weighted_picard_solution(grid64):
    """The converged fixed point smooths: positive, initially nondecreasing
    fitted decay rates along the trajectory."""
    from aqgsim.solver import (PicardConfig, calibrate_constants, existence_time,
                               weighted_picard_solve)

    p = DissipParams(0.75, 0.75, s=1.0)
    theta0 = band_field(grid64, 31, 10, slope=2.0)
    theta0 = theta0 * (1.0 / sobolev_norm(theta0, p.s))
    table = calibrate_constants(p, n_samples=4, seed=3)
    _, T1 = existence_time(1.0, p, table, weighted=True)
    rep = weighted_picard_solve(theta0, PicardConfig(T=T1, n_nodes=9),
                                p, table)
    assert rep.converged
    traj = rep.trajectory
    f0 = traj.field(0)
    rates = []
    for i in range(1, traj.n_nodes):
        fit = analyticity_radius_fit(traj.field(i), f0, p)
        assert fit.fitted
        rates.append(fit.rate1)
    assert all(r > 0.0 for r in rates)
    assert all(b >= a * (1 - 1e-6) for a, b in zip(rates, rates[1:]))


def test_gevrey_report_linear_flow(grid64, params):
    f0 = band_field(grid64, 8, 21)
    times = np.linspace(0.0, 0.3, 7)
    traj = semigroup_trajectory(f0, times, params)
    rep = build_gevrey_report(traj.times, traj.fields(), params, params.s)
    assert rep.times.shape == (7,)
    assert not np.any(np.isinf(rep.weighted_hs))
    trace = weighted_norm_trace(traj, params, params.s)
    assert rep.weighted_hs[0] == pytest.approx(sobolev_norm(f0, params.s), rel=1e-12)
    assert list(trace) == pytest.approx(list(rep.weighted_hs))
    # linear-flow weighted norms never exceed e^t times the initial norm
    bound = np.exp(rep.times) * sobolev_norm(f0, params.s)
    assert np.all(rep.weighted_hs <= bound * (1.0 + 1e-9))
    # fitted rates grow along the trajectory
    rates = [f.rate1 for f in rep.fits if f.rate1 is not None]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_gevrey_report_fits_over_elapsed_time(grid64):
    # a linear flow observed from t0 > 0 on: each rate is the decay since t0
    p = DissipParams(0.75, 0.6, mu=2.0, nu=0.5, s=1.2)
    f0 = band_field(grid64, 8, 21)
    t0 = 0.5
    times = t0 + np.array([0.0, 0.05, 0.1])
    rep = build_gevrey_report(times, [apply_semigroup(f0, t - t0, p) for t in times], p, p.s)
    assert rep.weighted_hs[0] == gevrey_weighted_norm(f0, t0, p.s, p)
    for t, fit in zip(times, rep.fits):
        assert fit.rate1 == pytest.approx(p.mu * (t - t0), abs=1e-9)
        assert fit.rate2 == pytest.approx(p.nu * (t - t0), abs=1e-9)


def test_gevrey_report_rejects_decreasing_times(grid64, params):
    f0 = band_field(grid64, 8, 21)
    with pytest.raises(ValueError, match="nondecreasing"):
        build_gevrey_report([0.2, 0.1], [f0, f0], params, params.s)
