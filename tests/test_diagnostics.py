"""Region classifier, rate fits, Gevrey report, and the scalar-suite blocks of the
smoothing step (the weight comparison and the H^2 weight bound)."""

import math

import numpy as np
import pytest

from aqgsim.diagnostics import (Region, analyticity_radius_fit, build_gevrey_report,
                                region_classify, weighted_norm_trace)
from aqgsim.grid import GridSpec
from aqgsim.lemmas import (FieldEnsembleSpec, random_band_limited_field,
                           scalar_inequality_suite, total_violations)
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
# the scalar claims of the smoothing step, as blocks of the scalar suite
# ---------------------------------------------------------------------------


def scalar_block(p, name):
    reports = scalar_inequality_suite(p, grid_density=10)
    return next(r for r in reports if r.inequality == name), reports


def test_h2_weight_bound_ratio_at_diagonal():
    rep, _ = scalar_block(DissipParams(0.75, 0.75, s=1.0), "h2_weight_bound")
    assert not rep.exact_bound
    assert math.isfinite(rep.worst_ratio)
    # the sup is 1, at k = 0 and the largest weight time m = 10, against 1 + 2 m^(-16/3)
    assert rep.worst_ratio == pytest.approx(1.0 / (1.0 + 2.0 * 10.0 ** (-16.0 / 3.0)),
                                            rel=1e-12)
    assert rep.worst_ratio == pytest.approx(0.99999, abs=1e-5)


def test_remark_chain_no_violations_when_ordered():
    rep, _ = scalar_block(DissipParams(0.75, 0.8, s=1.2), "weight_comparison")
    assert rep.exact_bound
    assert rep.violations == 0
    # min D over both sides; D = 0 at k = 0
    assert rep.empirical_constant >= 0.0


def test_remark_chain_diagonal_alpha_eq_beta():
    rep, _ = scalar_block(DissipParams(0.75, 0.75), "weight_comparison")
    assert rep.exact_bound
    assert rep.violations == 0
    assert rep.empirical_constant >= 0.0


def test_remark_chain_flags_reversed_order():
    rep, reports = scalar_block(DissipParams(0.9, 0.55, s=1.0), "weight_comparison")
    assert not rep.exact_bound
    assert rep.violations > 0  # findings, not release-blocking
    assert total_violations(reports) == 0
    assert {ex["side"] for ex in rep.violation_examples} == {"lower", "upper"}


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
    rep = weighted_picard_solve(theta0, PicardConfig(T=T1, n_nodes=9), p)
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
