"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
import pytest

from aqgsim.checkpoint import read_checkpoint, write_checkpoint
from aqgsim.diagnostics import (Region, analyticity_radius_fit, region_classify,
                               weighted_norm_trace)
from aqgsim.grid import GridSpec
from aqgsim.lemmas import (FieldEnsembleSpec, functional_inequality_suite,
                           random_band_limited_field, scalar_inequality_suite,
                           total_violations)
from aqgsim.norms import sobolev_norm
from aqgsim.operators import DissipParams, apply_semigroup
from aqgsim.solver import (LOG_3_2, PicardConfig, calibrate_constants, evolve,
                           existence_time, glue_continue, picard_solve,
                           weighted_picard_solve)

_cache = {}


def _passline(num, text):
    print(f"\nPASS criterion {num}: {text}")


def unit_field(grid, seed, s, kmax, slope=2.0):
    spec = FieldEnsembleSpec(grid, seed=seed, count=1, kmax=kmax, spectrum_slope=slope)
    f = random_band_limited_field(spec, 0)
    return f * (1.0 / sobolev_norm(f, s))


def assert_energy_law(trace, horizon, tol=1e-6):
    l2 = np.array(trace.l2)
    assert np.all(np.diff(l2) <= 1e-15), "L2 norm must be nonincreasing"
    resid = np.abs(l2**2 + np.array(trace.diss_integral) - l2[0] ** 2)
    assert np.max(resid) / horizon < tol
    return np.max(resid) / horizon


def picard_setup():
    if "picard" not in _cache:
        p = DissipParams(0.75, 0.75, s=1.0)
        grid = GridSpec(64, 64)
        theta0 = unit_field(grid, seed=101, s=1.0, kmax=10)
        table = calibrate_constants(p, n_samples=16, seed=7)
        _cache["picard"] = (p, grid, theta0, table)
    return _cache["picard"]


def test_criterion_1_linear_exactness():
    start = time.perf_counter()
    p = DissipParams(0.75, 0.6, s=1.2)
    grid = GridSpec(64, 64)
    spec = FieldEnsembleSpec(grid, seed=11, count=1, kmax=21, spectrum_slope=2.5)
    theta0 = random_band_limited_field(spec, 0)
    res = evolve(theta0, 1.0, p, nonlinear=False, dt_max=0.05)
    assert not res.aborted
    exact = apply_semigroup(theta0.dealiased(), 1.0, p)
    live = np.abs(exact.coeffs) > 0
    rel = np.max(np.abs(res.final.coeffs[live] - exact.coeffs[live])
                 / np.abs(exact.coeffs[live]))
    elapsed = time.perf_counter() - start
    assert rel <= 1e-10
    assert elapsed < 5.0
    _passline(1, f"linear march matches exp(-tA) per mode to {rel:.2e} "
                 f"({elapsed:.2f}s < 5s)")


def test_criterion_2_lemma_suites_zero_violations():
    start = time.perf_counter()
    p = DissipParams(0.75, 0.8, s=1.2)
    scalar = scalar_inequality_suite(p, grid_density=1000)
    assert sum(r.samples for r in scalar) >= 1_000_000
    grid = GridSpec(64, 64)
    spec = FieldEnsembleSpec(grid, seed=55, count=1000, kmax=10, spectrum_slope=2.0)
    functional = functional_inequality_suite(spec, p)
    _cache["functional"] = functional
    elapsed = time.perf_counter() - start
    bad = total_violations(scalar) + total_violations(functional)
    assert bad == 0
    assert elapsed < 120.0
    n = sum(r.samples for r in scalar) + sum(r.samples for r in functional)
    _passline(2, f"{n} inequality samples, zero theorem-backed violations "
                 f"({elapsed:.1f}s < 120s)")


def test_criterion_3_calderon_zygmund_isometry():
    if "functional" not in _cache:
        grid = GridSpec(64, 64)
        spec = FieldEnsembleSpec(grid, seed=55, count=1000, kmax=10, spectrum_slope=2.0)
        _cache["functional"] = functional_inequality_suite(spec, DissipParams(0.75, 0.8, s=1.2))
    rep = next(r for r in _cache["functional"] if r.inequality == "calderon_zygmund_p2")
    deviation = abs(rep.empirical_constant - 1.0)
    assert deviation <= 1e-12
    assert rep.violations == 0
    _passline(3, f"p=2 Riesz constant deviates from 1 by {deviation:.2e} <= 1e-12")


def test_criterion_4_picard_contraction():
    start = time.perf_counter()
    p, grid, theta0, table = picard_setup()
    _, T0 = existence_time(1.0, p, table)
    cfg = PicardConfig(T=T0, n_nodes=32, max_iter=40, tol=1e-10)
    rep = picard_solve(theta0, cfg, p)
    elapsed = time.perf_counter() - start
    assert rep.converged
    assert rep.sup_hs <= 2.0 + 1e-6
    # ratios from iteration 2 onward (d2/d1 is the first recorded ratio)
    assert all(r <= 0.5 for r in rep.contraction_ratios)
    assert elapsed < 30.0
    _passline(4, f"T0={T0:.3e}, ball sup {rep.sup_hs:.6f} <= 2+1e-6, "
                 f"max ratio {max(rep.contraction_ratios):.3f} <= 0.5 "
                 f"({elapsed:.1f}s < 30s)")


def test_criterion_5_gevrey_weighted_ball():
    p, grid, theta0, table = picard_setup()
    _, T1 = existence_time(1.0, p, table, weighted=True)
    assert T1 < LOG_3_2
    cfg = PicardConfig(T=T1, n_nodes=32, max_iter=40, tol=1e-10)
    rep = weighted_picard_solve(theta0, cfg, p)
    assert rep.converged
    values = weighted_norm_trace(rep.trajectory, p, p.s)
    assert all(math.isfinite(v) for v in values)
    assert max(values) <= 2.0 * (1.0 + 1e-6)
    _passline(5, f"T1={T1:.3e} < ln(3/2), weighted norm sup "
                 f"{max(values):.6f} <= 2(1+1e-6)")


def test_criterion_6_energy_law():
    p = DissipParams(0.75, 0.6, s=1.2)
    grid = GridSpec(64, 64)
    theta0 = unit_field(grid, seed=12, s=0.0, kmax=8, slope=3.0) * 0.25
    res = evolve(theta0, 0.25, p, dt_fixed=1e-3)
    assert not res.aborted
    rate = assert_energy_law(res.trace, 0.25)
    # an anisotropic-coefficient run obeys the same balance
    p2 = DissipParams(0.75, 0.75, s=1.0, mu=0.5, nu=2.0)
    res2 = evolve(theta0, 0.2, p2, dt_fixed=1e-3)
    rate2 = assert_energy_law(res2.trace, 0.2)
    _passline(6, f"energy balance residual per unit time {rate:.2e}, "
                 f"{rate2:.2e} < 1e-6; L2 monotone in both runs")


def test_criterion_7_h2_smoothing_resolution_doubling():
    start = time.perf_counter()
    p = DissipParams(0.75, 0.75, s=1.2)
    h2_initial = {}
    h2_evolved = {}
    for n in (128, 256):
        grid = GridSpec(n, n)
        spec = FieldEnsembleSpec(grid, seed=202, count=1, kmax=n // 3,
                                 spectrum_slope=2.5)
        theta0 = random_band_limited_field(spec, 0) * 0.5
        h2_initial[n] = sobolev_norm(theta0, 2.0)
        res = evolve(theta0, 0.1, p, dt_fixed=5e-4)
        assert not res.aborted
        # rough-data runs still dissipate monotonically; the 1e-6 energy budget
        # applies to the resolved runs of the energy-law criterion
        assert np.all(np.diff(np.array(res.trace.l2)) <= 1e-15)
        h2_evolved[n] = sobolev_norm(res.final, 2.0)
    elapsed = time.perf_counter() - start
    exponent = math.log(h2_initial[256] / h2_initial[128]) / math.log(2.0)
    assert exponent == pytest.approx(0.5, abs=0.1)
    drift = abs(h2_evolved[256] - h2_evolved[128]) / h2_evolved[256]
    assert drift < 0.01
    assert elapsed < 120.0
    _passline(7, f"H2(0) doubling exponent {exponent:.3f} = 0.5 +- 0.1, "
                 f"H2(0.1) drift {drift:.2e} < 1% ({elapsed:.1f}s < 120s)")


def test_criterion_8_gluing(tmp_path):
    p = DissipParams(0.75, 0.6, s=1.2)
    grid = GridSpec(64, 64)
    theta0 = unit_field(grid, seed=13, s=0.0, kmax=10) * 0.3
    dt = 1.0 / 256.0
    full = evolve(theta0, 0.5, p, dt_fixed=dt)
    first = evolve(theta0, 0.25, p, dt_fixed=dt)
    path = tmp_path / "mid.aqgs"
    write_checkpoint(path, first.final, p, 0.25)
    loaded = read_checkpoint(path)
    assert np.array_equal(loaded.field.coeffs, first.final.coeffs)  # bitwise round trip
    resumed = glue_continue(path, 0.25, p, dt_fixed=dt)
    diff = sobolev_norm(resumed.final - full.final, p.s)
    assert diff <= 1e-8
    _passline(8, f"checkpoint round trip bitwise exact; restarted vs straight "
                 f"run differ by {diff:.2e} <= 1e-8 in H^s")


def test_criterion_9_analyticity_rate_recovery():
    grid = GridSpec(128, 128)
    p = DissipParams(0.75, 0.6, s=1.2, mu=1.3, nu=0.7)
    spec = FieldEnsembleSpec(grid, seed=17, count=1, kmax=42, spectrum_slope=2.5)
    theta0 = random_band_limited_field(spec, 0)
    worst = 0.0
    for t in (0.1, 0.3, 1.0):
        res = evolve(theta0, t, p, nonlinear=False, dt_max=0.05)
        fit = analyticity_radius_fit(res.final, theta0.dealiased(), p)
        assert fit.fitted
        assert fit.rate1 == pytest.approx(t * p.mu, rel=0.01)
        assert fit.rate2 == pytest.approx(t * p.nu, rel=0.01)
        worst = max(worst, abs(fit.rate1 / (t * p.mu) - 1.0),
                    abs(fit.rate2 / (t * p.nu) - 1.0))
    _passline(9, f"fitted decay rates match (t mu, t nu) within {worst:.2e} <= 1%")


def test_criterion_10_region_partition():
    assert region_classify(0.75, 0.75) is Region.Y1
    assert region_classify(0.75, 0.30) is Region.Y2
    assert region_classify(0.40, 0.50) is Region.OUTSIDE
    n = 200
    values = (np.arange(1, n + 1) - 0.5) / n
    counts = {Region.Y1: 0, Region.Y2: 0, Region.Y3: 0, Region.OUTSIDE: 0}
    for alpha in values:
        threshold = 1.0 / (2.0 * alpha + 1.0) if alpha <= 0.5 \
            else (1.0 - alpha) / (2.0 * alpha)
        for beta in values:
            label = region_classify(float(alpha), float(beta))
            counts[label] += 1
            condition = beta > threshold
            assert (label is not Region.OUTSIDE) == condition
            in_y1 = alpha > 0.5 and beta > 0.5
            in_y2 = alpha > 0.5 and threshold < beta <= 0.5
            in_y3 = alpha <= 0.5 and beta > threshold
            assert sum((in_y1, in_y2, in_y3)) == (1 if condition else 0)
            if in_y1:
                assert label is Region.Y1
            elif in_y2:
                assert label is Region.Y2
            elif in_y3:
                assert label is Region.Y3
    assert all(counts[r] > 0 for r in (Region.Y1, Region.Y2, Region.Y3, Region.OUTSIDE))
    _passline(10, f"200x200 scan partitions cleanly: "
                  f"Y1={counts[Region.Y1]}, Y2={counts[Region.Y2]}, "
                  f"Y3={counts[Region.Y3]}, outside={counts[Region.OUTSIDE]}")
