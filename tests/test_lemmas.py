"""Ensemble generator and the inequality suites."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import aqgsim.lemmas as lemmas
from aqgsim.grid import (GridSpec, SpectralField, field_from_values, from_physical,
                         hermitian_defect, sine_field, sobolev_weight, to_physical)
from aqgsim.lemmas import (FieldEnsembleSpec, InequalityReport, oversampled_product,
                           random_band_limited_field, scalar_inequality_suite,
                           functional_inequality_suite, total_violations)
from aqgsim.norms import _lp_table, directional_seminorm, lp_norm, sobolev_norm, vector_lp_norm
from aqgsim.operators import DissipParams, riesz_velocity

from conftest import random_real_grid


def test_ensemble_determinism(grid64):
    spec = FieldEnsembleSpec(grid64, seed=5, count=3, kmax=6, spectrum_slope=2.0)
    a = random_band_limited_field(spec, 1)
    b = random_band_limited_field(spec, 1)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_band_limited_field(spec, 2)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_ensemble_band_limit_and_moduli(grid64):
    spec = FieldEnsembleSpec(grid64, seed=5, count=1, kmax=1, spectrum_slope=2.0)
    f = random_band_limited_field(spec, 0)
    assert np.count_nonzero(f.coeffs) == 8  # the unit sup-norm shell
    spec6 = FieldEnsembleSpec(grid64, seed=5, count=1, kmax=6, spectrum_slope=1.5)
    g = random_band_limited_field(spec6, 0)
    live = np.abs(g.coeffs) > 0
    assert np.all(np.abs(grid64.k1 * live) <= 6)
    assert np.all(np.abs(grid64.k2 * live) <= 6)
    # modulus law |g^(k)| = |k|^{-slope}
    assert abs(g.coeffs[3, 4]) == pytest.approx(5.0 ** (-1.5), rel=1e-13)


def test_ensemble_is_grid_extension_stable():
    small = FieldEnsembleSpec(GridSpec(64, 64), seed=8, count=1, kmax=10, spectrum_slope=2.5)
    large = FieldEnsembleSpec(GridSpec(128, 128), seed=8, count=1, kmax=10, spectrum_slope=2.5)
    f = random_band_limited_field(small, 0)
    g = random_band_limited_field(large, 0)
    for k1, k2 in ((1, 0), (3, -2), (10, 10), (-7, 4)):
        assert f.coeffs[k1 % 64, k2 % 64] == g.coeffs[k1 % 128, k2 % 128]


def _shell_by_shell_field(spec, index):
    """The ensemble sample as drawn and filled one mode at a time (reference)."""
    from aqgsim.lemmas import _shell_representatives

    rng = np.random.default_rng([spec.seed, index])
    grid = spec.grid
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for m in range(1, spec.kmax + 1):
        reps = _shell_representatives(m)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(reps))
        for (k1, k2), phi in zip(reps, phases):
            r = float(np.hypot(k1, k2)) ** (-spec.spectrum_slope)
            amp = r * np.exp(1j * phi)
            coeffs[k1 % grid.n1, k2 % grid.n2] = amp
            coeffs[(-k1) % grid.n1, (-k2) % grid.n2] = np.conj(amp)
    return coeffs


@pytest.mark.parametrize("n1, n2, kmax, slope", [
    (64, 64, 10, 2.0), (128, 128, 16, 1.5), (48, 48, 5, 0.7), (48, 64, 16, 2.5),
])
def test_ensemble_matches_shell_by_shell_fill(n1, n2, kmax, slope):
    spec = FieldEnsembleSpec(GridSpec(n1, n2), seed=7, count=4, kmax=kmax,
                             spectrum_slope=slope)
    for index in range(4):
        got = random_band_limited_field(spec, index).coeffs
        assert got.tobytes() == _shell_by_shell_field(spec, index).tobytes()


def test_ensemble_kmax_validation(grid32):
    with pytest.raises(ValueError):
        FieldEnsembleSpec(grid32, seed=0, count=1, kmax=11, spectrum_slope=2.0)
    with pytest.raises(ValueError):
        FieldEnsembleSpec(grid32, seed=0, count=0, kmax=5, spectrum_slope=2.0)


def test_rough_ensemble_h2_growth_under_refinement():
    """slope 2.5 data is in H^1.2 but its H^2 norm grows like sqrt(N)."""
    norms = []
    for n in (64, 128, 256):
        spec = FieldEnsembleSpec(GridSpec(n, n), seed=4, count=1, kmax=n // 3,
                                 spectrum_slope=2.5)
        f = random_band_limited_field(spec, 0)
        norms.append(sobolev_norm(f, 2.0))
    exps = [math.log(b / a) / math.log(2.0) for a, b in zip(norms, norms[1:])]
    for e in exps:
        assert e == pytest.approx(0.5, abs=0.1)
    # H^1.2 norm stays bounded
    h12 = [sobolev_norm(random_band_limited_field(
        FieldEnsembleSpec(GridSpec(n, n), seed=4, count=1, kmax=n // 3,
                          spectrum_slope=2.5), 0), 1.2) for n in (64, 256)]
    assert h12[1] / h12[0] < 1.15


def test_oversampled_product_exact_on_sines(grid32):
    f = sine_field(grid32, (1, 0))
    fg = oversampled_product(f, f)
    # sin^2 = 1/2 - cos(2 x1)/2
    assert fg.coeffs[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert fg.coeffs[2, 0] == pytest.approx(-0.25, rel=1e-13)
    assert sobolev_norm(fg, 0.0, homogeneous=True) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0)), rel=1e-13)


def _complex_route_product(f, g, coarse):
    """Reference: the oversampled product as formed on the full layout, each
    padded factor to the fine grid by a complex ifft2. The wavenumbers are
    rounded to integers: truncating them, as that route once did, sends k2 = 7
    to the column of 6 on a grid of 48, where fftfreq gives 6.999..."""
    fine = GridSpec(2 * coarse.n1, 2 * coarse.n2)

    def pad(c):
        out = np.zeros(fine.shape, dtype=np.complex128)
        i1 = np.rint(coarse.k1[:, 0]).astype(int) % fine.n1
        i2 = np.rint(coarse.k2[0]).astype(int) % fine.n2
        out[np.ix_(i1, i2)] = np.where(coarse.nyquist_mask, 0.0, c)
        return out

    return from_physical(to_physical(pad(f), fine) * to_physical(pad(g), fine), fine)


@pytest.mark.parametrize("shape", [(32, 32), (32, 48), (64, 64), (96, 64)])
def test_oversampled_product_matches_the_complex_route(shape):
    """The half-layout product equals the full-layout complex-ifft2 product to
    rounding, on band-limited samples and on full-band fields whose Nyquist row
    and column are dropped by the padding; its fill is exactly Hermitian and
    keeps every bit of the half that the suite reads."""
    grid = GridSpec(*shape)
    spec = FieldEnsembleSpec(grid, seed=9, count=1, kmax=min(shape) // 3, spectrum_slope=1.5)
    pairs = [(random_band_limited_field(spec, 0), random_band_limited_field(spec, 1)),
             tuple(field_from_values(grid, random_real_grid(grid, s)) for s in (4, 5))]
    for f, g in pairs:
        fg = oversampled_product(f, g)
        want = _complex_route_product(f.coeffs, g.coeffs, grid)
        assert fg.grid == GridSpec(2 * grid.n1, 2 * grid.n2)
        assert np.max(np.abs(fg.coeffs - want)) <= 1e-14 * np.max(np.abs(want))
        assert hermitian_defect(fg.coeffs) == 0.0
        half = lemmas._product_coeffs(f.coeffs, g.coeffs, grid)
        assert half.shape == fg.grid.half_shape
        assert fg.coeffs[:, :grid.n2 + 1].tobytes() == half.tobytes()


def test_product_law_worked_example(grid32):
    # f = g = sin(x1), s1 = s2 = 1/2: ratio against C' form is 1/sqrt(2)
    f = sine_field(grid32, (1, 0))
    fg = oversampled_product(f, f)
    lhs = sobolev_norm(fg, 0.0, homogeneous=True)
    rhs = sobolev_norm(f, 0.5, True) * sobolev_norm(f, 0.5, True)
    assert rhs == pytest.approx(0.5, rel=1e-14)
    assert lhs / rhs == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)


def test_scalar_suite_no_violations(params):
    reports = scalar_inequality_suite(params, grid_density=300)
    by_name = {r.inequality: r for r in reports}
    assert total_violations(reports) == 0
    assert by_name["subadditivity_fractional"].worst_ratio <= 1.0 + 1e-12
    # sup of x exp(-x) is 1/e against the bound 1
    assert by_name["exp_decay_bound"].empirical_constant == pytest.approx(
        math.exp(-1.0), rel=1e-10)
    assert by_name["multiplier_equivalence"].empirical_constant >= 1.0 - 1e-12
    assert by_name["dissipation_minus_weight_gap"].empirical_constant == pytest.approx(
        -2.0, abs=1e-12)


def _expression_subadditivity(p, gd):
    """Reference: the subadditivity scan on whole gd x gd arrays."""
    rep = InequalityReport("subadditivity_fractional",
                           note="|xi|^r <= |xi-eta|^r + |eta|^r, r in (0,1]")
    xi = np.linspace(-50.0, 50.0, gd)[:, None]
    eta = np.linspace(-50.0, 50.0, gd)[None, :]
    r_values = sorted({0.25, 0.5, 0.75, 1.0, p.alpha, p.beta})
    dist = np.abs(xi - eta)
    for r in r_values:
        lhs = np.abs(xi) ** r
        rhs = dist ** r + np.abs(eta) ** r
        rep.samples += rhs.size
        bad = lhs > rhs * (1.0 + lemmas.REL_SLACK) + 1e-300
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            rep.merge_violation({"r": r, "xi": float(xi[i, 0]), "eta": float(eta[0, j])})
        with np.errstate(invalid="ignore", divide="ignore"):  # no ratio array outlives r
            worst = float(np.max(np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), 0.0)))
        rep.worst_ratio = max(rep.worst_ratio, worst)
    # 2-D version on seeded random pairs
    rng = np.random.default_rng(20240501)
    xi2 = rng.uniform(-50, 50, size=(100_000, 2))
    eta2 = rng.uniform(-50, 50, size=(100_000, 2))
    len_xi, len_dist, len_eta = (np.linalg.norm(v, axis=1) for v in (xi2, xi2 - eta2, eta2))
    for r in (p.alpha, p.beta):
        lhs = len_xi ** r
        rhs = len_dist ** r + len_eta ** r
        rep.samples += lhs.size
        bad = lhs > rhs * (1.0 + lemmas.REL_SLACK) + 1e-300
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            rep.merge_violation({"r": r, "xi": xi2[i].tolist(), "eta": eta2[i].tolist()})
        rep.worst_ratio = max(rep.worst_ratio, float(np.max(lhs / np.maximum(rhs, 1e-300))))
    rep.empirical_constant = rep.worst_ratio
    return rep


def _expression_weight_gap(p, gd):
    """Reference: the weight-gap scan with each 2-D step a fresh temporary."""
    rep = InequalityReport("dissipation_minus_weight_gap",
                           note="A(k)-B(k) = (|k1|^a-1)^2+(|k2|^b-1)^2-2 >= -2 at mu=nu=1")
    n = max(200, gd // 3)
    x = np.concatenate(([0.0, 1.0], np.linspace(0.0, 40.0, n), np.logspace(-3, 3, n)))
    X, Y = x[:, None], x.copy()[None, :]
    worst_gap = np.inf
    for a in (0.55, 0.6, 0.75, 0.9, p.alpha):
        for b in (0.55, 0.7, 0.8, 0.95, p.beta):
            gap = X ** (2 * a) + Y ** (2 * b) - 2.0 * (X**a + Y**b)
            ident = (X**a - 1.0) ** 2 + (Y**b - 1.0) ** 2 - 2.0
            rep.samples += gap.size
            if np.max(np.abs(gap - ident)) > lemmas.GAP_SLACK * (1.0 + np.max(np.abs(gap))):
                rep.merge_violation({"alpha": a, "beta": b, "kind": "identity mismatch"})
            if np.any(gap < -2.0 - lemmas.GAP_SLACK):
                i, j = np.argwhere(gap < -2.0 - lemmas.GAP_SLACK)[0]
                rep.merge_violation({"alpha": a, "beta": b, "x": float(X[i, 0]),
                                     "y": float(Y[0, j])})
            worst_gap = min(worst_gap, float(np.min(gap)))
    rep.worst_ratio = worst_gap / -2.0
    rep.empirical_constant = worst_gap
    return rep


@pytest.mark.parametrize("alpha, beta", [(0.75, 0.75), (0.6, 0.9), (0.3, 0.95)])
def test_weight_gap_scan_equals_the_expression_form(alpha, beta):
    p = DissipParams(alpha, beta)
    got, want = lemmas._check_weight_gap(p, 1000), _expression_weight_gap(p, 1000)
    assert repr(vars(got)) == repr(vars(want))


def _force_violations(monkeypatch):
    # every xi != 0 then violates on the diagonal eta = xi, so each exponent has
    # violations in every block; every gap below -1.5 is a violation, the first
    # on the row x = 1, and so is every identity residual
    monkeypatch.setattr(lemmas, "REL_SLACK", -0.5)
    monkeypatch.setattr(lemmas, "GAP_SLACK", -0.5)


@pytest.mark.parametrize("forced", [False, True], ids=["exact", "forced"])
@pytest.mark.parametrize("gd", [10, 63, 64, 65, 1000, 1001])
def test_blocked_scans_equal_the_expression_forms(params, monkeypatch, gd, forced):
    # gd = 63, 64, 65 end the subadditivity grid before, on and after a block
    # edge; the gap scan's 402- and 668-row grids end in a ragged block
    if forced:
        _force_violations(monkeypatch)
    for scan, reference in ((lemmas._check_subadditivity, _expression_subadditivity),
                            (lemmas._check_weight_gap, _expression_weight_gap)):
        got, want = scan(params, gd), reference(params, gd)
        assert repr(vars(got)) == repr(vars(want))
        assert (got.violations > 0) == forced


@pytest.mark.parametrize("block_rows", [1, 7])
def test_blocked_scans_take_the_row_major_first_violation(params, monkeypatch, block_rows):
    # with one-row blocks the first gap violation (x = 1, the grid's second row)
    # lies in the second block
    _force_violations(monkeypatch)
    monkeypatch.setattr(lemmas, "SCAN_BLOCK_ROWS", block_rows)
    gap = lemmas._check_weight_gap(params, 65)
    assert gap.violation_examples[0]["kind"] == "identity mismatch"
    assert gap.violation_examples[1]["x"] == 1.0
    assert repr(vars(gap)) == repr(vars(_expression_weight_gap(params, 65)))
    assert repr(vars(lemmas._check_subadditivity(params, 65))) == \
        repr(vars(_expression_subadditivity(params, 65)))


def test_blocked_scans_hold_row_blocks_not_the_grid(params):
    # at gd = 2000 one gd x gd float64 array is 30.5 MiB, and the gap scan's
    # (2 + 2 * 666)^2 one 13.6 MiB; the subadditivity bound leaves room for the
    # 100,000 random pairs
    for scan, bound_mib in ((lemmas._check_subadditivity, 16), (lemmas._check_weight_gap, 8)):
        tracemalloc.start()
        try:
            scan(params, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (scan.__name__, peak / 2**20)


def test_subadditivity_violations_are_reported(params, monkeypatch):
    # a negative slack turns every sample with lhs > rhs/2 into a violation, on
    # the 1-D grid and on the 2-D random pairs alike
    monkeypatch.setattr(lemmas, "REL_SLACK", -0.5)
    rep = lemmas._check_subadditivity(params, 10)
    assert rep.violations > 0
    assert rep.violation_examples
    assert any(isinstance(ex["xi"], list) for ex in rep.violation_examples)


def test_remark_chain_diagonal_scalar_identity():
    # on k1 = k2 with alpha = beta the middle exponent is 2 t |k1|^a and the
    # isotropic one is t 2^{a/2} |k1|^a; the two-sided comparison is direct
    a, t, T0 = 0.75, 0.15, 0.3
    for k in (1.0, 4.0, 37.0, 128.0):
        mixed = 2.0 * t * k**a
        iso = t * (2.0 ** (a / 2.0)) * k**a
        assert iso <= mixed + T0
        assert mixed <= 2.0 * iso + T0


def test_functional_suite_no_violations(grid64, params):
    spec = FieldEnsembleSpec(grid64, seed=21, count=30, kmax=10, spectrum_slope=2.0)
    reports = functional_inequality_suite(spec, params)
    assert total_violations(reports) == 0
    by_name = {r.inequality: r for r in reports}
    assert abs(by_name["calderon_zygmund_p2"].empirical_constant - 1.0) < 1e-12
    for name in ("sobolev_injection", "product_law_symmetric",
                 "product_law_asymmetric", "calderon_zygmund"):
        assert math.isfinite(by_name[name].worst_ratio)
        assert by_name[name].samples > 0


def test_functional_suite_swapped_exponents(grid64):
    # alpha > beta: the directional-control lemma is applied with axes swapped
    p = DissipParams(0.9, 0.55, s=1.0)
    spec = FieldEnsembleSpec(grid64, seed=22, count=10, kmax=8, spectrum_slope=2.0)
    reports = functional_inequality_suite(spec, p)
    assert total_violations(reports) == 0


def test_empirical_constants_monotone_and_stable(grid64, params):
    spec_a = FieldEnsembleSpec(grid64, seed=30, count=40, kmax=10, spectrum_slope=2.0)
    spec_b = FieldEnsembleSpec(grid64, seed=30, count=80, kmax=10, spectrum_slope=2.0)
    rep_a = {r.inequality: r for r in functional_inequality_suite(spec_a, params)}
    rep_b = {r.inequality: r for r in functional_inequality_suite(spec_b, params)}
    for name in rep_a:
        assert rep_b[name].empirical_constant >= rep_a[name].empirical_constant - 1e-15
    # disjoint ensembles drift < 10% on constant-bearing lemmas
    spec_c = FieldEnsembleSpec(grid64, seed=31, count=40, kmax=10, spectrum_slope=2.0)
    rep_c = {r.inequality: r for r in functional_inequality_suite(spec_c, params)}
    for name in ("sobolev_injection", "product_law_symmetric", "calderon_zygmund"):
        a, c = rep_a[name].empirical_constant, rep_c[name].empirical_constant
        assert abs(a - c) / max(a, c) < 0.10


def test_violation_reporting_machinery():
    rep = InequalityReport("demo", 0, 0.0, 0.0)
    for i in range(15):
        rep.merge_violation({"sample": i})
    assert rep.violations == 15
    assert len(rep.violation_examples) == 10


def _per_call_suite(spec, p, blocks):
    """The functional suite with every norm taken by one call of the public
    per-call functions, on SpectralField intermediates: the reference for the
    one-pass suite. `blocks` gives the names, bound kinds and notes."""
    reps = {r.inequality: InequalityReport(r.inequality, exact_bound=r.exact_bound, note=r.note)
            for r in blocks}
    update = lemmas._ratio_update
    a, b = (p.alpha, p.beta) if p.alpha <= p.beta else (p.beta, p.alpha)
    ax1, ax2 = (2, 1) if p.alpha > p.beta else (1, 2)
    for i in range(spec.count):
        f = random_band_limited_field(spec, 2 * i)
        g = random_band_limited_field(spec, 2 * i + 1)
        for s1, s2 in lemmas.INTERPOLATION_PAIRS:
            n1h, n2h = sobolev_norm(f, s1, True), sobolev_norm(f, s2, True)
            n1i, n2i = sobolev_norm(f, s1), sobolev_norm(f, s2)
            for t in lemmas.INTERPOLATION_THETAS:
                s_mid = t * s1 + (1 - t) * s2
                repro = {"sample": i, "s1": s1, "s2": s2, "t": t}
                update(reps["interpolation_homogeneous"], sobolev_norm(f, s_mid, True),
                       n1h**t * n2h ** (1 - t), repro)
                update(reps["interpolation_inhomogeneous"], sobolev_norm(f, s_mid),
                       n1i**t * n2i ** (1 - t), repro)
        for sigma in lemmas.SOBOLEV_SIGMAS:
            update(reps["sobolev_injection"], lp_norm(f, 2.0 / (1.0 - sigma)),
                   sobolev_norm(f, sigma, True), {"sample": i, "sigma": sigma})
        fg = oversampled_product(f, g)
        for s1, s2 in lemmas.PRODUCT_PAIRS:
            if not (s1 < 1.0 and s1 + s2 > 0.0):
                reps["product_law_symmetric"].skipped += 1
                continue
            lhs = sobolev_norm(fg, s1 + s2 - 1.0, True)
            f1, f2 = sobolev_norm(f, s1, True), sobolev_norm(f, s2, True)
            g1, g2 = sobolev_norm(g, s1, True), sobolev_norm(g, s2, True)
            repro = {"sample": i, "s1": s1, "s2": s2}
            update(reps["product_law_symmetric"], lhs, f1 * g2 + f2 * g1, repro)
            if s2 < 1.0:
                update(reps["product_law_asymmetric"], lhs, f1 * g2, repro)
            else:
                reps["product_law_asymmetric"].skipped += 1
        u1, u2 = riesz_velocity(f)
        for q in lemmas.CZ_EXPONENTS:
            lhs, rhs = vector_lp_norm(u1, u2, q), lp_norm(f, q)
            update(reps["calderon_zygmund"], lhs, rhs, {"sample": i, "p": q})
            if q == 2.0:
                rep = reps["calderon_zygmund_p2"]
                rep.samples += 1
                rep.worst_ratio = max(rep.worst_ratio, abs(lhs / rhs - 1.0))
                rep.empirical_constant = max(rep.empirical_constant, lhs / rhs)
        grad_a = SpectralField(f.grid, sobolev_weight(f.grid, a / 2.0, True) * f.coeffs)
        for s in (0.0, p.s, 1.0):
            norm_s, seminorm_b = sobolev_norm(f, s, True), directional_seminorm(f, ax2, b, s)
            rhs = norm_s + directional_seminorm(f, ax1, a, s) + seminorm_b
            update(reps["directional_control"], sobolev_norm(grad_a, s, True), rhs,
                   {"sample": i, "s": s})
            z = a / b
            update(reps["directional_interpolation"], directional_seminorm(f, ax2, a, s),
                   norm_s ** (1 - z) * seminorm_b ** z, {"sample": i, "s": s, "z": z})
    return list(reps.values())


@pytest.mark.parametrize("alpha, beta, n1, n2", [
    (0.75, 0.8, 64, 64), (0.9, 0.55, 64, 64), (0.75, 0.8, 32, 48),
])
def test_one_pass_suite_equals_per_call_norms(alpha, beta, n1, n2, monkeypatch):
    # every (lhs, rhs) pair is recorded, so that a change below the worst ratio shows
    calls = []
    update = lemmas._ratio_update

    def recording(rep, lhs, rhs, repro):
        calls.append((rep.inequality, lhs, rhs, repro))
        update(rep, lhs, rhs, repro)

    monkeypatch.setattr(lemmas, "_ratio_update", recording)
    p = DissipParams(alpha, beta, s=1.2)
    spec = FieldEnsembleSpec(GridSpec(n1, n2), seed=55, count=3, kmax=8, spectrum_slope=2.0)
    got = functional_inequality_suite(spec, p)
    got_calls, calls[:] = calls[:], []
    want = _per_call_suite(spec, p, got)
    assert got_calls == calls
    assert [r.inequality for r in got] == [r.inequality for r in want]
    for g, w in zip(got, want):
        assert g.samples > 0
        assert vars(g) == vars(w), g.inequality


def test_suite_forms_each_field_once_per_sample(grid64, params, monkeypatch):
    transforms = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        def counting(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            transforms[_name, np.shape(a)] += 1
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    fields = Counter()
    post_init = SpectralField.__post_init__

    def counting_init(self):
        fields["built"] += 1
        post_init(self)

    monkeypatch.setattr(SpectralField, "__post_init__", counting_init)
    samples = 2
    spec = FieldEnsembleSpec(grid64, seed=3, count=samples, kmax=10, spectrum_slope=2.0)
    functional_inequality_suite(spec, params)
    # |f| and |u| = |(u1, u2)| at n; the two padded half-layout factors and the
    # product at 2n
    assert transforms == {("ifft2", (64, 64)): 3 * samples, ("irfft2", (128, 65)): 2 * samples,
                          ("rfft2", (128, 128)): samples}
    # the ensemble draws f and g; every intermediate is a bare coefficient array
    assert fields["built"] == 2 * samples


def test_nan_ratios_are_recorded_not_dropped():
    exact = InequalityReport("exact")
    for i, lhs in enumerate((0.5, math.nan, 0.75)):
        lemmas._ratio_update(exact, lhs, 1.0, {"sample": i})
    assert math.isnan(exact.worst_ratio) and math.isnan(exact.empirical_constant)
    assert exact.violations == 1 and exact.violation_examples == [{"sample": 1}]
    loose = InequalityReport("loose", exact_bound=False)
    lemmas._ratio_update(loose, math.inf, math.inf, {"sample": 0})
    assert math.isnan(loose.worst_ratio) and loose.violations == 0
    assert total_violations([exact, loose]) == 2
    # finite ratios keep their exact bits
    finite = InequalityReport("finite", exact_bound=False)
    for lhs in (0.3, 0.7, 0.1):
        lemmas._ratio_update(finite, lhs, 0.9, {})
    assert finite.worst_ratio == finite.empirical_constant == 0.7 / 0.9
    # the p = 2 isometry block records a NaN velocity norm as a violation
    reps = {name: InequalityReport(name, exact_bound=name.endswith("p2"))
            for name in ("calderon_zygmund", "calderon_zygmund_p2")}
    abs_u = np.ones((8, 8))
    abs_u[3, 4] = math.nan
    lemmas._calderon_zygmund_checks(reps, _lp_table(np.ones((8, 8)), lemmas.CZ_EXPONENTS),
                                    _lp_table(abs_u, lemmas.CZ_EXPONENTS), 0)
    cz, p2 = reps["calderon_zygmund"], reps["calderon_zygmund_p2"]
    assert math.isnan(cz.worst_ratio) and total_violations([cz]) == 1
    assert math.isnan(p2.worst_ratio) and math.isnan(p2.empirical_constant)
    assert p2.violations == 1
