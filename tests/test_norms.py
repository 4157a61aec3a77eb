"""Norm computations against closed-form Parseval sums and quadratures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqgsim.grid import (GridSpec, SpectralField, field_from_modes, field_from_values,
                         sine_field, zero_field)
from aqgsim.norms import (WEIGHT_CAP, _gevrey_norm, _gevrey_weights, _hs_from_power,
                          _hs_norm, _hs_norms, _hs_table, _weighted_hs_norms, _lp, _lp_table, directional_seminorm,
                          gevrey_weighted_norm, lp_norm, sobolev_norm, vector_lp_norm)
from aqgsim.operators import DissipParams, gevrey_multiplier

from conftest import random_real_grid

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_sobolev_norm_closed_forms(grid32):
    assert sobolev_norm(zero_field(grid32), 1.3) == 0.0
    f = sine_field(grid32, (1, 0))
    assert sobolev_norm(f, 0.0) == pytest.approx(INV_SQRT2, rel=1e-14)
    assert sobolev_norm(f, 1.0) == pytest.approx(1.0, rel=1e-14)
    # homogeneous norm of a (2,0) mode: |k|^s * L2 mass
    g = sine_field(grid32, (2, 0))
    assert sobolev_norm(g, 0.5, homogeneous=True) == pytest.approx(
        math.sqrt(2.0) * INV_SQRT2, rel=1e-14)


@pytest.mark.parametrize("shape", [(64, 64), (32, 48)])
@pytest.mark.parametrize("s, homogeneous", [(0.0, False), (1.3, False), (0.4, True)])
def test_stack_norms_equal_per_field_norms_bitwise(shape, s, homogeneous):
    grid = GridSpec(*shape)
    stack = np.stack([field_from_values(grid, random_real_grid(grid, 40 + i)).half
                      for i in range(7)])
    norms = _hs_norms(stack, grid, s, homogeneous)
    assert norms.shape == (7,)
    for c, n in zip(stack, norms):
        one = _hs_norm(c, grid, s, homogeneous)
        # a Python float, so that repr() in the reports prints a bare number
        assert type(one) is float
        assert np.float64(one).tobytes() == n.tobytes()


@pytest.mark.parametrize("fine", [False, True])
def test_hs_table_equals_per_order_norms_bitwise(fine):
    """One stacked reduction gives each (s, homogeneous) norm of one power with
    the bits of its own `_hs_from_power`, on the 64^2 grid of the lemma suite and
    on the 128^2 grid of its product."""
    from aqgsim.lemmas import _hs_orders

    grid = GridSpec(128, 128) if fine else GridSpec(64, 64)
    f_orders, _, fg_orders, _ = _hs_orders(DissipParams(0.75, 0.6, s=1.2))
    orders = fg_orders + ((-0.3, False), (1.7, False)) if fine else f_orders
    assert {h for _, h in orders} == {True, False}
    for seed in (1, 2):
        power = np.abs(field_from_values(grid, random_real_grid(grid, seed)).half) ** 2
        table = _hs_table(power, grid, orders)
        assert list(table) == list(orders)
        for (s, homogeneous), got in table.items():
            want = _hs_from_power(power, grid, s, homogeneous)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (s, homogeneous)


def _lp_one_exponent(v, p):
    """Reference: the Lp quadrature at one exponent, scaled by the max of v."""
    m = float(np.max(v))
    return 0.0 if m == 0.0 else m * float(np.mean((v / m) ** p) ** (1.0 / p))


def test_lp_table_equals_lp_bitwise(grid64):
    """The table of the lemma suite's exponents, one scaling by the max for all
    of them, gives each norm with the bits of `_lp` at that exponent alone."""
    exponents = (1.5, 2.0, 2.0 / 0.75, 3.0, 4.0, 8.0)
    v = np.abs(field_from_values(grid64, random_real_grid(grid64, 3)).values())
    spoiled = v.copy()
    spoiled[5, 7] = math.nan
    for values in (v, 1e-200 * v, np.zeros(grid64.shape), spoiled):
        table = _lp_table(values, exponents)
        assert list(table) == list(exponents)
        for p_exp, got in table.items():
            want = _lp_one_exponent(values, p_exp)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert np.float64(_lp(values, p_exp)).tobytes() == np.float64(want).tobytes()
    assert all(math.isnan(x) for x in _lp_table(spoiled, exponents).values())
    assert set(_lp_table(np.zeros(grid64.shape), exponents).values()) == {0.0}
    for bad in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="Lebesgue exponent"):
            _lp_table(v, (2.0, bad))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(shape=st.sampled_from([(8, 8), (32, 48), (96, 64), (64, 64), (16, 40)]),
       s=st.floats(-2.0, 3.0), homogeneous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_half_layout_norm_equals_full_layout_sum(shape, s, homogeneous, seed):
    """The H^s sum over the columns k2 = 0 .. n2/2 against the half weight
    equals the explicit sum over all n1 n2 modes, sqrt(sum w |c|^2), on
    Hermitian fields: a single field and a stack."""
    grid = GridSpec(*shape)
    rng = np.random.default_rng(seed)
    fields = [field_from_values(grid, rng.standard_normal(shape)) for _ in range(3)]
    stack = np.stack([f.coeffs for f in fields])
    # the full-layout weight, built here from the wavenumbers of all n1 n2 modes
    k_sq = grid.k1**2 + grid.k2**2
    w = np.where(k_sq > 0, k_sq, 1.0) ** s if homogeneous else (1.0 + k_sq) ** s
    if homogeneous:
        w[0, 0] = 0.0  # the k = 0 term is omitted
    full = np.sqrt((w * np.abs(stack) ** 2).sum(axis=(1, 2)))
    half = np.stack([f.half for f in fields])
    for got in (_hs_norms(half, grid, s, homogeneous),
                [_hs_norm(c, grid, s, homogeneous) for c in half]):
        assert np.all(np.abs(np.asarray(got) - full) <= 1e-14 * full)


@pytest.mark.parametrize("column", ["k2 = 0", "k2 = n2/2"])
def test_gevrey_saturates_on_a_live_mode_of_a_self_conjugate_column(column):
    """The only live mode past WEIGHT_CAP sits at k1 < 0 of a self-conjugate
    column, where the half layout holds it (its partner k1 > 0 is zero, so the
    array is not Hermitian): the norm still saturates to inf. Killing that mode
    leaves a finite norm."""
    grid, p = GridSpec(32, 48), DissipParams(0.75, 0.75)
    col = 0 if column == "k2 = 0" else grid.n2 // 2
    t = 2.1 * WEIGHT_CAP / gevrey_multiplier(grid, p)[-9, col]
    exponent = 0.5 * t * gevrey_multiplier(grid, p)
    assert exponent[-9, col] > WEIGHT_CAP and exponent[1, 0] <= WEIGHT_CAP
    c = np.zeros(grid.half_shape, dtype=np.complex128)
    c[1, 0] = c[-1, 0] = 0.5
    c[-9, col] = 1e-300
    assert _gevrey_norm(c, grid, t, 0.0, p) == math.inf
    c[-9, col] = 0.0
    assert math.isfinite(_gevrey_norm(c, grid, t, 0.0, p))


def test_homogeneous_norm_ignores_mean(grid32):
    f = field_from_modes(grid32, {(0, 0): 3.0, (1, 0): -0.5j})
    g = field_from_modes(grid32, {(1, 0): -0.5j})
    assert sobolev_norm(f, 0.7, homogeneous=True) == pytest.approx(
        sobolev_norm(g, 0.7, homogeneous=True), rel=1e-14)


def test_norm_monotone_in_s(grid64):
    f = field_from_values(grid64, random_real_grid(grid64, 11)).dealiased()
    norms = [sobolev_norm(f, s) for s in (-1.0, -0.3, 0.0, 0.5, 1.0, 1.7, 2.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


def test_lp_norm_closed_forms(grid32):
    const = field_from_modes(grid32, {(0, 0): 1.0})
    for p in (1.5, 2.0, 4.0, 7.0):
        assert lp_norm(const, p) == pytest.approx(1.0, rel=1e-14)
    f = sine_field(grid32, (1, 0))
    assert lp_norm(f, 2.0) == pytest.approx(INV_SQRT2, rel=1e-12)
    # integral of sin^4 over a period is 3/8 in the normalized measure
    assert lp_norm(f, 4.0) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-12)


def test_lp_norm_large_finite_exponent(grid32):
    # mean(v**p)**(1/p) overflows to inf for max|v| = 2 and underflows to 0 for 0.5
    f = sine_field(grid32, (1, 0))
    assert lp_norm(2.0 * f, 1500.0) == pytest.approx(1.99631, rel=1e-5)
    assert lp_norm(0.5 * f, 1500.0) == pytest.approx(0.49908, rel=1e-5)
    assert vector_lp_norm(2.0 * f, 2.0 * f, 1500.0) == pytest.approx(2.82320, rel=1e-5)


def test_lp_rejects_bad_exponent(grid32):
    f = sine_field(grid32, (1, 0))
    for p in (1.0, math.inf):  # at p = inf the quadrature mean(v**p)**(1/p) reads 1.0
        with pytest.raises(ValueError):
            lp_norm(f, p)
        with pytest.raises(ValueError):
            vector_lp_norm(f, f, p)


def test_parseval_consistency(grid64):
    f = field_from_values(grid64, random_real_grid(grid64, 12)).dealiased()
    assert lp_norm(f, 2.0) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-12)


def test_vector_lp_matches_scalar_on_one_component(grid32):
    f = sine_field(grid32, (1, 0))
    assert vector_lp_norm(f, zero_field(grid32), 3.0) == pytest.approx(
        lp_norm(f, 3.0), rel=1e-14)


def test_directional_seminorm_cases(grid32):
    f = sine_field(grid32, (0, 1))
    assert directional_seminorm(f, 1, 0.7, 0.0) == 0.0
    g = sine_field(grid32, (1, 0))
    assert directional_seminorm(g, 1, 0.75, 0.0) == pytest.approx(INV_SQRT2, rel=1e-14)
    h = sine_field(grid32, (2, 0))
    assert directional_seminorm(h, 1, 0.5, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_gevrey_weighted_norm_values(grid32):
    p = DissipParams(0.75, 0.75)
    f = sine_field(grid32, (1, 0))
    assert gevrey_weighted_norm(f, 0.0, 0.0, p) == pytest.approx(
        sobolev_norm(f, 0.0), rel=1e-14)
    res = gevrey_weighted_norm(f, 1.0, 0.0, p)
    assert not math.isinf(res)
    assert res == pytest.approx(math.e * INV_SQRT2, rel=1e-13)


def test_gevrey_weight_monotone_in_time(grid64):
    p = DissipParams(0.75, 0.6)
    f = field_from_values(grid64, random_real_grid(grid64, 13)).dealiased()
    v1 = gevrey_weighted_norm(f, 0.5, 1.2, p)
    v2 = gevrey_weighted_norm(f, 1.0, 1.2, p)
    assert v1 <= v2


def test_gevrey_saturation_flagged(grid32):
    p = DissipParams(0.75, 0.75)
    f = sine_field(grid32, (10, 0))
    res = gevrey_weighted_norm(f, 200.0, 0.0, p)  # exponent 200 * 10^0.75 > WEIGHT_CAP
    assert math.isinf(res)
    assert res == math.inf


def test_gevrey_overflow_reads_inf_without_a_warning(grid64):
    """A mode of size 1e-16 with weight exponent 690 stays under WEIGHT_CAP, but
    its weighted square passes the float range: the norm is inf, and numpy's
    overflow warning does not reach the caller."""
    p = DissipParams(0.75, 0.75)
    t = 2.0 * 690.0 / gevrey_multiplier(grid64, p)[21, 21]
    f = sine_field(grid64, (21, 21), 2e-16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gevrey_weighted_norm(f, t, 0.0, p) == math.inf


def test_gevrey_dead_modes_past_cap_stay_unweighted(grid32):
    # at t = 100 the weight exponent passes WEIGHT_CAP on the outer modes of the
    # grid, but only the mode (1, 0) is live, with exponent 100
    p = DissipParams(0.75, 0.75)
    f = sine_field(grid32, (1, 0))
    res = gevrey_weighted_norm(f, 100.0, 0.0, p)
    assert not math.isinf(res)
    assert res == pytest.approx(math.exp(100.0) * INV_SQRT2, rel=1e-13)


def test_gevrey_weight_stack_gives_gevrey_norms_bitwise(grid64):
    """A stack of weights applied to a field, or to a matching stack, gives the
    `_gevrey_norm` of each at its time, bit for bit, overflow reading inf; an
    exponent past WEIGHT_CAP has no weight that serves every field."""
    p = DissipParams(0.6, 0.85, mu=0.7, nu=1.9)
    times = [0.0, 0.25, 0.5, 1.0, 2.0]
    weights = _gevrey_weights(grid64, times, p)
    f = field_from_values(grid64, random_real_grid(grid64, 5))
    stack = np.stack([(k + 1.0) * f.half for k in range(len(times))])
    for s in (0.4, 1.0, 90.0):  # at s = 90 the two largest times overflow
        got = _weighted_hs_norms(weights, f.half, grid64, s)
        assert got.tolist() == [_gevrey_norm(f.half, grid64, t, s, p) for t in times]
        got = _weighted_hs_norms(weights, stack, grid64, s)
        assert got.tolist() == [_gevrey_norm(c, grid64, t, s, p) for c, t in zip(stack, times)]
    assert got.tolist()[2] < math.inf == got.tolist()[3]
    # at s = 300 the Sobolev weight overflows on modes where a sine field is
    # zero, so the raw sum is NaN: it reads inf too
    got = _weighted_hs_norms(weights, sine_field(grid64, (1, 0)).half, grid64, 300.0)
    assert got.tolist() == [math.inf] * len(times)
    with pytest.raises(ValueError, match="WEIGHT_CAP"):
        _gevrey_weights(grid64, [1.0, 2.0 * WEIGHT_CAP], p)


def test_gevrey_matches_gevrey_sobolev_norm_on_axis(grid32):
    # on (k, 0) modes with alpha = beta the weight is exp(t |k|^alpha * 2/2 * 2)...
    # coefficient-level identity: weight(t, k) = exp(a |k|^{1/sigma}) with
    # a = t, sigma = 1/alpha
    p = DissipParams(0.75, 0.75)
    t = 0.8
    for k in (1, 2, 5):
        f = sine_field(grid32, (k, 0))
        got = gevrey_weighted_norm(f, t, 0.3, p)
        a = t  # exp((t/2) * 2 |k|^alpha) = exp(t |k|^{1/ (1/alpha)})
        expected = math.exp(a * k ** p.alpha) * sobolev_norm(f, 0.3)
        assert got == pytest.approx(expected, rel=1e-13)


def test_interpolation_identity_single_mode_equality(grid32):
    f = sine_field(grid32, (3, 2))
    s1, s2, t = -0.5, 1.5, 0.3
    mid = t * s1 + (1 - t) * s2
    lhs = sobolev_norm(f, mid, homogeneous=True)
    rhs = sobolev_norm(f, s1, True) ** t * sobolev_norm(f, s2, True) ** (1 - t)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_interpolation_inequality_random_fields(grid64):
    for seed in range(5):
        f = field_from_values(grid64, random_real_grid(grid64, 100 + seed)).dealiased()
        for s1, s2, t in ((-0.4, 1.0, 0.5), (0.0, 2.0, 0.25), (0.5, 0.9, 0.75)):
            mid = t * s1 + (1 - t) * s2
            lhs = sobolev_norm(f, mid, homogeneous=True)
            rhs = sobolev_norm(f, s1, True) ** t * sobolev_norm(f, s2, True) ** (1 - t)
            assert lhs <= rhs * (1 + 1e-12)

