"""Multipliers, Riesz velocity, semigroup, and the dealiased nonlinearity."""

import math
from collections import Counter

import numpy as np
import pytest

from aqgsim.grid import (GridSpec, field_from_modes, field_from_values, from_physical,
                        sine_field, to_physical)
from aqgsim.norms import sobolev_norm
from aqgsim.operators import (DissipParams, _nonlinear_raw, apply_semigroup,
                              dissipation_symbol, gevrey_symbol, nonlinear_term,
                              riesz_multipliers, riesz_velocity)
from aqgsim.lemmas import FieldEnsembleSpec, random_band_limited_field

from conftest import random_real_grid


def test_dissip_params_validation():
    with pytest.raises(ValueError):
        DissipParams(1.5, 0.5)
    with pytest.raises(ValueError):
        DissipParams(0.5, 0.5, mu=-1.0)
    assert DissipParams(0.75, 0.75, s=1.0).in_guaranteed_regime
    assert not DissipParams(0.4, 0.75, s=1.3).in_guaranteed_regime
    assert DissipParams(0.75, 0.75, s=0.3).regime == "unguaranteed"


def test_dissipation_symbol_values(params):
    assert dissipation_symbol((0, 0), params) == 0.0
    sym = DissipParams(0.75, 0.75)
    assert dissipation_symbol((1, 1), sym) == pytest.approx(2.0, abs=0)
    # scalar oracle: 2^1.5 + 3^1.2 evaluated independently
    expected = 2.0**1.5 + 3.0**1.2
    assert dissipation_symbol((2, 3), params) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(6.565619943592742, rel=1e-14)


def test_dissipation_symbol_coefficients():
    p = DissipParams(0.5, 0.5, mu=2.0, nu=3.0)
    assert dissipation_symbol((1, 1), p) == pytest.approx(5.0, rel=1e-15)


def test_gevrey_symbol_values():
    p = DissipParams(0.75, 0.75)
    assert gevrey_symbol((0, 0), p) == 0.0
    assert gevrey_symbol((1, 1), p) == pytest.approx(4.0, abs=0)
    assert gevrey_symbol((4, 0), p) == pytest.approx(2.0 * 4.0**0.75, rel=1e-14)


def test_riesz_velocity_single_modes(grid32):
    x1, x2 = grid32.physical_points()
    u1, u2 = riesz_velocity(sine_field(grid32, (0, 1)))
    assert np.allclose(u1.values(), -np.cos(x2), atol=1e-13)
    assert np.max(np.abs(u2.values())) < 1e-14
    u1, u2 = riesz_velocity(sine_field(grid32, (1, 0)))
    assert np.max(np.abs(u1.values())) < 1e-14
    assert np.allclose(u2.values(), np.cos(x1), atol=1e-13)


def test_riesz_divergence_free(grid64):
    f = field_from_values(grid64, random_real_grid(grid64, 2)).dealiased()
    u1, u2 = riesz_velocity(f)
    div = grid64.k1 * u1.coeffs + grid64.k2 * u2.coeffs
    assert np.max(np.abs(div)) < 1e-13


def test_riesz_l2_isometry(grid64):
    f = field_from_values(grid64, random_real_grid(grid64, 3)).dealiased()
    u1, u2 = riesz_velocity(f)
    lhs = np.sum(np.abs(u1.coeffs) ** 2 + np.abs(u2.coeffs) ** 2)
    rhs = np.sum(np.abs(f.coeffs) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_riesz_rejects_nonzero_mean(grid32):
    f = field_from_modes(grid32, {(0, 0): 1.0, (1, 0): 0.5j})
    with pytest.raises(ValueError, match="mean-zero"):
        riesz_velocity(f)


def test_nonlinear_term_single_mode_vanishes(grid32):
    out = nonlinear_term(sine_field(grid32, (1, 0)))
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_nonlinear_term_two_axis_modes_cancel(grid32):
    # u.grad(theta) = -cos(x2)cos(x1) + cos(x1)cos(x2) = 0
    theta = sine_field(grid32, (1, 0)) + sine_field(grid32, (0, 1))
    out = nonlinear_term(theta)
    assert np.max(np.abs(out.coeffs)) < 1e-14


@pytest.mark.parametrize("direction", [(1, 0), (0, 1), (1, 1), (2, -1)])
def test_nonlinear_term_annihilates_line_supported_fields(grid64, direction):
    # velocity is perpendicular to the gradient for fields on one k-line
    modes = {}
    for m in (1, 2, 3):
        k = (m * direction[0], m * direction[1])
        modes[k] = 0.3j / m
    theta = field_from_modes(grid64, modes)
    out = nonlinear_term(theta)
    assert np.max(np.abs(out.coeffs)) < 1e-12


def test_nonlinear_term_matches_oversampled_oracle(grid64):
    """Brute-force oracle: same product formed on a 4x finer grid, untruncated."""
    spec = FieldEnsembleSpec(grid64, seed=9, count=1, kmax=8, spectrum_slope=2.0)
    theta = random_band_limited_field(spec, 0)
    out = nonlinear_term(theta)

    fine = GridSpec(256, 256)
    pad = np.zeros(fine.shape, dtype=complex)
    idx = ((np.fft.fftfreq(64) * 64).astype(int)) % 256
    pad[np.ix_(idx, idx)] = theta.coeffs
    n = 256 * 256
    kmag = np.sqrt(fine.k_sq)
    kmag[0, 0] = 1.0
    m1 = -1j * fine.k2 / kmag
    m2 = 1j * fine.k1 / kmag
    th = np.real(np.fft.ifft2(pad * n))
    w1 = np.real(np.fft.ifft2(m1 * pad * n))
    w2 = np.real(np.fft.ifft2(m2 * pad * n))
    flux1 = np.fft.fft2(th * w1) / n
    flux2 = np.fft.fft2(th * w2) / n
    oracle_fine = 1j * (fine.k1 * flux1 + fine.k2 * flux2)
    # compare on the coarse retained band
    oracle = oracle_fine[np.ix_(idx, idx)]
    oracle = np.where(grid64.dealias_mask, oracle, 0.0)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(out.coeffs - oracle)) < 1e-12 * scale


def _former_kernel(coeffs, grid, velocity_coeffs=None):
    """Reference: both fluxes through the full forward transform, then
    i(k1 f1 + k2 f2) under the 2/3 mask."""
    cv = coeffs if velocity_coeffs is None else velocity_coeffs
    m1, m2 = riesz_multipliers(grid)
    theta = to_physical(coeffs, grid)
    u1, u2 = to_physical(m1 * cv, grid), to_physical(m2 * cv, grid)
    f1 = from_physical(theta * u1, grid)
    f2 = from_physical(theta * u2, grid)
    out = np.where(grid.dealias_mask, 1j * (grid.k1 * f1 + grid.k2 * f2), 0.0)
    return out, float(np.max(np.sqrt(u1**2 + u2**2)))


@pytest.mark.parametrize("shape", [(64, 64), (32, 48), (96, 64)])
@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_matches_former_formula(shape, bilinear):
    grid = GridSpec(*shape)
    spec = FieldEnsembleSpec(grid, seed=13, count=2, kmax=min(shape) // 3, spectrum_slope=1.0)
    theta, other = (random_band_limited_field(spec, i).coeffs for i in range(2))
    cv = other if bilinear else None
    out, max_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv)
    ref, ref_max_u = _former_kernel(theta, grid, cv)
    assert max_u == ref_max_u
    if shape == (64, 64):
        # k / (n1 n2) is exact on power-of-two grids: every bit agrees in the
        # band, and outside it both are zero (of either sign)
        band = grid.dealias_mask
        assert out[band].tobytes() == ref[band].tobytes()
        assert np.array_equal(out, ref)
    else:
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_makes_three_inverse_and_two_real_transforms(grid64, monkeypatch):
    spec = FieldEnsembleSpec(grid64, seed=14, count=2, kmax=12, spectrum_slope=1.0)
    theta, other = (random_band_limited_field(spec, i).coeffs for i in range(2))
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    _nonlinear_raw(theta, grid64)
    _nonlinear_raw(theta, grid64, velocity_coeffs=other)
    assert calls == {"ifft2": 6, "rfft2": 4}


def test_semigroup_identity_and_decay(grid32):
    p = DissipParams(0.75, 0.75)
    f = sine_field(grid32, (1, 0))
    assert np.array_equal(apply_semigroup(f, 0.0, p).coeffs, f.coeffs)
    x1, _ = grid32.physical_points()
    g = apply_semigroup(f, 0.7, p)
    assert np.allclose(g.values(), math.exp(-0.7) * np.sin(x1), atol=1e-13)


def test_semigroup_single_coefficient_scaling(grid32, params):
    f = field_from_modes(grid32, {(2, 3): 0.5j})
    g = apply_semigroup(f, 0.5, params)
    expected = 0.5j * math.exp(-0.5 * (2.0**1.5 + 3.0**1.2))
    assert g.coeffs[2, 3] == pytest.approx(expected, rel=1e-14)


def test_semigroup_rejects_negative_time(grid32, params):
    with pytest.raises(ValueError):
        apply_semigroup(sine_field(grid32, (1, 0)), -0.1, params)


def test_semigroup_contraction_all_sobolev_orders(grid64, params):
    f = field_from_values(grid64, random_real_grid(grid64, 5)).dealiased()
    g = apply_semigroup(f, 0.3, params)
    for s in (-1.0, 0.0, 1.2, 2.0):
        assert sobolev_norm(g, s) <= sobolev_norm(f, s) * (1 + 1e-14)


def test_semigroup_composition(grid64, params):
    f = field_from_values(grid64, random_real_grid(grid64, 6)).dealiased()
    one = apply_semigroup(f, 0.9, params)
    two = apply_semigroup(apply_semigroup(f, 0.4, params), 0.5, params)
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-14 * max(1.0, np.max(np.abs(one.coeffs)))


def test_operations_preserve_symmetry_and_mean(grid64, params):
    f = field_from_values(grid64, random_real_grid(grid64, 7)).dealiased()
    for g in (*riesz_velocity(f), nonlinear_term(f), apply_semigroup(f, 0.2, params)):
        # SpectralField construction enforces Hermitian symmetry; check the mean
        assert abs(g.coeffs[0, 0]) < 1e-14


def test_multiplier_equivalence_bounds(grid64):
    # isotropic comparison at alpha = beta, mu = nu = 1
    for a in (0.55, 0.75, 0.9):
        p = DissipParams(a, a)
        A = dissipation_symbol((grid64.k1, grid64.k2), p)
        ratio = A[grid64.k_sq > 0] / grid64.k_sq[grid64.k_sq > 0] ** a
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= 2.0 ** (1.0 - a) + 1e-12)
