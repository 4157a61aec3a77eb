"""Multipliers, Riesz velocity, semigroup, and the dealiased nonlinearity."""

import math
from collections import Counter

import numpy as np
import pytest

from aqgsim.grid import (GridSpec, SpectralField, field_from_modes, field_from_values,
                        full_spectrum, half_from_physical, half_sobolev_weight,
                        half_to_physical, hermitian_defect, sine_field)
from aqgsim.norms import sobolev_norm
from aqgsim.operators import (DissipParams, _kernel_multipliers, _nonlinear_raw,
                              _velocity, apply_semigroup,
                              dissipation_multiplier, dissipation_symbol, gevrey_multiplier,
                              gevrey_symbol, nonlinear_term, riesz_multipliers,
                              riesz_velocity, symbol_multipliers)
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


@pytest.mark.parametrize("name", ["mu", "nu", "s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dissip_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        DissipParams(0.75, 0.75, **{name: value})


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


@pytest.mark.parametrize("shape", [(64, 64), (32, 48)])
def test_symbol_multipliers_built_once_read_only_and_exact(shape):
    p = DissipParams(0.6, 0.85, mu=0.7, nu=1.9, s=1.3)
    grid = GridSpec(*shape)
    d1, d2, A, B = symbol_multipliers(grid, p)
    # an equal (grid, params) key returns the same arrays, not a rebuild
    again = symbol_multipliers(GridSpec(*shape), DissipParams(0.6, 0.85, 0.7, 1.9, 1.3))
    assert all(x is y for x, y in zip(again, (d1, d2, A, B)))
    assert dissipation_multiplier(grid, p) is A and gevrey_multiplier(grid, p) is B
    h = grid.n2 // 2 + 1
    assert d1.shape == (grid.n1, 1) and d2.shape == (1, h) and A.shape == B.shape == (grid.n1, h)
    for m in (d1, d2, A, B):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    # the symbols at the wavenumbers of the half-layout columns k2 = 0 .. n2/2
    k = (grid.k1, grid.k2[:, :h])
    assert A.tobytes() == dissipation_symbol(k, p).tobytes()
    assert B.tobytes() == gevrey_symbol(k, p).tobytes()
    assert d1.tobytes() == (np.abs(grid.k1) ** (2.0 * p.alpha)).tobytes()
    assert d2.tobytes() == (np.abs(k[1]) ** (2.0 * p.beta)).tobytes()


@pytest.mark.parametrize("shape", [(32, 32), (32, 48), (96, 64)])
@pytest.mark.parametrize("source", ["ensemble", "grid samples"])
def test_multipliers_and_weights_hold_the_half_layout(shape, source):
    """Every cached multiplier and weight has the n2/2 + 1 columns of the half
    layout (or is an (n1, 1) column), is C-contiguous and read-only; the field
    operations built on them equal their full-layout oracles on Hermitian
    fields and return exactly Hermitian fields."""
    grid, h = GridSpec(*shape), shape[1] // 2 + 1
    p = DissipParams(0.6, 0.85, mu=0.7, nu=1.9, s=1.3)
    cached = [grid.dealias_mask, *symbol_multipliers(grid, p), *riesz_multipliers(grid),
              *_kernel_multipliers(grid),
              *(half_sobolev_weight(grid, s, homogeneous)
                for s in (-0.7, 0.0, 1.3, 2.0) for homogeneous in (False, True))]
    for m in cached:
        assert m.shape in {(grid.n1, h), (1, h), (grid.n1, 1)}
        assert m.flags.c_contiguous and not m.flags.writeable
    if source == "ensemble":
        spec = FieldEnsembleSpec(grid, seed=21, count=1, kmax=min(shape) // 3, spectrum_slope=1.0)
        f = random_band_limited_field(spec, 0)
    else:  # every mode live, the Nyquist row and column too
        values = random_real_grid(grid, 21)
        f = field_from_values(grid, values - values.mean())
    g = apply_semigroup(f, 0.3, p)
    assert np.array_equal(g.coeffs, np.exp(-0.3 * dissipation_symbol((grid.k1, grid.k2), p))
                          * f.coeffs)
    assert hermitian_defect(g.coeffs) == 0.0
    for u, m in zip(riesz_velocity(f), _full_riesz_multipliers(grid)):
        assert np.array_equal(u.coeffs, m * f.coeffs)
        assert hermitian_defect(u.coeffs) == 0.0


@pytest.mark.parametrize("shape", [(64, 64), (32, 48)])
def test_velocity_is_riesz_velocity_with_its_max_magnitude(shape):
    grid = GridSpec(*shape)
    spec = FieldEnsembleSpec(grid, seed=12, count=1, kmax=min(shape) // 3, spectrum_slope=1.0)
    theta = random_band_limited_field(spec, 0)
    u1, u2, max_u = _velocity(theta.half, grid, with_max_u=True)
    for u, v in zip((u1, u2), riesz_velocity(theta)):
        ref = v.values()
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))
    # sqrt is monotone and correctly rounded: the max of the pointwise magnitude
    assert max_u == float(np.max(np.sqrt(u1**2 + u2**2)))
    assert type(max_u) is float


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
    kmag = np.sqrt(fine.k1**2 + fine.k2**2)
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
    oracle = np.where(_full_band(grid64), oracle, 0.0)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(out.coeffs - oracle)) < 1e-12 * scale


def _irfft2_values(coeffs, grid):
    return np.fft.irfft2(coeffs[:, :grid.n2 // 2 + 1], s=grid.shape, norm="forward")


def _ifft2_values(coeffs, grid):
    return np.fft.ifft2(coeffs, norm="forward").real


def _full_band(grid):
    """Reference: the 2/3-rule mask on the full layout."""
    return (np.abs(grid.k1) <= grid.n1 // 3) & (np.abs(grid.k2) <= grid.n2 // 3)


def _full_riesz_multipliers(grid):
    """Reference: the Riesz multipliers (-i k2/|k|, i k1/|k|) on the full
    layout, built from the wavenumbers of all n1 n2 modes, zero at k = 0 and
    on the Nyquist row and column."""
    kmag = np.sqrt(grid.k1**2 + grid.k2**2)
    kmag[0, 0] = 1.0
    inside = (grid.k1 != -(grid.n1 // 2)) & (grid.k2 != -(grid.n2 // 2))
    m1, m2 = -1j * grid.k2 / kmag, 1j * grid.k1 / kmag
    for m in (m1, m2):
        m *= inside
        m[0, 0] = 0.0
    return m1, m2


def _former_kernel(coeffs, grid, velocity_coeffs=None, to_grid=_irfft2_values):
    """Reference on the full layouts of the half arrays given: theta and u to
    the grid by `to_grid` (the kernel's irfft2 inverses, or the complex ifft2 of
    `SpectralField.values`), then both fluxes through the forward transform,
    filled to the full layout, and i(k1 f1 + k2 f2) under the 2/3 mask."""
    coeffs = full_spectrum(coeffs, grid)
    cv = coeffs if velocity_coeffs is None else full_spectrum(velocity_coeffs, grid)
    m1, m2 = _full_riesz_multipliers(grid)
    theta, u1, u2 = (to_grid(c, grid) for c in (coeffs, m1 * cv, m2 * cv))
    f1 = full_spectrum(half_from_physical(theta * u1, grid), grid)
    f2 = full_spectrum(half_from_physical(theta * u2, grid), grid)
    out = np.where(_full_band(grid), 1j * (grid.k1 * f1 + grid.k2 * f2), 0.0)
    return out, float(np.max(np.sqrt(u1**2 + u2**2)))


def _kernel_inputs(shape, seed):
    grid = GridSpec(*shape)
    spec = FieldEnsembleSpec(grid, seed=seed, count=2, kmax=min(shape) // 3, spectrum_slope=1.0)
    theta, other = (random_band_limited_field(spec, i).half for i in range(2))
    return grid, theta, other


@pytest.mark.parametrize("shape", [(64, 64), (32, 48), (96, 64)])
@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_matches_former_formula(shape, bilinear):
    grid, theta, other = _kernel_inputs(shape, 13)
    cv = other if bilinear else None
    out, max_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv, with_max_u=True)
    out = full_spectrum(out, grid)
    ref, ref_max_u = _former_kernel(theta, grid, cv)
    assert max_u == ref_max_u
    if shape == (64, 64):
        # k / (n1 n2) is exact on power-of-two grids: every bit agrees in the
        # band, and outside it both are zero (of either sign)
        band = _full_band(grid)
        assert out[band].tobytes() == ref[band].tobytes()
        assert np.array_equal(out, ref)
    else:
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(64, 64), (32, 48), (96, 64), (128, 128)])
@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_matches_complex_transform_oracle(shape, bilinear):
    grid, theta, other = _kernel_inputs(shape, 15)
    cv = other if bilinear else None
    out, max_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv, with_max_u=True)
    out = full_spectrum(out, grid)
    ref, ref_max_u = _former_kernel(theta, grid, cv, to_grid=_ifft2_values)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert abs(max_u - ref_max_u) <= 1e-14 * ref_max_u


@pytest.mark.parametrize("shape", [(64, 64), (32, 48)])
@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_reads_only_the_half_spectrum(shape, bilinear):
    """Given the columns k2 = 0 .. n2/2 of a full-layout array, a strided view
    whose buffer holds NaN in the columns k2 < 0, the kernel and the velocity
    give the bits they give on the contiguous half array."""
    grid, theta, other = _kernel_inputs(shape, 16)

    def spoiled(c):
        full = np.full(grid.shape, np.nan, dtype=np.complex128)  # the columns k2 < 0
        full[:, :grid.n2 // 2 + 1] = c
        return full[:, :grid.n2 // 2 + 1]

    cv = other if bilinear else None
    out, max_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv, with_max_u=True)
    out_s, max_u_s = _nonlinear_raw(spoiled(theta), grid, with_max_u=True,
                                    velocity_coeffs=None if cv is None else spoiled(cv))
    assert out_s.tobytes() == out.tobytes() and max_u_s == max_u
    # the half layout is Hermitian: its fill leaves every bit of it in place
    full = full_spectrum(out_s, grid)
    assert hermitian_defect(full) == 0.0
    assert full[:, :grid.n2 // 2 + 1].tobytes() == out_s.tobytes()
    u = _velocity(theta if cv is None else cv, grid, with_max_u=True)
    u_s = _velocity(spoiled(theta if cv is None else cv), grid, with_max_u=True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(u_s[:2], u[:2])) and u_s[2] == u[2]


def _full_layout_kernel(coeffs, grid, velocity_coeffs=None):
    """Reference: the kernel as it was when it returned the full layout, the
    rfft2 half of the fluxes under the dealiased derivatives, then the k2 < 0
    half filled as conjugates and the self-conjugate columns repaired."""
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    d1, d2 = _kernel_multipliers(grid)[2:]
    theta = half_to_physical(coeffs, grid)
    u1, u2, _ = _velocity(coeffs if velocity_coeffs is None else velocity_coeffs, grid)
    half = d1 * np.fft.rfft2(theta * u1)
    half += d2 * np.fft.rfft2(theta * u2)
    c = np.empty(grid.shape, dtype=np.complex128)
    c[:, :h2 + 1] = half
    np.conj(half[0, h2 - 1:0:-1], out=c[0, h2 + 1:])
    np.conj(half[:0:-1, h2 - 1:0:-1], out=c[1:, h2 + 1:])
    np.conj(c[h1 - 1:0:-1, ::h2], out=c[h1 + 1:, ::h2])
    c[::h1, ::h2].imag = 0.0
    return c


@pytest.mark.parametrize("shape", [(64, 64), (32, 48), (96, 64)])
@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_returns_the_half_layout_with_self_conjugate_columns(shape, bilinear):
    """The kernel's result is the (n1, n2/2 + 1) half layout. Its columns
    k2 = 0 and k2 = n2/2 are exactly their own reflection, c(k1) = conj(c(-k1)),
    so the four self-conjugate modes are real, and its full fill equals the
    full-layout kernel's output."""
    grid, theta, other = _kernel_inputs(shape, 17)
    cv = other if bilinear else None
    out, _ = _nonlinear_raw(theta, grid, velocity_coeffs=cv)
    h1, h2 = grid.n1 // 2, grid.n2 // 2
    assert out.shape == (grid.n1, h2 + 1)
    reflected = -np.arange(grid.n1) % grid.n1
    for col in (0, h2):
        assert np.array_equal(out[:, col], np.conj(out[reflected, col]))
    assert np.all(out[::h1, ::h2].imag == 0.0)
    assert np.array_equal(full_spectrum(out, grid), _full_layout_kernel(theta, grid, cv))


@pytest.mark.parametrize("bilinear", [False, True])
def test_kernel_output_does_not_depend_on_forming_max_u(bilinear):
    """max |u| is formed only on request: the kernel's bits are the same either
    way, the velocity's too, and an unrequested max reads None."""
    grid, theta, other = _kernel_inputs((64, 64), 18)
    cv = other if bilinear else None
    out, max_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv)
    out_u, max_u_u = _nonlinear_raw(theta, grid, velocity_coeffs=cv, with_max_u=True)
    assert out.tobytes() == out_u.tobytes()
    assert max_u is None and max_u_u == _velocity(theta if cv is None else cv, grid, True)[2]
    u, u_u = _velocity(theta, grid), _velocity(theta, grid, with_max_u=True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(u[:2], u_u[:2]))
    assert u[2] is None and type(u_u[2]) is float


def test_nonlinear_term_is_the_full_fill_of_the_kernel(grid64):
    theta = field_from_values(grid64, random_real_grid(grid64, 8)).dealiased()
    out, _ = _nonlinear_raw(theta.half, grid64)
    assert nonlinear_term(theta).half.tobytes() == out.tobytes()
    assert nonlinear_term(theta).coeffs.tobytes() == full_spectrum(out, grid64).tobytes()


def test_kernel_makes_three_inverse_and_two_real_transforms(grid64, monkeypatch):
    spec = FieldEnsembleSpec(grid64, seed=14, count=2, kmax=12, spectrum_slope=1.0)
    theta, other = (random_band_limited_field(spec, i).half for i in range(2))
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    _nonlinear_raw(theta, grid64)
    _nonlinear_raw(theta, grid64, velocity_coeffs=other)
    assert calls == {"irfft2": 6, "rfft2": 4}


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
        k_sq = grid64.k1**2 + grid64.k2**2
        ratio = A[k_sq > 0] / k_sq[k_sq > 0] ** a
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= 2.0 ** (1.0 - a) + 1e-12)
