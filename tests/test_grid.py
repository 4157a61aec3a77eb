"""Field representation: Hermitian validation, round trips, arithmetic."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aqgsim.grid import (HERMITIAN_ATOL, GridSpec, SpectralField, _self_conjugate_defect,
                         field_from_modes, field_from_values, full_spectrum, half_from_physical,
                         half_to_physical, hermitian_defect, sine_field, zero_field)
from aqgsim.lemmas import _product_coeffs, oversampled_product
from aqgsim.operators import DissipParams, _nonlinear_raw, nonlinear_term
from aqgsim.solver import evolve

from conftest import random_real_grid


def test_grid_rejects_odd_or_small():
    with pytest.raises(ValueError):
        GridSpec(7, 32)
    with pytest.raises(ValueError):
        GridSpec(32, 6)
    GridSpec(8, 8)


def test_wavenumber_range(grid32):
    assert grid32.k1.min() == -15.0 or grid32.k1.min() == -16.0
    assert int(grid32.k1.max()) == 15
    # FFT ordering labels Nyquist as -n/2
    assert int(grid32.k1.min()) == -16


def test_transform_round_trip(grid64):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(grid64.shape)
    f = field_from_values(grid64, v)
    assert np.max(np.abs(f.values() - v)) < 1e-13


@pytest.mark.parametrize("shape", [(64, 64), (32, 48), (96, 64)])
def test_half_transforms_are_the_columns_of_the_full_ones(shape):
    """`half_from_physical` keeps the bits of the scaled rfft2, whose Hermitian
    fill is a field's full layout `coeffs`; `half_to_physical` inverts it and
    agrees with the complex transform of `values()`."""
    grid = GridSpec(*shape)
    v = random_real_grid(grid, 6)
    f = field_from_values(grid, v)
    full = f.coeffs
    assert full.tobytes() == full_spectrum(np.fft.rfft2(v) / (grid.n1 * grid.n2), grid).tobytes()
    half = half_from_physical(v, grid)
    assert half.tobytes() == full[:, :grid.n2 // 2 + 1].tobytes() == f.half.tobytes()
    assert np.max(np.abs(half_to_physical(half, grid) - v)) < 1e-13
    assert np.max(np.abs(half_to_physical(half, grid) - f.values())) < 1e-14


@st.composite
def grids_and_values(draw):
    n1, n2 = (draw(st.integers(4, 32)) * 2 for _ in range(2))
    values = draw(arrays(np.float64, (n1, n2),
                         elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    return GridSpec(n1, n2), values


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(grids_and_values())
def test_transform_round_trip_property(grid_values):
    grid, v = grid_values
    f = field_from_values(grid, v)
    assert hermitian_defect(f.coeffs) == 0.0
    assert np.max(np.abs(f.values() - v)) <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


@pytest.mark.parametrize("shape", [(64, 64), (32, 48)])
def test_hermitian_by_construction(shape):
    """Every transform output and the march state are exactly Hermitian: the
    raw half arrays too, before a `SpectralField` checks them."""
    grid = GridSpec(*shape)
    f = field_from_values(grid, random_real_grid(grid, 3)).dealiased()
    g = field_from_values(grid, random_real_grid(grid, 4)).dealiased()
    for raw in (half_from_physical(random_real_grid(grid, 5), grid),
                _nonlinear_raw(f.half, grid)[0], _product_coeffs(f.half, g.half, grid)):
        assert _self_conjugate_defect(raw) == 0.0
    assert hermitian_defect(f.coeffs) == 0.0
    assert hermitian_defect(nonlinear_term(f).coeffs) == 0.0
    assert hermitian_defect(oversampled_product(f, g).coeffs) == 0.0
    res = evolve(f * 0.1, 0.01, DissipParams(0.75, 0.6, s=1.2), dt_fixed=1e-3)
    assert hermitian_defect(res.final.coeffs) == 0.0


def test_hermitian_rejected(grid32):
    c = np.zeros(grid32.half_shape, dtype=complex)
    c[1, 0] = 1.0  # missing conjugate at (-1, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralField(grid32, c)


def test_self_conjugate_columns_are_checked_then_made_exact():
    """The columns k2 = 0 and n2/2 are the only place a half array can break
    the symmetry: a non-real amplitude at any of the four self-conjugate modes,
    or a pair c(-k1, k2) != conj(c(k1, k2)) in either column, is rejected; a
    defect within HERMITIAN_ATOL is projected away exactly."""
    grid = GridSpec(16, 16)
    for k in ((0, 0), (8, 0), (0, 8), (8, 8)):
        with pytest.raises(ValueError, match="not Hermitian-symmetric"):
            field_from_modes(grid, {k: 1j})
        with pytest.raises(ValueError, match="not Hermitian-symmetric"):
            field_from_modes(grid, {k: 2.0 + 1e-3j})
        assert field_from_modes(grid, {k: 2.0}).half[k] == 2.0
    for column in (0, 8):
        c = np.zeros(grid.half_shape, dtype=complex)
        c[1, column], c[-1, column] = 1.0 + 2.0j, 1.0 + 2.0j  # c(-1, k2) != conj(c(1, k2))
        with pytest.raises(ValueError, match="not Hermitian-symmetric"):
            SpectralField(grid, c)
        c[-1, column] = 1.0 - 2.0j + 0.1 * HERMITIAN_ATOL
        c[0, column] = 3.0 + 0.1j * HERMITIAN_ATOL
        f = SpectralField(grid, c)
        assert f.half[-1, column] == 1.0 - 2.0j and f.half[0, column] == 3.0
        assert hermitian_defect(f.coeffs) == 0.0
    with pytest.raises(ValueError, match="shape"):
        SpectralField(grid, np.zeros(grid.shape, dtype=complex))  # the full layout


def reflected_copy_defect(c):
    """max_k |c(k) - conj(c(-k))|, reading c(-k) off a copy with both indices negated."""
    n1, n2 = c.shape
    minus_k = c[-np.arange(n1) % n1][:, -np.arange(n2) % n2]
    return float(np.max(np.abs(c - np.conj(minus_k))))


@pytest.mark.parametrize("shape", [(8, 8), (16, 24), (32, 48), (48, 16), (64, 64), (128, 128)])
def test_hermitian_defect_matches_reflected_copy(shape):
    """Bitwise equal to the reflected-copy formula on random arrays, on Hermitian
    arrays perturbed at any mode, and at each of the four self-conjugate modes."""
    grid = GridSpec(*shape)
    rng = np.random.default_rng(shape)
    arrays_ = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
    base = field_from_values(grid, random_real_grid(grid, 5)).coeffs
    for i, j in [*zip(rng.integers(0, shape[0], 12), rng.integers(0, shape[1], 12)),
                 *((i, j) for i in (0, shape[0] // 2) for j in (0, shape[1] // 2))]:
        for delta in (1e-9, 1e-13j, 0.3 - 0.2j):
            c = base.copy()
            c[i, j] += delta
            arrays_.append(c)
    for c in arrays_:
        assert hermitian_defect(c) == reflected_copy_defect(c)
    assert hermitian_defect(base) == reflected_copy_defect(base) == 0.0


def test_immutability(grid32):
    f = sine_field(grid32, (1, 0))
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError):
        f.half[0, 0] = 1.0


def test_sine_field_matches_formula(grid32):
    x1, x2 = grid32.physical_points()
    f = sine_field(grid32, (2, 1), amplitude=0.7, phase=0.3)
    assert np.allclose(f.values(), 0.7 * np.sin(2 * x1 + x2 + 0.3), atol=1e-13)


def test_field_from_modes_fills_conjugate(grid32):
    f = field_from_modes(grid32, {(3, 2): 1.0 + 2.0j})
    assert f.coeffs[-3 % 32, -2 % 32] == 1.0 - 2.0j
    assert hermitian_defect(f.coeffs) == 0.0


@pytest.mark.parametrize("modes, named", [
    ({(1, 0): 1.0, (-1, 0): 2.0}, "(1, 0) and (-1, 0)"),
    ({(8, 3): 1.0j, (8, -3): 2.0j}, "(8, 3) and (8, -3)"),  # (8, -3) aliases -(8, 3)
])
def test_field_from_modes_rejects_a_conjugate_pair(modes, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        field_from_modes(GridSpec(16, 16), modes)


def test_mode_outside_grid_rejected(grid32):
    with pytest.raises(ValueError, match="outside"):
        field_from_modes(grid32, {(17, 0): 1.0})


def test_arithmetic_requires_equal_grids(grid32):
    other = GridSpec(64, 64)
    with pytest.raises(ValueError, match="incompatible"):
        _ = sine_field(grid32, (1, 0)) + sine_field(other, (1, 0))


def test_arithmetic_and_mean(grid32):
    f = sine_field(grid32, (1, 0)) + 2.0 * sine_field(grid32, (0, 1))
    x1, x2 = grid32.physical_points()
    assert np.allclose(f.values(), np.sin(x1) + 2 * np.sin(x2), atol=1e-13)
    assert f.is_mean_zero
    g = field_from_modes(grid32, {(0, 0): 1.0})
    assert not g.is_mean_zero
    assert g.mean == 1.0


def test_dealias_zeroes_outside_band(grid32):
    f = field_from_modes(grid32, {(12, 0): 1.0, (3, 3): 0.5})
    d = f.dealiased()
    assert d.coeffs[12, 0] == 0.0
    assert d.coeffs[3, 3] == 0.5


def test_zero_field(grid32):
    f = zero_field(grid32)
    assert np.all(f.coeffs == 0.0)
    assert f.is_mean_zero
