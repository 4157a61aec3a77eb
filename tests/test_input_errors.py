"""Each input check of the public API raises its ValueError with its message."""

import numpy as np
import pytest

from aqgsim.diagnostics import analyticity_radius_fit
from aqgsim.grid import GridSpec, SpectralField, field_from_values, sine_field
from aqgsim.lemmas import oversampled_product, scalar_inequality_suite
from aqgsim.norms import directional_seminorm, gevrey_weighted_norm
from aqgsim.operators import DissipParams
from aqgsim.solver import (PicardConfig, Trajectory, calibrate_constants, constant_trajectory,
                           duhamel_bilinear, picard_solve, solve_time_condition, time_grid)

G16, G32 = GridSpec(16, 16), GridSpec(32, 32)
P = DissipParams(0.75, 0.75, s=1.0)
F16, F32 = sine_field(G16, (1, 0)), sine_field(G32, (1, 0))


def _with_mean():
    half = F16.half.copy()
    half[0, 0] = 1.0
    return SpectralField(G16, half)


def _stack(n):
    return np.zeros((n, *G16.half_shape), dtype=np.complex128)


CASES = {
    "field_non_finite": (lambda: SpectralField(G16, np.full(G16.half_shape, np.nan + 0j)),
                         "non-finite coefficients"),
    "field_shape": (lambda: SpectralField(G16, np.zeros((16, 8), dtype=complex)),
                    "does not match grid"),
    "values_shape": (lambda: field_from_values(G16, np.zeros((8, 16))), "does not match grid"),
    "trajectory_stack": (lambda: Trajectory(G16, np.array([0.0, 0.1]), _stack(3)),
                         "does not match times/grid"),
    "trajectory_one_node": (lambda: Trajectory(G16, np.array([0.0]), _stack(1)),
                            "at least two nodes"),
    "time_grid_horizon": (lambda: time_grid(0.0, 5), "horizon must be positive"),
    "time_grid_one_node": (lambda: time_grid(1.0, 1), "at least two time nodes"),
    "duhamel_time_grids": (lambda: duhamel_bilinear(constant_trajectory(F16, time_grid(0.5, 5)),
                                                    constant_trajectory(F16, time_grid(1.0, 5)),
                                                    P),
                           "mismatched time grids"),
    "picard_one_node": (lambda: PicardConfig(T=1.0, n_nodes=1), "n_nodes must be >= 2"),
    "picard_mean": (lambda: picard_solve(_with_mean(), PicardConfig(T=0.1, n_nodes=3), P),
                    "mean-zero initial data"),
    "calibration_no_samples": (lambda: calibrate_constants(P, n_samples=0),
                               "n_samples must be >= 1"),
    "time_condition_no_exponents": (lambda: solve_time_condition([], 1.0),
                                    "at least one exponent"),
    "gevrey_negative_time": (lambda: gevrey_weighted_norm(F16, -0.1, 1.0, P),
                             "weight time must be nonnegative"),
    "directional_axis_3": (lambda: directional_seminorm(F16, 3, 0.5, 0.0),
                           "axis must be 1 or 2"),
    "product_across_grids": (lambda: oversampled_product(F16, F32), "must share a grid"),
    "scan_grid_density_5": (lambda: scalar_inequality_suite(P, grid_density=5),
                            "grid_density too small"),
    "rate_fit_across_grids": (lambda: analyticity_radius_fit(F16, F32, P), "must share a grid"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_value_error(case):
    build, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        build()
