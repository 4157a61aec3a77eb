"""Pseudospectral simulator and numerical verification suite for the 2D
anisotropic quasi-geostrophic equation on the periodic square."""

from .grid import GridSpec, SpectralField, field_from_modes, field_from_values, sine_field, zero_field
from .operators import (DissipParams, RegimeWarning, apply_semigroup, dissipation_symbol,
                        gevrey_symbol, nonlinear_term, riesz_velocity)
from .norms import directional_seminorm, gevrey_weighted_norm, lp_norm, sobolev_norm
from .solver import (ConstantsTable, DiagnosticsTrace, EvolveResult, PicardConfig,
                     PicardReport, Trajectory, calibrate_constants, constant_trajectory,
                     duhamel_bilinear, evolve, existence_time, glue_continue,
                     picard_solve, semigroup_trajectory, solve_time_condition,
                     time_grid, weighted_picard_solve)
from .diagnostics import (GevreyReport, RateFit, Region, analyticity_radius_fit,
                          build_gevrey_report, region_classify, weighted_norm_trace)
from .lemmas import (FieldEnsembleSpec, InequalityReport, functional_inequality_suite,
                     random_band_limited_field, scalar_inequality_suite)
from .checkpoint import (Checkpoint, CheckpointError, CheckpointFormatError,
                         CheckpointMismatchError, CheckpointReadError, read_checkpoint,
                         write_checkpoint)

__version__ = "0.1.0"
