"""Millimeter-wave UE localization from AOA/AOD/TOA path measurements.

Simulation, maximum-likelihood estimation (gradient-assisted particle
filter), and Cramer-Rao bound analysis for planar scenes with direct and
single-bounce paths, with bounce points either estimated jointly or known
from an environment map.
"""
from .bounds import (CrbField, GridSpec, crb_grid, fisher, rmse_crb,
                     rmse_crb_distance_only)
from .errors import (AllTrialsFailed, ConfigError, DegenerateGeometry,
                     EmptyResult, ExperimentError, InsufficientPaths,
                     MmlocError, SingularCovariance, SingularFisher)
from .estimator import (EstimateReport, GapfConfig, ParticleSet,
                        check_sufficiency, default_search_box, estimate,
                        gapf_iterate, grid_init, initial_particles,
                        lm_refine, resample_systematic)
from .geometry import (PathDescriptor, PathKind, PathSet, Point2,
                       ReflectiveSide, Scenario, Wall, WallAxis,
                       enumerate_paths, image_reflect, specular_point)
from .harness import (EXAMPLE_UES, McResult, RemMap, SCENARIO_NAMES,
                      SweepResult, beamwidth_sweep, build_rem_map,
                      cdf_curve, grid_preset, mc_rmse,
                      rmse_from_estimates, scenario_preset, subset_indices,
                      trajectory_preset, trial_seeds, write_cdf_csv,
                      write_field_csv, write_remmap_csv, write_sweep_csv)
from .likelihood import (LikelihoodEngine, jacobian, jacobian_fd,
                         log_likelihood, residual)
from .measurement import (Mode, NoiseProfile, Observation, ParamVector,
                          PROFILE_PRESETS, covariance, forward,
                          noise_profile_preset, noiseless_observation,
                          synthesize, wrap)

__version__ = "0.1.0"
