"""One-shot linear interference alignment for two-cell reverse-TDD MIMO networks.

Feasibility deciders for a per-user stream allocation, construction of the
aligning precoders/postcoders, and Monte-Carlo sum-rate evaluation.
"""

from ._kernels import BACKEND
from .beamform import (BeamformerSet, IterationOptions, LeakageTrace,
                       PowerProfile, ResidualReport, construct_beamformers,
                       init_postcoders, iterate_alignment, normalize,
                       residual_report, zero_force_step2)
from .errors import (BudgetError, ConfigError, IaRtddError, MatchingError,
                     NumericalError, SingularSystemError, SubsetLimitError)
from .evaluate import (RateBreakdown, SweepResult, baseline_point_to_point,
                       baseline_single_cell, monte_carlo_sweep,
                       power_profile_for_snr, snr_to_power, sum_rate)
from .feasibility import (AlignmentMatrixLayout, ConditionResult,
                          FeasibilityReport, HallGraph, HallResult,
                          SearchResult, build_alignment_matrix,
                          check_necessary, check_sufficient,
                          check_symmetric_sufficient,
                          construct_special_realization, dual_allocation,
                          dual_config, hall_condition, numeric_rank,
                          search_max_sum_dof, search_optimal, single_cell_dof,
                          two_user_ic_dof)
from .model import (ChannelSet, CrossBlockPartition, DofAllocation,
                    NetworkConfig, RngStream, partition_cross,
                    sample_channels, validate_config)

__version__ = "0.1.0"
