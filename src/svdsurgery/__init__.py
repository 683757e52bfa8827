"""Spectral surgery and fine-tuning diagnostics for transformer checkpoints.

The toolkit decomposes projection weights with the SVD, measures
singular-value drift and singular-vector rotation between checkpoints,
splices spectra across checkpoints to produce edited models, scores
advantage distributions for PPO trainability, and evaluates a
rotation-preservation penalty with its analytic gradient.
"""

__version__ = "0.1.0"

from .advantage import (
    AdvantageSummary,
    EstimatorConfig,
    GaeParams,
    ThresholdConfig,
    TrainabilityVerdict,
    TrajectoryTrace,
    gae,
    read_rollout_log,
    summarize,
    verdict,
)
from .errors import NumericalError, ToolkitError, ValidationError, WriteError
from .penalty import PenaltyRef, fit_reference, penalty_grad, penalty_value
from .spectral import (
    AngleSpectrum,
    DeltaSpectrum,
    SvdTriple,
    delta_sigma,
    matrix_angles,
    principal_angles,
    procrustes,
    svd,
)
from .surgery import (
    LayerSelector,
    RankSelector,
    SurgeryPlan,
    SurgeryReport,
    mixed_matrix,
    run_surgery,
)
from .tensorstore import (
    Checkpoint,
    MatrixKey,
    NamingProfile,
    load_matrix,
    load_profile,
    open_checkpoint,
    resolve_keys,
    write_checkpoint,
)

__all__ = [
    "AdvantageSummary",
    "AngleSpectrum",
    "Checkpoint",
    "DeltaSpectrum",
    "EstimatorConfig",
    "GaeParams",
    "LayerSelector",
    "MatrixKey",
    "NamingProfile",
    "NumericalError",
    "PenaltyRef",
    "RankSelector",
    "SurgeryPlan",
    "SurgeryReport",
    "SvdTriple",
    "ThresholdConfig",
    "ToolkitError",
    "TrainabilityVerdict",
    "TrajectoryTrace",
    "ValidationError",
    "WriteError",
    "delta_sigma",
    "fit_reference",
    "gae",
    "load_matrix",
    "load_profile",
    "matrix_angles",
    "mixed_matrix",
    "open_checkpoint",
    "penalty_grad",
    "penalty_value",
    "principal_angles",
    "procrustes",
    "read_rollout_log",
    "resolve_keys",
    "run_surgery",
    "summarize",
    "svd",
    "verdict",
    "write_checkpoint",
]
