"""Unrolled compound-Gaussian estimation networks with certified
sensitivity constants and generalization-error bounds."""

from .backend import active_backend
from .bounds import (
    BoundReport,
    LossSpec,
    ScalingFit,
    SweepSpec,
    dudley_closed_form,
    geb_bound,
    sample_complexity,
    scaling_fit,
    sweep_bound,
    sweep_fit,
    ymax_estimate,
)
from .datagen import CgDataSpec, CgDataset, GapReport, empirical_gap, generate_cg_dataset, mae_loss
from .lipschitz import (
    AggregateConstants,
    datafit_grad_constants,
    fc_lipschitz,
    network_constants,
    network_constants_exact,
    tikhonov_constants,
)
from .model import (
    MeasurementModel,
    NumericalFailure,
    SignalBounds,
    SpdMatrix,
    ball_project,
    mrelu,
    spectral_norm,
    tikhonov_solve,
)
from .networks import (
    ForwardTrace,
    NetworkConfig,
    ParameterSet,
    forward,
    parameter_distance,
    sample_covariance,
    sample_parameters,
    subnet_forward,
    validate_parameters,
)
from .verify import TARGETS, TrialDims, VerificationReport, verify_lipschitz, verify_targets

__version__ = "0.1.0"
