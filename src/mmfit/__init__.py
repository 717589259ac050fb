"""Multi-instance robust geometric model fitting."""

__version__ = "0.1.0"

from .errors import (
    DegenerateHomography,
    DegenerateSample,
    DimensionMismatch,
    ExhaustedData,
    InvalidConfig,
    LabelMismatch,
    MmfitError,
    NoValidPose,
    ParseError,
    RankDeficient,
)
from .models import (
    ModelInstance,
    ModelType,
    PointSet,
    fit_minimal,
    fit_nonminimal,
    make_instance,
    residuals,
)
from .losses import LossFunction, LossKind
from .engine import EngineConfig, FitReport, OUTLIER, fit, misclassification_error

__all__ = [
    "DegenerateHomography",
    "DegenerateSample",
    "DimensionMismatch",
    "EngineConfig",
    "ExhaustedData",
    "FitReport",
    "InvalidConfig",
    "LabelMismatch",
    "LossFunction",
    "LossKind",
    "MmfitError",
    "ModelInstance",
    "ModelType",
    "NoValidPose",
    "OUTLIER",
    "ParseError",
    "PointSet",
    "RankDeficient",
    "fit",
    "fit_minimal",
    "fit_nonminimal",
    "make_instance",
    "misclassification_error",
    "residuals",
]
