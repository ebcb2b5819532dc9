"""Linear SVC with reject option and provably minimal per-instance explanations."""

from .dataset import (
    DatasetError,
    FeatureSpace,
    LabeledDataset,
    apply_scaling,
    load_csv,
    scale_dataset,
)
from .trainer import (
    LinearModel,
    TrainerConfig,
    TrainingError,
    TrainReport,
    decision_values,
    train_soft_margin,
)
from .rejector import (
    EvalMetrics,
    RejectModel,
    RiskReport,
    calibrate,
    evaluate,
)
from .explainer import (
    ExplanationBatch,
    explain_batch,
    verify_batch,
)
from .artifacts import ModelBundle, SplitManifest, load_bundle, save_bundle

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "FeatureSpace",
    "LabeledDataset",
    "apply_scaling",
    "load_csv",
    "scale_dataset",
    "LinearModel",
    "TrainerConfig",
    "TrainingError",
    "TrainReport",
    "decision_values",
    "train_soft_margin",
    "EvalMetrics",
    "RejectModel",
    "RiskReport",
    "calibrate",
    "evaluate",
    "ExplanationBatch",
    "explain_batch",
    "verify_batch",
    "ModelBundle",
    "SplitManifest",
    "load_bundle",
    "save_bundle",
    "__version__",
]
