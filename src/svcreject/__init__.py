"""Linear SVC with reject option and provably minimal per-instance explanations."""

from .dataset import (
    DatasetError,
    FeatureSpace,
    LabeledDataset,
    ScalingParams,
    apply_scaling,
    fit_scaling,
    load_csv,
    scale_dataset,
    stratified_split,
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
    DegenerateGridError,
    EvalMetrics,
    RejectModel,
    RiskReport,
    calibrate,
    empirical_risk,
    evaluate,
    predict_with_reject,
    threshold_grid,
)
from .explainer import (
    Explanation,
    ExplanationBatch,
    explain_batch,
    feature_frequency,
    minimal_explanation,
    verify_batch,
    verify_explanation,
)
from .artifacts import ModelBundle, SplitManifest, load_bundle, save_bundle

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "FeatureSpace",
    "LabeledDataset",
    "ScalingParams",
    "apply_scaling",
    "fit_scaling",
    "load_csv",
    "scale_dataset",
    "stratified_split",
    "LinearModel",
    "TrainerConfig",
    "TrainingError",
    "TrainReport",
    "decision_values",
    "train_soft_margin",
    "DegenerateGridError",
    "EvalMetrics",
    "RejectModel",
    "RiskReport",
    "calibrate",
    "empirical_risk",
    "evaluate",
    "predict_with_reject",
    "threshold_grid",
    "Explanation",
    "ExplanationBatch",
    "explain_batch",
    "feature_frequency",
    "minimal_explanation",
    "verify_batch",
    "verify_explanation",
    "ModelBundle",
    "SplitManifest",
    "load_bundle",
    "save_bundle",
    "__version__",
]
