"""Model files: JSON artifacts bundling weights, feature box, scaling and split.

A model file carries everything needed to score and explain new raw rows:
the weight vector, the feature domains, the min-max scaling, optional label
metadata, the train/test split used at fit time, how training ended, and
(after calibration) the reject band.  Floats serialize through the shortest
round-trip decimal representation, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import FeatureSpace, ScalingParams, box_from_json, box_to_json
from .rejector import RejectModel, RiskReport
from .trainer import LinearModel, TrainReport


@dataclass(frozen=True)
class SplitManifest:
    seed: int
    train_fraction: float
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ModelBundle:
    space: FeatureSpace
    scaling: ScalingParams
    model: LinearModel
    label_column: str | None = None
    positive_label: str | None = None
    split: SplitManifest | None = None
    training: TrainReport | None = None
    t_minus: float | None = None
    t_plus: float | None = None
    w_r: float | None = None
    risk_report: RiskReport | None = None

    @property
    def has_reject_band(self) -> bool:
        return self.t_minus is not None and self.t_plus is not None

    def reject_model(self) -> RejectModel:
        if not self.has_reject_band:
            raise ValueError(
                "model file carries no reject band; calibrate it first or add "
                "t_minus/t_plus to the file"
            )
        return RejectModel(self.model, self.t_minus, self.t_plus,
                           self.w_r if self.w_r is not None else 1.0)

    def with_reject(self, rm: RejectModel, report: RiskReport) -> "ModelBundle":
        return replace(self, t_minus=rm.t_minus, t_plus=rm.t_plus, w_r=rm.w_r,
                       risk_report=report)


def bundle_to_json(bundle: ModelBundle) -> dict:
    doc = {
        "weights": [float(v) for v in bundle.model.weights],
        "bias": float(bundle.model.bias),
        **box_to_json(bundle.space, bundle.scaling),
    }
    if bundle.label_column is not None:
        doc["label_column"] = bundle.label_column
    if bundle.positive_label is not None:
        doc["positive_label"] = bundle.positive_label
    if bundle.split is not None:
        doc["split"] = {
            "seed": bundle.split.seed,
            "train_fraction": bundle.split.train_fraction,
            "train_indices": list(bundle.split.train_indices),
            "test_indices": list(bundle.split.test_indices),
        }
    if bundle.training is not None:
        doc["training"] = asdict(bundle.training)
    if bundle.has_reject_band:
        doc["t_minus"] = bundle.t_minus
        doc["t_plus"] = bundle.t_plus
        doc["w_r"] = bundle.w_r
        if bundle.risk_report is not None:
            doc["risk_report"] = {
                "error_ratio": bundle.risk_report.error_ratio,
                "rejection_ratio": bundle.risk_report.rejection_ratio,
                "risk": bundle.risk_report.risk,
                "grid_index": bundle.risk_report.grid_index,
            }
    return doc


def bundle_from_json(doc: dict) -> ModelBundle:
    space, scaling = box_from_json(doc)
    model = LinearModel(np.array(doc["weights"], dtype=float), float(doc["bias"]))
    if len(model) != len(space):
        raise ValueError("model file is inconsistent: weight/feature count mismatch")
    split = None
    if "split" in doc:
        s = doc["split"]
        split = SplitManifest(
            seed=int(s["seed"]),
            train_fraction=float(s["train_fraction"]),
            train_indices=tuple(int(i) for i in s["train_indices"]),
            test_indices=tuple(int(i) for i in s["test_indices"]),
        )
    training = None
    if "training" in doc:
        t = doc["training"]
        training = TrainReport(
            primal_objective=float(t["primal_objective"]),
            passes_used=int(t["passes_used"]),
            converged=bool(t["converged"]),
            dual_gap=float(t["dual_gap"]),
        )
    report = None
    if "risk_report" in doc:
        r = doc["risk_report"]
        report = RiskReport(
            error_ratio=float(r["error_ratio"]),
            rejection_ratio=float(r["rejection_ratio"]),
            risk=float(r["risk"]),
            grid_index=r.get("grid_index"),
        )
    return ModelBundle(
        space=space,
        scaling=scaling,
        model=model,
        label_column=doc.get("label_column"),
        positive_label=doc.get("positive_label"),
        split=split,
        training=training,
        t_minus=doc.get("t_minus"),
        t_plus=doc.get("t_plus"),
        w_r=doc.get("w_r"),
        risk_report=report,
    )


def save_bundle(path, bundle: ModelBundle) -> None:
    Path(path).write_text(json.dumps(bundle_to_json(bundle), indent=2) + "\n")


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    try:
        return bundle_from_json(json.loads(path.read_text()))
    except KeyError as exc:
        raise ValueError(f"model file {path} is missing field {exc}") from None
