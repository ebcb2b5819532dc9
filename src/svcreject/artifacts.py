"""Model files: JSON artifacts bundling weights, feature box, scaling and split.

A model file carries everything needed to score and explain new raw rows:
the weight vector, the feature domains, the min-max scaling, optional label
metadata, the train/test split used at fit time, how training ended, and
(after calibration) the reject band.  Floats serialize through the shortest
round-trip decimal representation, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import FeatureSpace, ScalingParams
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


def _box_to_json(space: FeatureSpace, params: ScalingParams) -> dict:
    """The ``features`` (name and domain) and ``scaling`` lists of a model file."""
    return {
        "features": [
            {"name": name, "lower": float(lo), "upper": float(hi)}
            for name, lo, hi in zip(space.names, space.lower, space.upper)
        ],
        "scaling": [
            {"min": float(lo), "max": float(hi)}
            for lo, hi in zip(params.mins, params.maxs)
        ],
    }


def _box_from_json(doc: dict) -> tuple[FeatureSpace, ScalingParams]:
    """The feature space and scaling read back from ``_box_to_json``'s lists."""
    features = doc["features"]
    space = FeatureSpace(
        tuple(f["name"] for f in features),
        np.array([f["lower"] for f in features], dtype=float),
        np.array([f["upper"] for f in features], dtype=float),
    )
    params = ScalingParams(
        np.array([s["min"] for s in doc["scaling"]], dtype=float),
        np.array([s["max"] for s in doc["scaling"]], dtype=float),
    )
    return space, params


def bundle_to_json(bundle: ModelBundle) -> dict:
    doc = {
        "weights": [float(v) for v in bundle.model.weights],
        "bias": float(bundle.model.bias),
        **_box_to_json(bundle.space, bundle.scaling),
    }
    if bundle.label_column is not None:
        doc["label_column"] = bundle.label_column
    if bundle.positive_label is not None:
        doc["positive_label"] = bundle.positive_label
    if bundle.split is not None:
        doc["split"] = dict(vars(bundle.split))
    if bundle.training is not None:
        doc["training"] = dict(vars(bundle.training))
    if bundle.has_reject_band:
        doc["t_minus"] = bundle.t_minus
        doc["t_plus"] = bundle.t_plus
        doc["w_r"] = bundle.w_r
        if bundle.risk_report is not None:
            doc["risk_report"] = dict(vars(bundle.risk_report))
    return doc


def _optional(doc: dict, key: str, convert=float):
    """A number the file may leave out; null or absent reads as None."""
    value = doc.get(key)
    return None if value is None else convert(value)


def _integer(value, name: str) -> int:
    """A JSON integer; ``int()`` would truncate 5.9, parse "11000" and take
    true for 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def bundle_from_json(doc: dict) -> ModelBundle:
    space, scaling = _box_from_json(doc)
    if not len(space):
        raise ValueError("the features list is empty")
    model = LinearModel(np.array(doc["weights"], dtype=float), float(doc["bias"]))
    if len(model) != len(space):
        raise ValueError("model file is inconsistent: weight/feature count mismatch")
    split = None
    if "split" in doc:
        s = doc["split"]
        split = SplitManifest(
            seed=_integer(s["seed"], "split.seed"),
            train_fraction=float(s["train_fraction"]),
            train_indices=tuple(_integer(i, "split.train_indices entry")
                                for i in s["train_indices"]),
            test_indices=tuple(_integer(i, "split.test_indices entry")
                               for i in s["test_indices"]),
        )
    training = None
    if "training" in doc:
        t = doc["training"]
        if not isinstance(t["converged"], bool):   # bool("false") is True
            raise ValueError(f"training.converged must be true or false, not {t['converged']!r}")
        training = TrainReport(
            primal_objective=float(t["primal_objective"]),
            passes_used=_integer(t["passes_used"], "training.passes_used"),
            converged=t["converged"],
            dual_gap=float(t["dual_gap"]),
        )
    report = None
    if "risk_report" in doc:
        r = doc["risk_report"]
        report = RiskReport(
            error_ratio=float(r["error_ratio"]),
            rejection_ratio=float(r["rejection_ratio"]),
            risk=float(r["risk"]),
            grid_index=_optional(r, "grid_index",
                                 lambda v: _integer(v, "risk_report.grid_index")),
        )
    return ModelBundle(
        space=space,
        scaling=scaling,
        model=model,
        label_column=doc.get("label_column"),
        positive_label=doc.get("positive_label"),
        split=split,
        training=training,
        t_minus=_optional(doc, "t_minus"),
        t_plus=_optional(doc, "t_plus"),
        w_r=_optional(doc, "w_r"),
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
    except TypeError as exc:
        raise ValueError(f"model file {path} has a field of the wrong type: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
