"""Model files: JSON artifacts bundling weights, feature box, scaling and split.

A model file carries everything needed to score and explain new raw rows:
the weight vector, the feature domains, the min-max scaling, optional label
metadata, the train/test split used at fit time, how training ended, and
(after calibration) the reject band.  Floats serialize through the shortest
round-trip decimal representation, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace
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

    def __post_init__(self):
        # a row listed twice would be explained twice, or calibrated on and tested on
        seen: set[int] = set()
        for name in ("train_indices", "test_indices"):
            indices = getattr(self, name)
            fresh = set(indices)
            if len(fresh) < len(indices) or not seen.isdisjoint(fresh):
                counts = Counter(indices)
                index = next(i for i in indices if i in seen or counts[i] > 1)
                raise ValueError(f"split.{name} lists index {index}, which the split already lists")
            seen |= fresh


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
    features, scaling = doc["features"], doc["scaling"]
    space = FeatureSpace(tuple(f["name"] for f in features),
                         _numbers([f["lower"] for f in features], "features.lower"),
                         _numbers([f["upper"] for f in features], "features.upper"))
    params = ScalingParams(_numbers([s["min"] for s in scaling], "scaling.min"),
                           _numbers([s["max"] for s in scaling], "scaling.max"))
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


# per scalar annotation, the JSON values a model-file field takes and how an
# error names them; int(), float() and bool() would truncate 5.9, parse
# "0.5" and take "false" for true
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"), "bool": ((bool,), "true or false")}


def _typed(value, kind: str, name: str):
    """``value`` read as the model-file field ``name`` annotated ``kind``: a
    scalar above, ``T | None`` (null reads as None) or ``tuple[T, ...]``."""
    if kind.endswith(" | None"):
        return None if value is None else _typed(value, kind.removesuffix(" | None"), name)
    if kind.startswith("tuple["):   # a valid JSON list, of exact types, passes one check of all its entries
        if not isinstance(value, (list, tuple)):   # a string or an object would iterate
            raise ValueError(f"{name} must be a list, not {value!r}")
        item = kind[len("tuple["):-len(", ...]")]
        if set(map(type, value)) <= set(_SCALARS[item][0]):
            return tuple(map(float, value)) if item == "float" else tuple(value)
        return tuple(_typed(v, item, f"{name} entry") for v in value)   # names the first bad entry
    types, wanted = _SCALARS[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise ValueError(f"{name} must be {wanted}, not {value!r}")
    return float(value) if kind == "float" else value


def _numbers(values, name: str) -> np.ndarray:
    return np.array(_typed(values, "tuple[float, ...]", name), dtype=float)


def _record(cls, doc: dict, name: str):
    """The dataclass ``cls`` read from the model file's record ``doc``
    (``name`` in the file), each field typed by its annotation; a field
    with a default may be left out."""
    return cls(**{f.name: _typed(doc[f.name], f.type, f"{name}.{f.name}")
                  for f in fields(cls) if f.name in doc or f.default is MISSING})


def bundle_from_json(doc: dict) -> ModelBundle:
    space, scaling = _box_from_json(doc)
    if not len(space):
        raise ValueError("the features list is empty")
    model = LinearModel(_numbers(doc["weights"], "weights"), _typed(doc["bias"], "float", "bias"))
    if len(model) != len(space):
        raise ValueError("model file is inconsistent: weight/feature count mismatch")
    if len(scaling) != len(space):
        raise ValueError("model file is inconsistent: scaling/feature count mismatch")
    records = {key: _record(cls, doc[key], key) if key in doc else None
               for key, cls in (("split", SplitManifest), ("training", TrainReport),
                                ("risk_report", RiskReport))}
    return ModelBundle(
        space=space,
        scaling=scaling,
        model=model,
        label_column=doc.get("label_column"),
        positive_label=doc.get("positive_label"),
        **records,
        **{key: _typed(doc.get(key), "float | None", key) for key in ("t_minus", "t_plus", "w_r")},
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
    except (ValueError, OverflowError) as exc:   # a JSON integer beyond float range
        raise ValueError(f"model file {path}: {exc}") from None
