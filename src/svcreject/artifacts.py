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
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path

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


def bundle_to_json(bundle: ModelBundle) -> dict:
    """The model file's document: the four head keys, then every later field
    that is not None, in field order, a record as an object."""
    doc = {
        "weights": [float(v) for v in bundle.model.weights],
        "bias": float(bundle.model.bias),
        "features": [{"name": name, "lower": float(lo), "upper": float(hi)}
                     for name, lo, hi in zip(bundle.space.names, bundle.space.lower,
                                             bundle.space.upper)],
        "scaling": [{"min": float(lo), "max": float(hi)}
                    for lo, hi in zip(bundle.scaling.mins, bundle.scaling.maxs)],
    }
    for f in fields(ModelBundle)[3:]:
        value = getattr(bundle, f.name)
        if value is not None:
            doc[f.name] = dict(vars(value)) if is_dataclass(value) else value
    return doc


# per one-type annotation, the JSON values a model-file field takes and how
# an error names them; int(), float(), bool() and str() would truncate 5.9,
# parse "0.5", take "false" for true and read 5 as "5"
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
            "bool": ((bool,), "true or false"), "str": ((str,), "a string"),
            "dict": ((dict,), "an object")}
_RECORDS = {cls.__name__: cls for cls in (SplitManifest, TrainReport, RiskReport)}


def _typed(value, kind: str, name: str):
    """``value`` read as the model-file field ``name`` annotated ``kind``: a
    one-type kind above, a record (an object whose fields are read by their own
    annotations; one with a default may be left out), ``T | None`` (null
    reads as None) or ``tuple[T, ...]``."""
    if kind.endswith(" | None"):
        return None if value is None else _typed(value, kind.removesuffix(" | None"), name)
    if kind in _RECORDS:
        value = _typed(value, "dict", name)
        return _RECORDS[kind](**{f.name: _typed(value[f.name], f.type, f"{name}.{f.name}")
                                 for f in fields(_RECORDS[kind])
                                 if f.name in value or f.default is MISSING})
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


def _columns(doc: dict, name: str, *keys: str) -> list[tuple]:
    """The list of objects ``doc[name]`` read as one typed column per key:
    a string for ``name``, a number for every other key."""
    entries = _typed(doc[name], "tuple[dict, ...]", name)
    return [_typed([entry[key] for entry in entries],
                   "tuple[str, ...]" if key == "name" else "tuple[float, ...]", f"{name}.{key}")
            for key in keys]


def bundle_from_json(doc) -> ModelBundle:
    doc = _typed(doc, "dict", "the top level")
    space = FeatureSpace(*_columns(doc, "features", "name", "lower", "upper"))
    scaling = ScalingParams(*_columns(doc, "scaling", "min", "max"))
    if not len(space):
        raise ValueError("the features list is empty")
    model = LinearModel(_typed(doc["weights"], "tuple[float, ...]", "weights"),
                        _typed(doc["bias"], "float", "bias"))
    if len(model) != len(space):
        raise ValueError("model file is inconsistent: weight/feature count mismatch")
    if len(scaling) != len(space):
        raise ValueError("model file is inconsistent: scaling/feature count mismatch")
    return ModelBundle(space, scaling, model,
                       **{f.name: _typed(doc.get(f.name), f.type, f.name)
                          for f in fields(ModelBundle)[3:]})


def save_bundle(path, bundle: ModelBundle) -> None:
    Path(path).write_text(json.dumps(bundle_to_json(bundle), indent=2) + "\n")


def load_bundle(path) -> ModelBundle:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    try:
        return bundle_from_json(json.loads(path.read_text()))
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing field {exc}") from None
    except (ValueError, OverflowError) as exc:   # a JSON integer beyond float range
        raise ValueError(f"model file {path}: {exc}") from None
