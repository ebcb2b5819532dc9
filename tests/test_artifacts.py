import dataclasses
import json

import numpy as np
import pytest

from svcreject.artifacts import (
    ModelBundle,
    SplitManifest,
    bundle_from_json,
    bundle_to_json,
    load_bundle,
    save_bundle,
)
from svcreject.dataset import FeatureSpace, ScalingParams
from svcreject.rejector import RejectModel, RiskReport
from svcreject.trainer import LinearModel, TrainReport


def awkward_bundle():
    """Floats with no short decimal form, to stress round-trip exactness."""
    rng = np.random.default_rng(123)
    n = 5
    return ModelBundle(
        space=FeatureSpace.unit([f"f{i}" for i in range(n)]),
        scaling=ScalingParams(rng.normal(0, 3, n), rng.normal(10, 3, n)),
        model=LinearModel(rng.normal(0, 2, n) / 3.0, float(np.pi / 7)),
        label_column="label",
        positive_label="yes",
        split=SplitManifest(seed=3, train_fraction=0.7,
                            train_indices=(0, 2, 4), test_indices=(1, 3)),
    )


class TestBundleRoundTrip:
    def test_plain_model_round_trips_bit_exact(self, tmp_path):
        bundle = awkward_bundle()
        path = tmp_path / "model.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert np.array_equal(loaded.model.weights, bundle.model.weights)
        assert loaded.model.bias == bundle.model.bias
        assert np.array_equal(loaded.scaling.mins, bundle.scaling.mins)
        assert np.array_equal(loaded.scaling.maxs, bundle.scaling.maxs)
        assert loaded.space.names == bundle.space.names
        assert loaded.split == bundle.split
        assert loaded.label_column == "label"
        assert not loaded.has_reject_band

    def test_reject_extension_round_trips(self, tmp_path):
        bundle = awkward_bundle()
        rm = RejectModel(bundle.model, -1.0 / 3.0, 2.0 / 7.0, 0.24)
        bundle = bundle.with_reject(rm, RiskReport(0.1, 0.2, 0.1 + 0.24 * 0.2, 17))
        path = tmp_path / "reject.json"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        assert loaded.t_minus == -1.0 / 3.0
        assert loaded.t_plus == 2.0 / 7.0
        assert loaded.w_r == 0.24
        assert loaded.risk_report.grid_index == 17
        assert loaded.risk_report.risk == 0.1 + 0.24 * 0.2
        loaded.reject_model()  # well-formed

    def test_saving_twice_is_byte_identical(self, tmp_path):
        bundle = awkward_bundle()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(a, bundle)
        save_bundle(b, bundle)
        assert a.read_bytes() == b.read_bytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        bundle = awkward_bundle()
        rng = np.random.default_rng(7)
        lower = rng.normal(0, 3, len(bundle.space))
        space = FeatureSpace(bundle.space.names, lower, lower + rng.uniform(0.1, 5.0, lower.size))
        rm = RejectModel(bundle.model, -1.0 / 3.0, 2.0 / 7.0, 0.24)
        bundle = dataclasses.replace(bundle, space=space).with_reject(
            rm, RiskReport(0.1, 0.2, 0.1 + 0.24 * 0.2, 17))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_bundle(first, bundle)
        save_bundle(second, load_bundle(first))
        assert first.read_bytes() == second.read_bytes()
        assert list(json.loads(first.read_text())) == [
            "weights", "bias", "features", "scaling", "label_column", "positive_label",
            "split", "t_minus", "t_plus", "w_r", "risk_report"]

    def test_training_report_round_trips_and_survives_calibration(self, tmp_path):
        report = TrainReport(primal_objective=np.pi * 1e3, passes_used=6162,
                             converged=False, dual_gap=1.0 / 3.0)
        bundle = dataclasses.replace(awkward_bundle(), training=report)
        rm = RejectModel(bundle.model, -1.0 / 3.0, 2.0 / 7.0, 0.24)
        bundle = bundle.with_reject(rm, RiskReport(0.1, 0.2, 0.1 + 0.24 * 0.2, 17))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_bundle(first, bundle)
        loaded = load_bundle(first)
        assert loaded.training == report
        save_bundle(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert list(doc) == [
            "weights", "bias", "features", "scaling", "label_column", "positive_label",
            "split", "training", "t_minus", "t_plus", "w_r", "risk_report"]
        assert doc["training"] == {"primal_objective": np.pi * 1e3, "passes_used": 6162,
                                   "converged": False, "dual_gap": 1.0 / 3.0}

    def test_file_with_dropped_margin_violation_key_loads(self, tmp_path):
        # files written before the always-zero max_margin_violation was dropped
        report = TrainReport(primal_objective=2.5, passes_used=7, converged=True, dual_gap=1e-7)
        doc = bundle_to_json(dataclasses.replace(awkward_bundle(), training=report))
        doc["training"]["max_margin_violation"] = 0.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded = load_bundle(path)
        assert loaded.training == report
        assert "max_margin_violation" not in bundle_to_json(loaded)["training"]

    def test_file_without_training_loads_and_stays_without(self, tmp_path):
        path = tmp_path / "model.json"
        save_bundle(path, awkward_bundle())
        loaded = load_bundle(path)
        assert loaded.training is None
        assert "training" not in bundle_to_json(loaded)

    @pytest.mark.parametrize("key", ["split", "training", "risk_report"])
    def test_null_record_loads_as_absent_and_saves_without_key(self, tmp_path, key):
        # as "t_minus": null already did
        report = TrainReport(primal_objective=2.5, passes_used=7, converged=True, dual_gap=1e-7)
        bundle = dataclasses.replace(awkward_bundle(), training=report).with_reject(
            RejectModel(awkward_bundle().model, -0.25, 0.5, 0.24), RiskReport(0.1, 0.2, 0.148, 3))
        doc = {**bundle_to_json(bundle), key: None}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        loaded = load_bundle(path)
        assert getattr(loaded, key) is None
        del doc[key]
        assert bundle_to_json(loaded) == doc

    def test_writer_emits_exactly_the_fields_that_are_set(self):
        # half a band, or a band without w_r, is written as it stands
        doc = bundle_to_json(dataclasses.replace(awkward_bundle(), t_plus=0.5))
        assert list(doc)[-2:] == ["split", "t_plus"] and doc["t_plus"] == 0.5
        assert "w_r" not in bundle_to_json(dataclasses.replace(awkward_bundle(), t_minus=-0.5,
                                                               t_plus=0.5))

    def test_reject_model_requires_band(self):
        with pytest.raises(ValueError, match="no reject band"):
            awkward_bundle().reject_model()

    def test_weight_feature_mismatch_rejected(self):
        doc = bundle_to_json(awkward_bundle())
        doc["weights"] = doc["weights"][:-1]
        with pytest.raises(ValueError, match="mismatch"):
            bundle_from_json(doc)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "ghost.json")

    def test_json_uses_shortest_round_trip_decimals(self, tmp_path):
        bundle = awkward_bundle()
        path = tmp_path / "model.json"
        save_bundle(path, bundle)
        doc = json.loads(path.read_text())
        for value, original in zip(doc["weights"], bundle.model.weights):
            assert value == float(original)
