import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svcreject import FeatureSpace, LabeledDataset, LinearModel, RejectModel, cli, explainer
from svcreject.artifacts import load_bundle
from svcreject.cli import _class_summary, _metrics_table, build_parser, main
from svcreject.dataset import apply_scaling, load_csv
from svcreject.explainer import explain_batch, verify_batch
from svcreject.rejector import evaluate

import oracles
from conftest import (BAND_B, BAND_T_MINUS, BAND_T_PLUS, BAND_W, BAND_X, DATA_DIR,
                      break_every_check, random_reject_model)


def demo_reject_doc():
    """Hand-written reject-model file for the two-feature worked model."""
    return {
        "weights": [-0.8, 2.0],
        "bias": 0.05,
        "features": [
            {"name": "f1", "lower": 0.0, "upper": 1.0},
            {"name": "f2", "lower": 0.0, "upper": 1.0},
        ],
        "scaling": [{"min": 0.0, "max": 1.0}, {"min": 0.0, "max": 1.0}],
        "t_minus": 0.0,
        "t_plus": 0.0,
        "w_r": 0.24,
    }


def recorded_reject_doc():
    """``demo_reject_doc`` with a split manifest, a training record and a
    risk report, so that every kind of model-file field is present."""
    return {**demo_reject_doc(),
            "split": {"seed": 0, "train_fraction": 0.5, "train_indices": [0, 1],
                      "test_indices": [2]},
            "training": {"primal_objective": 1.0, "passes_used": 1, "converged": True,
                         "dual_gap": 0.0},
            "risk_report": {"error_ratio": 0.0, "rejection_ratio": 0.0, "risk": 0.24,
                            "grid_index": 3}}


def replaced(doc, path, value):
    """``doc`` with the value at key path ``path`` replaced by ``value``, in
    place; the empty path replaces the whole document."""
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def value_paths(doc, path=()):
    """The key path of every value in the JSON document ``doc``, the
    document itself (the empty path) first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from value_paths(value, (*path, key))


def band_reject_doc():
    return {
        "weights": list(BAND_W),
        "bias": BAND_B,
        "features": [
            {"name": f"f{i}", "lower": 0.0, "upper": 1.0} for i in range(1, 7)
        ],
        "scaling": [{"min": 0.0, "max": 1.0} for _ in range(6)],
        "t_minus": BAND_T_MINUS,
        "t_plus": BAND_T_PLUS,
        "w_r": 0.24,
    }


def strip_times(jsonl_text):
    records = [json.loads(line) for line in jsonl_text.splitlines()]
    for r in records:
        r.pop("time_seconds")
    return records


class TestFlags:
    # every settable option of each subcommand, and the ones it requires
    OPTIONS = {
        "train": {"--input", "--model", "--label-column", "--positive-label",
                  "--seed", "--C", "--fraction", "--tolerance", "--max-passes"},
        "calibrate": {"--input", "--model", "--output", "--scope", "--wr", "--grid-steps"},
        "explain": {"--input", "--model", "--output", "--scope", "--order",
                    "--skip-out-of-domain"},
    }
    REQUIRED = {
        "train": {"--input", "--model", "--label-column", "--positive-label"},
        "calibrate": {"--input", "--model", "--output"},
        "explain": {"--input", "--model"},
    }

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {name: [a for a in p._actions if a.dest != "help"]
                   for name, p in sub.choices.items()}
        assert {name: {a.option_strings[0] for a in acts}
                for name, acts in options.items()} == self.OPTIONS
        assert {name: {a.option_strings[0] for a in acts if a.required}
                for name, acts in options.items()} == self.REQUIRED
        assert sum(len(acts) for acts in options.values()) == 21

    @pytest.mark.parametrize("argv", [
        ["explain", "--input", "i.csv", "--model", "m.json", "--output", "e.jsonl", "--wr", "0.3"],
        ["calibrate", "--input", "i.csv", "--model", "m.json", "--output", "r.json",
         "--order", "lex"],
        ["train", "--input", "i.csv", "--model", "m.json", "--label-column", "y",
         "--positive-label", "a", "--grid-steps", "5"],
        ["train", "--input", "i.csv", "--model", "m.json", "--label-column", "y",
         "--positive-label", "a", "--output", "scaled.json"],
    ])
    def test_option_the_subcommand_never_reads_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "m.json", "--label-column", "y", "--positive-label", "a"],
        ["calibrate", "--model", "m.json", "--output", "r.json"],
        ["explain", "--model", "m.json", "--output", "e.jsonl"],
        ["explain", "--model", "m.json"],
    ])
    def test_missing_input_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "required: --input" in capsys.readouterr().err

    def test_bench_subcommand_is_gone(self, capsys):
        # explain without --output does what bench did
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", "i.csv", "--model", "m.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestTrain:
    def test_iris_pipeline_reports_perfect_test_accuracy(self, tmp_path, iris_csv, capsys):
        model_path = tmp_path / "model.json"
        code = main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path), "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert model_path.exists()
        assert "test accuracy: 100.00%" in out
        doc = json.loads(model_path.read_text())
        assert set(doc) >= {"weights", "bias", "features", "scaling", "split"}
        assert len(doc["split"]["train_indices"]) == 105

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main([
            "train", "--input", str(tmp_path / "ghost.csv"), "--label-column", "y",
            "--positive-label", "a", "--model", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_same_seed_writes_byte_identical_models(self, tmp_path, iris_csv, capsys):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for p in paths:
            assert main([
                "train", "--input", str(iris_csv), "--label-column", "species",
                "--positive-label", "setosa", "--model", str(p), "--seed", "7",
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unconverged_training_warns_on_stderr(self, tmp_path, iris_csv, capsys):
        code = main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(tmp_path / "m.json"),
            "--max-passes", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "converged: False" in captured.out
        assert "warning: training stopped unconverged (dual gap" in captured.err
        assert "warning" not in captured.out

    def test_converged_training_prints_no_warning(self, tmp_path, iris_csv, capsys):
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(tmp_path / "m.json"),
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_model_file_records_training_and_calibrate_keeps_it(self, tmp_path, iris_csv,
                                                                 capsys):
        model_path, reject_path = tmp_path / "m.json", tmp_path / "r.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "versicolor", "--model", str(model_path),
        ]) == 0
        out = capsys.readouterr().out
        training = json.loads(model_path.read_text())["training"]
        assert set(training) == {"passes_used", "converged", "dual_gap", "primal_objective"}
        assert training["converged"] is True
        assert 0.0 <= training["dual_gap"] <= 1e-6
        assert f"passes used: {training['passes_used']}  converged: True" in out
        assert f"primal objective: {training['primal_objective']:.6f}" in out
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        capsys.readouterr()
        assert json.loads(reject_path.read_text())["training"] == training


class TestCalibrate:
    def test_separable_csv_rejects_nothing(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        rng = np.random.default_rng(0)
        lines = ["x1,x2,label"]
        for _ in range(20):
            lines.append(f"{rng.uniform(0.7, 1.0):.6f},{rng.uniform(0.7, 1.0):.6f},pos")
        for _ in range(20):
            lines.append(f"{rng.uniform(0.0, 0.3):.6f},{rng.uniform(0.0, 0.3):.6f},neg")
        csv_path.write_text("\n".join(lines) + "\n")

        model_path = tmp_path / "model.json"
        reject_path = tmp_path / "reject.json"
        assert main([
            "train", "--input", str(csv_path), "--label-column", "label",
            "--positive-label", "pos", "--model", str(model_path), "--C", "100",
        ]) == 0
        assert main([
            "calibrate", "--input", str(csv_path), "--model", str(model_path),
            "--output", str(reject_path), "--wr", "0.24",
        ]) == 0
        out = capsys.readouterr().out
        assert "grid index 1" in out
        doc = json.loads(reject_path.read_text())
        assert doc["risk_report"]["risk"] == 0.0
        assert doc["risk_report"]["rejection_ratio"] == 0.0
        assert doc["w_r"] == 0.24

    def test_missing_model_exits_2(self, tmp_path, iris_csv, capsys):
        code = main([
            "calibrate", "--input", str(iris_csv), "--model", str(tmp_path / "no.json"),
            "--output", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_byte_identical_reject_files_and_metrics_sidecar(self, tmp_path, iris_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert main([
                "calibrate", "--input", str(iris_csv), "--model", str(model_path),
                "--output", str(out), "--scope", "all",
            ]) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()
        metrics = json.loads((tmp_path / "r1.json.metrics.json").read_text())
        assert metrics["scope"] == "all"
        assert metrics["rejected"] == 0
        assert metrics["negative"] + metrics["positive"] == 150

    @pytest.mark.parametrize("split_key, value", [
        ("train_indices", "99"), ("test_indices", "nan"), ("train_indices", "nan"),
    ])
    def test_row_outside_the_box_exits_2_before_writing(self, tmp_path, iris_csv, split_key,
                                                        value, capsys):
        # a calibration row (train_indices) or a --scope all row (test_indices)
        # with a raw sepal_width the fitted box does not hold
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        row = json.loads(model_path.read_text())["split"][split_key][0]
        lines = iris_csv.read_text().splitlines()
        cells = lines[row + 1].split(",")
        cells[1] = value
        lines[row + 1] = ",".join(cells)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        reject_path = tmp_path / "reject.json"
        assert main([
            "calibrate", "--input", str(bad_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 2
        err = capsys.readouterr().err
        assert f"1 row(s) outside the model's feature domains: {row}\n" in err
        assert not reject_path.exists()
        assert not (tmp_path / "reject.json.metrics.json").exists()

    def test_calibration_and_scope_rows_are_checked_in_one_pass(self, tmp_path, iris_csv,
                                                               monkeypatch, capsys):
        # one out-of-box training row and one out-of-box test row: calibrate
        # --scope test reads both, and names both in ascending order
        model_path = tmp_path / "model.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        split = json.loads(model_path.read_text())["split"]
        rows = split["train_indices"][0], split["test_indices"][0]
        lines = iris_csv.read_text().splitlines()
        for row in rows:
            cells = lines[row + 1].split(",")
            cells[1] = "99"
            lines[row + 1] = ",".join(cells)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        reject_path = tmp_path / "reject.json"
        argv = ["calibrate", "--model", str(model_path), "--output", str(reject_path),
                "--scope", "test", "--input"]
        assert main([*argv, str(bad_csv)]) == 2
        first, second = sorted(rows)
        assert (capsys.readouterr().err == "error: 2 row(s) outside the model's feature "
                f"domains: {first}, {second}\n")
        assert not reject_path.exists()
        assert not (tmp_path / "reject.json.metrics.json").exists()

        calls = []
        check = cli._rows_in_box
        monkeypatch.setattr(cli, "_rows_in_box", lambda *a, **k: calls.append(a) or check(*a, **k))
        assert main([*argv, str(iris_csv)]) == 0
        assert [a[2].tolist() for a in calls] == [sorted(split["train_indices"]
                                                         + split["test_indices"])]

    def test_json_and_table_render(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.1, 0.1, 0.24)
        ds = LabeledDataset(np.array([[0.9], [-0.9]]), np.array([1.0, -1.0]))
        m = evaluate(rm, ds)
        # the sidecar's dict, as cmd_calibrate builds it: the field names are its keys
        doc = {"t_minus": rm.t_minus, "t_plus": rm.t_plus, **vars(m)}
        assert list(doc) == ["t_minus", "t_plus", "accuracy_without_reject",
                             "accuracy_with_reject", "rejection_ratio", "negative",
                             "rejected", "positive"]
        assert doc["t_minus"] == -0.1 and doc["positive"] == 1
        table = _metrics_table(doc)
        assert "acc w/ reject" in table.splitlines()[0]


    def test_reads_the_csv_once(self, tmp_path, iris_csv, monkeypatch, capsys):
        from svcreject import cli

        model_path = tmp_path / "model.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        reads = []
        load_csv = cli.dataset.load_csv

        def counting(*args, **kwargs):
            reads.append(args[0])
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(cli.dataset, "load_csv", counting)
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(tmp_path / "r.json"),
        ]) == 0
        capsys.readouterr()
        assert reads == [str(iris_csv)]


class TestExplain:
    def test_worked_model_keeps_only_f1(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["class"] == 1
        assert [k["feature"] for k in rec["kept"]] == ["f1"]
        assert rec["removed"] == ["f2"]
        assert rec["witnesses"][0]["feature"] == "f1"
        assert rec["witnesses"][0]["class"] == -1
        assert rec["kept"][0]["raw_value"] == pytest.approx(0.0526)

    def test_band_model_removes_f3(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(band_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text(
            "f1,f2,f3,f4,f5,f6\n" + ",".join(repr(float(v)) for v in BAND_X) + "\n"
        )
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        rec = json.loads(out_path.read_text().splitlines()[0])
        assert rec["class"] == 0
        assert rec["removed"] == ["f3"]
        assert [k["feature"] for k in rec["kept"]] == ["f1", "f2", "f4", "f5", "f6"]

    def test_empty_instance_file(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n")
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out_path.read_text() == ""
        assert "explained 0 instance(s)" in out
        summary = json.loads((tmp_path / "expl.jsonl.summary.json").read_text())
        assert summary["patterns"] == 0

    def test_empty_instance_file_leaves_stderr_empty(self, tmp_path):
        # a process of its own, under Python's default warning filters: no
        # warning of the CSV reader about the empty input reaches the user
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "svcreject.cli", "explain", "--model", str(model_path),
             "--input", str(instances), "--output", str(tmp_path / "expl.jsonl")],
            env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert "explained 0 instance(s)" in done.stdout

    def test_out_of_domain_rows_skipped_with_warning(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n1.5,0.3\n0.0526,0.3\n")
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path), "--skip-out-of-domain",
        ]) == 0
        captured = capsys.readouterr()
        assert "row 0" in captured.err and "skipped" in captured.err
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["index"] for r in records] == [1]

    def test_repeated_feature_column_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,f1\n0.0526,0.3,0.9\n")
        out_path = tmp_path / "e.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 2
        assert (f"error: {instances}: column 'f1' appears more than once in the header"
                in capsys.readouterr().err)
        assert not out_path.exists()

    def test_model_file_without_features_exits_2(self, tmp_path, capsys):
        doc = {**demo_reject_doc(), "weights": [], "features": [], "scaling": []}
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("x\n1\n")
        assert main(["explain", "--model", str(model_path), "--input", str(instances)]) == 2
        assert (f"error: model file {model_path}: the features list is empty\n"
                == capsys.readouterr().err)

    def test_plain_model_without_band_exits_2(self, tmp_path, capsys):
        doc = demo_reject_doc()
        for key in ("t_minus", "t_plus", "w_r"):
            del doc[key]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n")
        code = main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(tmp_path / "e.jsonl"),
        ])
        assert code == 2
        assert "reject band" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("bias", None), ("t_minus", [-0.1]), ("t_plus", "wide"), ("w_r", {"w_r": 0.2}),
        ("weights", ["x", 2.0]),
        ("features", [{"name": "f1", "lower": 5.0, "upper": 1.0},
                      {"name": "f2", "lower": 0.0, "upper": 1.0}]),
        ("split", {"seed": 0, "train_fraction": 0.5, "train_indices": ["a"],
                   "test_indices": [0]}),
        ("training", {"primal_objective": 1.0, "passes_used": 1, "converged": "false",
                      "dual_gap": 0.0}),
        ("risk_report", {"error_ratio": 0.0, "rejection_ratio": 0.0, "risk": 0.24,
                         "grid_index": "x"}),
        (None, "{not json"),   # the whole file
    ])
    def test_mistyped_model_file_exits_2(self, tmp_path, key, value, capsys):
        doc = demo_reject_doc()
        doc[key] = value
        model_path = tmp_path / "reject.json"
        model_path.write_text(value if key is None else json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n")
        out_path = tmp_path / "e.jsonl"
        code = main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"model file {model_path}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("split", "seed", "11000"),
        ("split", "train_indices", [0, 1.0]),
        ("split", "test_indices", [5.9]),
        ("training", "passes_used", True),
        ("risk_report", "grid_index", 3.0),
    ], ids=["seed", "train_indices", "test_indices", "passes_used", "grid_index"])
    def test_non_integer_field_exits_2(self, tmp_path, section, key, value, capsys):
        # each would otherwise load through int(): 5.9 as row 5, "11000"
        # parsed, true as 1
        doc = recorded_reject_doc()
        model_path = tmp_path / "reject.json"
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n0.25,0.5\n0.0,0.5\n")
        out_path = tmp_path / "e.jsonl"
        argv = ["explain", "--model", str(model_path), "--input", str(instances),
                "--output", str(out_path), "--scope", "test"]
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 0
        out_path.unlink()
        doc[section] = {**doc[section], key: value}
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"model file {model_path}: {section}.{key}" in err
        bad = value[-1] if isinstance(value, list) else value
        assert f"must be an integer, not {bad!r}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("split", "test_indices", ""),
        ("split", "test_indices", {}),
        ("split", "test_indices", "5"),
        (None, "weights", {}),
    ], ids=["empty-string", "object", "string", "weights-object"])
    def test_non_list_field_exits_2(self, tmp_path, section, key, value, capsys):
        # a string or an object would iterate: "" and {} as no rows at all
        # (explained 0 instances, exit 0), "5" as the row "5"
        doc = recorded_reject_doc()
        if section is None:
            doc[key] = value
        else:
            doc[section] = {**doc[section], key: value}
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n0.25,0.5\n0.0,0.5\n")
        out_path = tmp_path / "e.jsonl"
        assert main(["explain", "--model", str(model_path), "--input", str(instances),
                     "--output", str(out_path), "--scope", "test"]) == 2
        name = key if section is None else f"{section}.{key}"
        assert (f"model file {model_path}: {name} must be a list, not {value!r}"
                in capsys.readouterr().err)
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["explain", "calibrate"])
    @pytest.mark.parametrize("entries", [1, 3], ids=["too-few", "too-many"])
    def test_scaling_feature_count_mismatch_exits_2(self, tmp_path, command, entries, capsys):
        # loaded, the bundle would fail later on the raw table's column
        # count, in a message that does not name the model file
        doc = {**demo_reject_doc(), "label_column": "label", "positive_label": "pos",
               "scaling": [{"min": 0.0, "max": 1.0}] * entries}
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,label\n0.5,0.5,pos\n0.5,0.0,neg\n")
        out_path = tmp_path / "out"
        assert main([command, "--model", str(model_path), "--input", str(instances),
                     "--output", str(out_path)]) == 2
        assert (f"model file {model_path}: model file is inconsistent: "
                "scaling/feature count mismatch" in capsys.readouterr().err)
        assert not out_path.exists()

    @pytest.mark.parametrize("command, split", [
        ("explain", {"test_indices": [2, 2, 2]}),
        ("calibrate", {"train_indices": [0, 1, 2]}),
    ], ids=["repeated", "shared"])
    def test_split_index_listed_twice_exits_2(self, tmp_path, command, split, capsys):
        # row 2 would be explained three times, or calibrated on and then
        # tested on
        doc = {**recorded_reject_doc(), "label_column": "label", "positive_label": "pos"}
        model_path = tmp_path / "reject.json"
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,label\n0.5,0.5,pos\n0.5,0.0,neg\n0.0,0.5,pos\n")
        out_path = tmp_path / "out"
        argv = [command, "--model", str(model_path), "--input", str(instances),
                "--output", str(out_path), "--scope", "test"]
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 0
        out_path.unlink()
        doc["split"] = {**doc["split"], **split}
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"model file {model_path}: split.test_indices lists index 2, " in err
        assert not out_path.exists()

    @pytest.mark.parametrize("section, key, value", [
        (None, "t_plus", "0.5"),
        (None, "t_plus", True),
        (None, "bias", "0.1"),
        (None, "weights", ["-0.8", "2.0"]),
        ("split", "train_fraction", "0.85"),
    ], ids=["t_plus-string", "t_plus-bool", "bias", "weights", "train_fraction"])
    def test_non_number_field_exits_2(self, tmp_path, section, key, value, capsys):
        # each would otherwise load through float(): "0.5" parsed, true as 1.0
        doc = recorded_reject_doc()
        if section is None:
            doc[key] = value
        else:
            doc[section] = {**doc[section], key: value}
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n")
        out_path = tmp_path / "e.jsonl"
        assert main(["explain", "--model", str(model_path), "--input", str(instances),
                     "--output", str(out_path)]) == 2
        name = key if section is None else f"{section}.{key}"
        if isinstance(value, list):
            name, value = f"{name} entry", value[0]
        assert (f"model file {model_path}: {name} must be a number, not {value!r}"
                in capsys.readouterr().err)
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["explain", "calibrate"])
    @pytest.mark.parametrize("path, value, field, kind", [
        (("split",), [], "split", "an object"),
        (("training",), "x", "training", "an object"),
        (("risk_report",), 5, "risk_report", "an object"),
        (("label_column",), 5, "label_column", "a string"),
        (("positive_label",), 1, "positive_label", "a string"),
        (("features", 0), 5, "features entry", "an object"),
        (("features", 0, "name"), 5, "features.name entry", "a string"),
        (("scaling", 1), 3, "scaling entry", "an object"),
        ((), [], "the top level", "an object"),
    ], ids=["split", "training", "risk_report", "label_column", "positive_label",
            "features-entry", "feature-name", "scaling-entry", "whole-file"])
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, command, path, value, field,
                                              kind, capsys):
        # each would otherwise fail inside Python without naming the field, or
        # load: label_column 5 as the column "5", positive_label 1 through str()
        doc = {**recorded_reject_doc(), "label_column": "label", "positive_label": "pos"}
        model_path = tmp_path / "reject.json"
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,label\n0.5,0.5,pos\n0.5,0.0,neg\n0.0,0.5,pos\n")
        out_path = tmp_path / "out"
        argv = [command, "--model", str(model_path), "--input", str(instances),
                "--output", str(out_path), "--scope", "test"]
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 0
        out_path.unlink()
        capsys.readouterr()
        doc = replaced(doc, path, value)
        model_path.write_text(json.dumps(doc))
        assert main(argv) == 2
        assert (capsys.readouterr().err
                == f"error: model file {model_path}: {field} must be {kind}, not {value!r}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["explain", "calibrate"])
    @pytest.mark.parametrize("changes, message", [
        ({("split", "seed"): -5}, "split.seed must be at least 0, not -5"),
        ({("split", "train_fraction"): 7.5},
         "split.train_fraction must lie strictly between 0 and 1, not 7.5"),
        ({("split", "train_fraction"): 0},
         "split.train_fraction must lie strictly between 0 and 1, not 0.0"),
        ({("split", "train_indices", 1): -1},
         "split.train_indices lists index -1, which is negative"),
        ({("split", "test_indices", 0): -2},
         "split.test_indices lists index -2, which is negative"),
        ({("training", "passes_used"): -1}, "training.passes_used must be at least 0, not -1"),
        ({("risk_report", "error_ratio"): 1.5},
         "risk_report.error_ratio must lie in [0, 1], not 1.5"),
        ({("risk_report", "rejection_ratio"): -0.25},
         "risk_report.rejection_ratio must lie in [0, 1], not -0.25"),
        ({("w_r",): -1.0}, "rejection cost w_r must lie in (0, 1]"),
        ({("w_r",): -1.0, ("t_minus",): 0.5, ("t_plus",): -0.5},
         "thresholds must satisfy t_minus <= 0 <= t_plus, got (0.5, -0.5)"),
        ({("t_plus",): 1e308},
         "thresholds t_minus and t_plus must be finite and at most 4.4942328371557893e+307 "
         "in magnitude, got (0.0, 1e+308)"),
    ], ids=["seed", "train_fraction-above", "train_fraction-zero", "train_index", "test_index",
            "passes_used", "error_ratio", "rejection_ratio", "w_r", "inverted-band",
            "huge-threshold"])
    def test_out_of_range_field_exits_2_naming_it(self, tmp_path, command, changes, message,
                                                  capsys):
        # each loaded before its record was range-checked, the band until
        # reject_model() refused it
        doc = {**recorded_reject_doc(), "label_column": "label", "positive_label": "pos"}
        for path, value in changes.items():
            doc = replaced(doc, path, value)
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,label\n0.5,0.5,pos\n0.5,0.0,neg\n0.0,0.5,pos\n")
        out_path = tmp_path / "out"
        assert main([command, "--model", str(model_path), "--input", str(instances),
                     "--output", str(out_path), "--scope", "test"]) == 2
        assert capsys.readouterr().err == f"error: model file {model_path}: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("weights, lower, upper, rows, scale", [
        ([1e300, -1e300], 0.0, 1e10, [(5, 0)], "inf"),
        ([1e300, -1e300], 0.0, 1e10, [(5, 0), (1e9, 1e9)], "inf"),
        ([1.5e308, 1.5e308], 0.0, 1.0, [(0.5, 0.5)], "inf"),
        ([1.0, 0.0], -1e308, 1e308, [(1e308, 0.0)], "1e+308"),
    ], ids=["product-overflows", "product-overflows-two-rows", "sum-overflows",
            "swing-overflows"])
    def test_model_whose_arithmetic_overflows_exits_2(self, tmp_path, weights, lower, upper,
                                                      rows, scale, capsys):
        # once 1e300 * 1e10 or the sum of the products overflows, the decision
        # value is undefined: explain warned and wrote a witness of value
        # -inf, failed in fsum, or raised OverflowError (exit 1); a finite
        # scale of 1e308 still overflows freeing f1, a swing of 2e308
        doc = {**demo_reject_doc(), "weights": weights, "t_minus": -1.0, "t_plus": 1.0,
               "features": [{"name": name, "lower": lower, "upper": upper}
                            for name in ("f1", "f2")]}
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n" + "".join(f"{a},{b}\n" for a, b in rows))
        out_path = tmp_path / "e.jsonl"
        assert main(["explain", "--model", str(model_path), "--input", str(instances),
                     "--output", str(out_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: model file {model_path}: weights, bias and feature bounds reach the "
            f"scale |bias| + sum of max |w_i * bound_i| = {scale}, which must be below "
            "4.4942328371557893e+307\n")
        assert not out_path.exists()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_one_replaced_value_loads_or_names_the_file(self, tmp_path_factory, data):
        # no mistyped value reaches the loader's caller as anything but a
        # ValueError naming the file
        doc = recorded_reject_doc()
        path = data.draw(st.sampled_from(list(value_paths(doc))))
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.just(10 ** 400),
            st.text(max_size=3), st.lists(st.integers() | st.text(max_size=2), max_size=3),
            st.dictionaries(st.sampled_from(["name", "min", "seed", "risk"]),
                            st.integers() | st.floats(), max_size=2)))
        doc = replaced(doc, path, value)
        model_path = tmp_path_factory.getbasetemp() / "mutation.json"
        model_path.write_text(json.dumps(doc))
        try:
            load_bundle(model_path)
        except ValueError as exc:
            assert str(exc).startswith(f"model file {model_path}: "), str(exc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_extreme_magnitudes_verify_or_name_the_file(self, tmp_path_factory, data):
        # weights, bias and bounds at the ends of float range: a file inside
        # the kernel's domain explains every box corner verified, with no
        # RuntimeWarning (an error in this suite); any other names the file
        extreme = st.sampled_from((1e308, -1e308, 1e-320, -1e-320, 0.0))
        doc = demo_reject_doc()
        doc["weights"] = data.draw(st.lists(extreme, min_size=2, max_size=2))
        doc["bias"] = data.draw(extreme)
        for feature in doc["features"]:
            feature["lower"], feature["upper"] = sorted(data.draw(
                st.lists(extreme, min_size=2, max_size=2)))
        base = tmp_path_factory.getbasetemp()
        model_path, instances, out_path = (base / "extreme.json", base / "extreme.csv",
                                           base / "extreme.jsonl")
        model_path.write_text(json.dumps(doc))
        corners = [(a["lower"], a["upper"]) for a in doc["features"]]
        instances.write_text("f1,f2\n" + "".join(f"{a!r},{b!r}\n" for a in corners[0]
                                                  for b in corners[1]))
        out_path.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["explain", "--model", str(model_path), "--input", str(instances),
                         "--output", str(out_path)])
        try:
            load_bundle(model_path)
        except ValueError as exc:
            assert str(exc).startswith(f"model file {model_path}: "), str(exc)
            assert code == 2 and stderr.getvalue() == f"error: {exc}\n"
            assert not out_path.exists()
        else:
            assert code == 0, stderr.getvalue()
            assert len(out_path.read_text().splitlines()) == 4

    @pytest.mark.parametrize("path, field", [
        (("bias",), "bias"), (("weights", 1), "weights entry"),
        (("split", "train_fraction"), "split.train_fraction")],
        ids=["bias", "weights", "train_fraction"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, path, field):
        # float() raises OverflowError on it, which the reader names as the field
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(replaced(recorded_reject_doc(), path, 10 ** 400)))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n")
        assert main(["explain", "--model", str(model_path), "--input", str(instances)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: model file {model_path}: "
                       f"{field} must be a number within float range\n")

    def test_integer_in_number_field_loads_as_float(self, tmp_path, capsys):
        doc = recorded_reject_doc()
        # every number field but split.train_fraction, which no integer lies in range of
        doc.update(weights=[-1, 2], bias=0, t_minus=0, t_plus=0, w_r=1)
        doc["training"].update(primal_objective=1, dual_gap=0)
        doc["risk_report"].update(error_ratio=0, rejection_ratio=0, risk=1)
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(doc))
        bundle = load_bundle(model_path)
        numbers = [bundle.model.bias, bundle.t_minus, bundle.t_plus, bundle.w_r,
                   bundle.training.primal_objective,
                   bundle.training.dual_gap, bundle.risk_report.risk, *bundle.model.weights]
        assert all(isinstance(v, float) for v in numbers), numbers
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.5,0.5\n")
        assert main(["explain", "--model", str(model_path), "--input", str(instances)]) == 0

    def test_deterministic_apart_from_timing(self, tmp_path, iris_csv, capsys):
        model_path = tmp_path / "model.json"
        reject_path = tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            assert main([
                "explain", "--model", str(reject_path), "--input", str(iris_csv),
                "--output", str(out_path),
            ]) == 0
            outs.append(strip_times(out_path.read_text()))
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_scope_requires_split_manifest(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        code = main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(tmp_path / "e.jsonl"), "--scope", "train",
        ])
        assert code == 2
        assert "split manifest" in capsys.readouterr().err

    def test_scope_test_explains_only_held_out_rows(self, tmp_path, iris_csv, capsys):
        model_path = tmp_path / "model.json"
        reject_path = tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(reject_path), "--input", str(iris_csv),
            "--output", str(out_path), "--scope", "test",
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        test_indices = set(json.loads(model_path.read_text())["split"]["test_indices"])
        assert len(records) == 45
        assert {r["index"] for r in records} == test_indices

    def test_elimination_order_variants_all_verify(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(band_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text(
            "f1,f2,f3,f4,f5,f6\n" + ",".join(repr(float(v)) for v in BAND_X) + "\n"
        )
        kept_sets = {}
        for order in ("ascending", "descending-weight", "lex"):
            out_path = tmp_path / f"{order}.jsonl"
            assert main([
                "explain", "--model", str(model_path), "--input", str(instances),
                "--output", str(out_path), "--order", order,
            ]) == 0
            rec = json.loads(out_path.read_text().splitlines()[0])
            kept_sets[order] = tuple(k["feature"] for k in rec["kept"])
        capsys.readouterr()
        # lexicographic order coincides with ascending for f1..f6 names
        assert kept_sets["lex"] == kept_sets["ascending"] == ("f1", "f2", "f4", "f5", "f6")

    def test_failed_verification_is_a_bug_trap(self, tmp_path, monkeypatch, capsys):
        from svcreject import cli

        monkeypatch.setattr(
            cli.explainer, "verify_batch",
            lambda rm, space, batch: (None, None, {k: ["forced"] for k in range(len(batch))}),
        )
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        out_path = tmp_path / "e.jsonl"
        code = main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ])
        assert code == 1
        assert "row 0: explanation failed verification: forced" in capsys.readouterr().err
        assert not out_path.exists()

    def test_failed_verification_leaves_no_partial_output(self, tmp_path, monkeypatch, capsys):
        from svcreject import cli, explainer

        verify = explainer.verify_batch

        def second_row_fails(*args, **kwargs):
            witness_classes, knife_edges, violations = verify(*args, **kwargs)
            return witness_classes, knife_edges, {**violations, 1: ["forced"]}

        monkeypatch.setattr(cli.explainer, "verify_batch", second_row_fails)
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n0.5,0.5\n")
        out_path = tmp_path / "e.jsonl"
        code = main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ])
        assert code == 1
        assert "row 1" in capsys.readouterr().err
        assert not out_path.exists()

    def test_verifies_without_output_too(self, tmp_path, monkeypatch, capsys):
        from svcreject import cli

        monkeypatch.setattr(
            cli.explainer, "verify_batch",
            lambda rm, space, batch: (None, None, {k: ["forced"] for k in range(len(batch))}),
        )
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
        ]) == 1
        assert "row 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.csv", "reject.json"]

    def test_failed_verification_joins_the_first_failing_rows_messages(
            self, tmp_path, monkeypatch, capsys, band_reject, band_space):
        # batch rows 1 and 2 fail every check; the error names row 1 alone
        explain = explainer.explain_batch
        monkeypatch.setattr(cli.explainer, "explain_batch", lambda *args: break_every_check(
            break_every_check(explain(*args), 2), 1))
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(band_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,f3,f4,f5,f6\n"
                             + (",".join(repr(float(v)) for v in BAND_X) + "\n") * 3)
        assert main(["explain", "--model", str(model_path), "--input", str(instances)]) == 1
        broken = break_every_check(explain_batch(band_reject, band_space, BAND_X[None]), 0)
        (messages,) = verify_batch(band_reject, band_space, broken)[2].values()
        assert len(messages) == 7
        assert capsys.readouterr().err == (
            "error: row 1: explanation failed verification: " + "; ".join(messages) + "\n")

    def test_no_witness_point_is_classified(self, tmp_path, iris_csv, monkeypatch, capsys):
        model_path, reject_path = tmp_path / "model.json", tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "versicolor", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        classify = explainer.classify
        classified = []

        def counting(rm, X):
            classified.append(len(X))
            return classify(rm, X)

        # the explained rows themselves are classified once; the verifier
        # decides their witnesses from prefix sums, without building points
        monkeypatch.setattr(explainer, "classify", counting)
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(reject_path), "--input", str(iris_csv),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 150
        assert sum(len(r["witnesses"]) for r in records) > 150
        assert classified == [150]

    def test_band_edge_from_one_grid_step_explains(self, tmp_path, capsys):
        # --grid-steps 1 puts the band's ends on the extreme training decision
        # values, where sums taken in different orders disagree on the class
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, (2000, 20))
        w = rng.normal(size=20)
        y = np.where((X - 0.5) @ w + 0.3 * rng.standard_normal(2000) > 0, "pos", "neg")
        csv_path = tmp_path / "edge.csv"
        lines = [",".join(f"f{i}" for i in range(20)) + ",label"]
        lines += [",".join(f"{v:.6f}" for v in row) + "," + label
                  for row, label in zip(X.tolist(), y)]
        csv_path.write_text("\n".join(lines) + "\n")
        model_path, reject_path = tmp_path / "model.json", tmp_path / "reject.json"
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "train", "--input", str(csv_path), "--label-column", "label",
            "--positive-label", "pos", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(csv_path), "--model", str(model_path),
            "--output", str(reject_path), "--grid-steps", "1",
        ]) == 0
        assert main([
            "explain", "--input", str(csv_path), "--model", str(reject_path),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        assert len(out_path.read_text().splitlines()) == 2000


SPECIAL = (-0.0, 0.0, 5e-324, 1e-300, 0.1, 1.0, 2.0, -3.0, 123456789.0, 1e308, -1e308)


def reference_record(rm, space, row, raw_row, x, order, seconds) -> dict:
    """The record of instance x as a dict, for ``json.dumps``: what the
    writer must print, with the explanation and its certificates recomputed
    by the query-per-step reference."""
    names = space.names
    klass, kept, removed, certificates, _ = oracles.minimal_explanation_by_queries(
        rm, space, x, order)
    return {
        "index": int(row),
        "class": int(klass),
        "kept": [
            {"feature": names[i], "value": float(x[i]), "raw_value": float(raw_row[i])}
            for i in kept
        ],
        "removed": [names[i] for i in removed],
        "witnesses": [
            {
                "feature": names[i],
                "point": [float(v) for v in witness],
                "class": oracles.classify_one(rm, witness),
            }
            for i, witness in sorted(certificates.items())
        ],
        "time_seconds": seconds,
    }


@st.composite
def batch_cases(draw):
    """Boxes, batches of instances and raw values built from awkward floats,
    and a band; weights scaled to the box so that no product overflows."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    lower, upper, w = [], [], []
    for _ in range(n):
        lo, hi = sorted(draw(st.lists(st.sampled_from(SPECIAL), min_size=2, max_size=2,
                                      unique_by=float).filter(lambda p: p[0] != p[1])))
        lower.append(lo)
        upper.append(hi)
        w.append(draw(st.sampled_from((0.0, 1.0, -1.0, 0.5))) / max(1.0, abs(lo), abs(hi)))
    X = [[draw(st.sampled_from([v for v in SPECIAL if lo <= v <= hi]))
          for lo, hi in zip(lower, upper)] for _ in range(m)]
    raw = [[draw(st.sampled_from(SPECIAL)) for _ in range(n)] for _ in range(m)]
    bias = draw(st.sampled_from((0.0, -0.0, 0.25, -1.0)))
    band = draw(st.sampled_from(((-0.5, 0.5), (0.0, 0.0), (-1.0, 0.25))))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    return (names, np.array(lower), np.array(upper), np.array(X), np.array(raw),
            np.array(w), bias, band)


# batches that drawn ones may miss, each a batch_cases tuple: every class
# with every feature kept; no feature kept; a -0.0 corner beside a 0.0 value;
# no features at all, so records with empty kept and witnesses lists
EDGE_BATCHES = (
    (["a", "b"], np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
     np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]),
     np.array([[1e308, 0.1], [-0.0, 5e-324], [0.0, -3.0]]), np.array([1.0, 1.0]), 0.0,
     (-0.5, 0.5)),
    (["a", "b"], np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([[0.5, 0.0], [1.0, 1.0]]),
     np.array([[2.0, 1e-300], [0.0, 0.0]]), np.array([0.1, 0.1]), 1.0, (-0.5, 0.5)),
    (["f1", "f2"], np.array([-0.0, -0.0]), np.array([1.0, 1.0]), np.array([[1.0, 0.0]]),
     np.array([[1.0, 0.0]]), np.array([1.0, 0.5]), 0.0, (-0.5, 0.5)),
    ([], np.zeros(0), np.zeros(0), np.zeros((2, 0)), np.zeros((2, 0)), np.zeros(0), 0.25,
     (-0.5, 0.5)),
)


def explained(case):
    """The case's model, space and batch, and its witnesses' classes."""
    names, lower, upper, X, _, w, bias, (t_minus, t_plus) = case
    space = FeatureSpace(names, lower, upper)
    rm = RejectModel(LinearModel(w, bias), t_minus, t_plus, 0.24)
    batch = explain_batch(rm, space, X)
    return rm, space, batch, verify_batch(rm, space, batch)[0]


def coordinates_per_piece(pieces):
    """How many witness coordinates each of the writer's pieces holds,
    counted where each value of a ``"point"`` array starts.  A quoted name
    cannot hold the pattern: its quotes are escaped."""
    text, starts = "".join(pieces), []
    for match in re.finditer(r'"point": \[([^\]]*)\]', text):
        at = match.start(1)
        for value in match.group(1).split(", "):
            starts.append(at)
            at += len(value) + 2
    ends = np.cumsum([len(piece) for piece in pieces])
    return np.bincount(np.searchsorted(ends, starts, side="right"), minlength=len(pieces))


def assert_reference_jsonl(text, rm, space, rows, raw, batch):
    """``text`` holds the ``json.dumps`` line of each row's record; a failure
    names the records that differ rather than diffing megabytes."""
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(batch)
    seconds = batch.seconds / len(batch)
    differ = [k for k, (line, row) in enumerate(zip(lines, rows.tolist()))
              if line != json.dumps(reference_record(rm, space, row, raw[row],
                                                     batch.instances[k], None, seconds))]
    assert differ == []


class TestFeatureFrequency:
    def test_counts_kept_features_per_class(self):
        removed = np.array([[False, True, True]] * 3)
        stats, freq, _ = _class_summary(np.array([1, 1, 1]), removed, np.array([2, 3, 4]),
                                        ["a", "b", "c"])
        assert freq["classes"]["1"]["counts"] == {"a": 3, "b": 0, "c": 0}
        assert stats == {"1": {"patterns": 3, "size_mean": 1.0, "size_std": 0.0, "queries": 9}}
        assert {k: c["patterns"] for k, c in freq["classes"].items()} == {"1": 3}

    def test_empty_input_gives_empty_table(self):
        stats, freq, _ = _class_summary(np.zeros(0, dtype=int), np.zeros((0, 3), dtype=bool),
                                        np.zeros(0, dtype=int), ["a", "b", "c"])
        assert stats == {} and freq == {"classes": {}}

    def test_text_layout_aligns_columns(self):
        _, _, text = _class_summary(np.array([1]), np.array([[False, True]]), np.array([1]),
                                    ["alpha", "beta"])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "alpha" in lines[0] and "patterns" in lines[0]

    def test_largest_weight_feature_can_have_zero_count(self, demo_reject, demo_space):
        # |w2| > |w1|, yet in this corner of the box only f1 is ever needed:
        # with f2 <= 0.2 the value of f2 can never pin the class on its own
        instances = [np.array([f1, f2]) for f1 in (0.0, 0.02, 0.05)
                     for f2 in (0.0, 0.1, 0.2)]
        batch = explain_batch(demo_reject, demo_space, np.array(instances))
        _, freq, _ = _class_summary(batch.classes, batch.removed, batch.queries,
                                    demo_space.names)
        assert freq["classes"]["1"]["counts"] == {"f1": 9, "f2": 0}
        assert freq["classes"]["1"]["patterns"] == 9


class TestJsonlWriter:
    """The JSONL writer, ``cli._jsonl_pieces``, against ``json.dumps`` of each
    record."""

    @example(case=EDGE_BATCHES[0], block_cells=1)
    @example(case=EDGE_BATCHES[1], block_cells=1)
    @example(case=EDGE_BATCHES[2], block_cells=1)
    @example(case=EDGE_BATCHES[3], block_cells=1)
    # blocks of one coordinate up to whole batches: at most n a piece holds
    # one point, and above it pieces split at every row and witness boundary
    # and also span rows
    @given(case=batch_cases(),
           block_cells=st.integers(min_value=1, max_value=8) | st.just(cli.BLOCK_CELLS))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, case, block_cells):
        rm, space, batch, witness_classes = explained(case)
        raw = np.zeros((2 * len(batch), len(space)))
        rows = 2 * np.arange(len(batch)) + 1   # batch row k is input row 2k + 1
        raw[rows] = case[4]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BLOCK_CELLS", block_cells)
            pieces = list(cli._jsonl_pieces(space.names, batch, rows, raw, witness_classes))
        assert max(coordinates_per_piece(pieces)) <= max(block_cells, len(space))
        assert_reference_jsonl("".join(pieces), rm, space, rows, raw, batch)

    def test_negative_zero_corner_beside_positive_zero_value(self):
        # the witness moves f1 to its -0.0 corner while f2 keeps its 0.0
        space = FeatureSpace(["f1", "f2"], np.array([-0.0, -0.0]), np.array([1.0, 1.0]))
        rm = RejectModel(LinearModel(np.array([1.0, 0.5]), 0.0), 0.0, 0.0, 0.24)
        X = np.array([[0.5, 0.0]])
        batch = explain_batch(rm, space, X)
        rows = np.array([0])
        text = "".join(cli._jsonl_pieces(space.names, batch, rows, X,
                                         verify_batch(rm, space, batch)[0]))
        assert '"point": [-0.0, 0.0]' in text
        assert_reference_jsonl(text, rm, space, rows, X, batch)

    def test_edge_batches_hold_what_they_promise(self):
        classes, sizes, signed_zeros = set(), set(), False
        for case in EDGE_BATCHES:
            rm, space, batch, _ = explained(case)
            classes |= set(batch.classes.tolist())
            sizes |= set((~batch.removed).sum(axis=1).tolist())
            for x in batch.instances:
                _, _, _, points, _ = oracles.minimal_explanation_by_queries(rm, space, x)
                for point in points.values():
                    zeros = np.signbit(point[point == 0.0])
                    signed_zeros |= bool(zeros.any() and not zeros.all())
        assert classes == {-1, 0, 1}
        assert {0, 2} <= sizes   # edge batches have two features or none
        assert signed_zeros

    def test_zero_rows_write_an_empty_file(self, demo_reject, demo_space, tmp_path):
        batch = explain_batch(demo_reject, demo_space, np.zeros((0, 2)))
        path = tmp_path / "expl.jsonl"
        with path.open("w") as fh:
            fh.writelines(cli._jsonl_pieces(demo_space.names, batch, np.zeros(0, dtype=int),
                                            np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int8)))
        assert path.read_text() == ""

    @pytest.mark.parametrize("rows, n", [(200, 30), (3, 600)], ids=["tall", "wide"])
    def test_no_piece_holds_more_than_block_cells_coordinates(self, rows, n):
        # a wide record holds far more coordinates than one piece may; tall
        # records fit many to a block
        rng = np.random.default_rng(n)
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        X = rng.uniform(0.0, 1.0, (rows, n))
        batch = explain_batch(rm, space, X)
        order = np.arange(rows)
        pieces = list(cli._jsonl_pieces(space.names, batch, order, X,
                                        verify_batch(rm, space, batch)[0]))
        assert max(piece.count('"point": [') for piece in pieces) * n <= cli.BLOCK_CELLS
        assert_reference_jsonl("".join(pieces), rm, space, order, X, batch)
        if rows == 3:
            assert int((~batch.removed).sum(axis=1).max()) * n > 10 * cli.BLOCK_CELLS
        else:
            assert max(piece.count('{"index": ') for piece in pieces) > 1

    def test_writing_holds_little_beyond_one_record(self):
        # a record's witness texts are held until it is written, but no
        # string of the whole record, its join or its encoding is
        rng = np.random.default_rng(600)
        rm = random_reject_model(rng, 600)
        space = FeatureSpace.unit([f"f{i}" for i in range(600)])
        X = rng.uniform(0.0, 1.0, (3, 600))
        batch = explain_batch(rm, space, X)
        args = (space.names, batch, np.arange(3), X, verify_batch(rm, space, batch)[0])
        longest = max(map(len, "".join(cli._jsonl_pieces(*args)).splitlines(keepends=True)))
        tracemalloc.start()
        try:
            for _ in cli._jsonl_pieces(*args):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * longest


class TestJsonlBytes:
    """explain's JSONL on iris, byte for byte a ``json.dumps`` writer over
    the query-per-step reference's explanations apart from the
    ``time_seconds`` values."""

    @pytest.fixture(scope="class")
    def reject_path(self, tmp_path_factory):
        tmp, iris_csv = tmp_path_factory.mktemp("iris"), DATA_DIR / "iris.csv"
        model_path, reject_path = tmp / "model.json", tmp / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "virginica", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        return reject_path

    @pytest.mark.parametrize("order", ["ascending", "descending-weight", "lex"])
    @pytest.mark.parametrize("case", ["scope-test", "skip-row-75"])
    def test_bytes_equal_json_dumps_of_each_explanation(self, reject_path, tmp_path, iris_csv,
                                                         order, case, capsys):
        csv_path, flags = iris_csv, ["--scope", "test"]
        if case == "skip-row-75":
            lines = iris_csv.read_text().splitlines()
            cells = lines[76].split(",")
            cells[0] = "99.0"
            lines[76] = ",".join(cells)
            csv_path = tmp_path / "bad.csv"
            csv_path.write_text("\n".join(lines) + "\n")
            flags = ["--skip-out-of-domain"]
        out_path = tmp_path / "expl.jsonl"
        assert main(["explain", "--input", str(csv_path), "--model", str(reject_path),
                     "--output", str(out_path), "--order", order, *flags]) == 0
        capsys.readouterr()

        bundle = load_bundle(reject_path)
        rm, names = bundle.reject_model(), bundle.space.names
        raw, _, _ = load_csv(csv_path, features=names)
        if case == "scope-test":
            rows = np.array(bundle.split.test_indices)
        else:
            rows = np.delete(np.arange(150), 75)
        n = len(names)
        feature_order = {
            "ascending": range(n),
            "descending-weight": np.argsort(-np.abs(bundle.model.weights), kind="stable"),
            "lex": sorted(range(n), key=names.__getitem__),
        }[order]
        X = apply_scaling(raw, bundle.scaling)[rows]
        lines = out_path.read_text().splitlines(keepends=True)
        assert len(lines) == len(rows)
        assert set(explain_batch(rm, bundle.space, X).classes.tolist()) == {-1, 0, 1}
        for x, line, row in zip(X, lines, rows.tolist()):
            record = reference_record(rm, bundle.space, row, raw[row], x, feature_order,
                                      json.loads(line)["time_seconds"])
            assert line == json.dumps(record) + "\n"


class TestReport:
    """The summary beside the JSONL, and the stdout report, which is the
    same with or without --output."""

    def test_single_instance_reports_zero_std(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "expl.jsonl.summary.json").read_text())
        assert summary["patterns"] == 1
        stats = summary["classes"]["1"]
        # the pass time is reported once, not split across classes
        assert stats["size_std"] == 0.0 and "time_std" not in stats
        assert summary["seconds"] > 0.0
        assert summary["max_queries_per_instance"] <= summary["query_budget_per_instance"]

    def test_zero_instances_is_success(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n")
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
        ]) == 0
        assert "explained 0 instance(s)" in capsys.readouterr().out

    def test_summary_counters_match_the_batch(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(band_reject_doc()))
        rng = np.random.default_rng(5)
        X = np.vstack([BAND_X, rng.uniform(0.0, 1.0, (20, 6))])
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2,f3,f4,f5,f6\n" + "".join(
            ",".join(repr(float(v)) for v in x) + "\n" for x in X))
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "expl.jsonl.summary.json").read_text())
        bundle = load_bundle(model_path)
        batch = explain_batch(bundle.reject_model(), bundle.space, X)
        assert summary["features"] == 6
        assert summary["query_budget_per_instance"] == 12
        assert summary["knife_edge_queries"] == int(batch.knife_edges.sum())
        assert summary["max_queries_per_instance"] == int(batch.queries.max())
        assert summary["max_queries_per_instance"] <= summary["query_budget_per_instance"]
        assert sum(c["queries"] for c in summary["classes"].values()) == int(batch.queries.sum())
        _, knife_edges, _ = verify_batch(bundle.reject_model(), bundle.space, batch)
        assert summary["run"]["verify_knife_edges"] == int(knife_edges.sum())

        # an integer model over a quarter grid: decision values and extrema
        # land on the band's ends, where the verifier decides exactly
        doc = {**demo_reject_doc(), "weights": [1.0, -1.0], "bias": 0.0,
               "t_minus": -0.5, "t_plus": 0.5}
        model_path.write_text(json.dumps(doc))
        X = np.array([[0.5, 0.0], [0.75, 0.25], [0.0, 0.5], [0.25, 0.25]])
        instances.write_text("f1,f2\n" + "".join(f"{a},{b}\n" for a, b in X))
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "expl.jsonl.summary.json").read_text())
        bundle = load_bundle(model_path)
        _, knife_edges, _ = verify_batch(bundle.reject_model(), bundle.space,
                                         explain_batch(bundle.reject_model(), bundle.space, X))
        assert summary["run"]["verify_knife_edges"] == int(knife_edges.sum()) > 0

    def test_run_block_times_each_stage_and_counts_out_of_box_rows(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n1.5,0.3\n0.5,0.5\n")
        out_path = tmp_path / "expl.jsonl"
        started = time.perf_counter()
        assert main([
            "explain", "--model", str(model_path), "--input", str(instances),
            "--output", str(out_path), "--skip-out-of-domain",
        ]) == 0
        wall = time.perf_counter() - started
        capsys.readouterr()
        summary = json.loads((tmp_path / "expl.jsonl.summary.json").read_text())
        run = summary["run"]
        assert list(run) == ["stage_seconds", "out_of_box_rows", "verify_knife_edges"]
        stages = run["stage_seconds"]
        assert list(stages) == ["load", "box_check", "explain", "verify", "write"]
        assert all(isinstance(s, float) and s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= wall
        # the elimination pass runs inside the explain stage
        assert stages["explain"] >= summary["seconds"] > 0.0
        assert run["out_of_box_rows"] == 1 and summary["skipped_rows"] == [1]
        # the counters stay at the top level
        assert {"features", "knife_edge_queries", "max_queries_per_instance",
                "query_budget_per_instance"} <= set(summary)

    def test_without_output_writes_nothing_and_prints_the_same(self, tmp_path, iris_csv,
                                                                 capsys):
        model_path, reject_path = tmp_path / "model.json", tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "versicolor", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        capsys.readouterr()
        listing = sorted(p.name for p in tmp_path.iterdir())
        assert main(["explain", "--model", str(reject_path), "--input", str(iris_csv)]) == 0
        bare = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

        out_path = tmp_path / "expl.jsonl"
        assert main(["explain", "--model", str(reject_path), "--input", str(iris_csv),
                     "--output", str(out_path)]) == 0
        written = capsys.readouterr().out.splitlines()
        assert written[-1] == f"explanations written to {out_path}"
        assert any(line.startswith("total feasibility queries: ") for line in bare)

        def untimed(lines):
            return [line for line in lines if not line.startswith("explanation pass: ")]
        assert untimed(bare) == untimed(written[:-1])
        assert len(untimed(bare)) == len(bare) - 1


class TestOutOfDomain:
    """A row outside the model's box (one iris cell set to 99.0)."""

    @pytest.fixture
    def setup(self, tmp_path, iris_csv, capsys):
        model_path, reject_path = tmp_path / "m.json", tmp_path / "r.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "versicolor", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        lines = iris_csv.read_text().splitlines()
        cells = lines[3].split(",")   # row 2
        cells[0] = "99.0"
        lines[3] = ",".join(cells)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        return bad_csv, reject_path

    @pytest.mark.parametrize("output", [True, False], ids=["explain", "without-output"])
    def test_exits_2_and_names_the_row(self, setup, tmp_path, output, capsys):
        bad_csv, reject_path = setup
        out_path = tmp_path / "out.jsonl"
        listing = sorted(p.name for p in tmp_path.iterdir())
        code = main(["explain", "--input", str(bad_csv), "--model", str(reject_path),
                     *(["--output", str(out_path)] if output else [])])
        assert code == 2
        err = capsys.readouterr().err
        assert "1 row(s) outside the model's feature domains: 2;" in err
        assert "--skip-out-of-domain" in err
        assert not out_path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    def test_skip_flag_explains_the_other_rows(self, setup, tmp_path, capsys):
        bad_csv, reject_path = setup
        out_path = tmp_path / "out.jsonl"
        assert main(["explain", "--input", str(bad_csv), "--model", str(reject_path),
                     "--output", str(out_path), "--skip-out-of-domain"]) == 0
        assert "row 2 is outside" in capsys.readouterr().err
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 149 and 2 not in {r["index"] for r in records}
        summary = json.loads((tmp_path / "out.jsonl.summary.json").read_text())
        assert summary["skipped_rows"] == [2]

    def test_error_names_ten_rows_then_counts(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n" + "1.5,0.3\n" * 12)
        assert main(["explain", "--input", str(instances), "--model", str(model_path)]) == 2
        assert ("12 row(s) outside the model's feature domains: "
                "0, 1, 2, 3, 4, 5, 6, 7, 8, 9 and 2 more;") in capsys.readouterr().err


class TestSplitIndices:
    """Every split manifest index must name a row of --input: a negative or
    too large one exits 2 before anything is written, a negative one as an
    error of the model file."""

    BAD = ([-1, -150], [150])

    @staticmethod
    def error(path, key, bad):
        if min(bad) < 0:
            return f"model file {path}: split.{key} lists index {min(bad)}, which is negative\n"
        return "split manifest indices fall outside the input's 150 rows"

    @pytest.fixture
    def trained(self, tmp_path, iris_csv, capsys):
        model_path, reject_path = tmp_path / "model.json", tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        capsys.readouterr()
        return model_path, reject_path

    @staticmethod
    def corrupt(path, key, bad):
        doc = json.loads(path.read_text())
        doc["split"][key] = bad + doc["split"][key][len(bad):]
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("bad", BAD)
    def test_calibrate_exits_2(self, trained, tmp_path, iris_csv, bad, capsys):
        model_path, _ = trained
        self.corrupt(model_path, "train_indices", bad)
        out_path = tmp_path / "other.json"
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(out_path),
        ]) == 2
        assert self.error(model_path, "train_indices", bad) in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("bad", BAD)
    def test_explain_exits_2(self, trained, tmp_path, iris_csv, bad, capsys):
        _, reject_path = trained
        self.corrupt(reject_path, "test_indices", bad)
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(reject_path), "--input", str(iris_csv),
            "--output", str(out_path), "--scope", "test",
        ]) == 2
        assert self.error(reject_path, "test_indices", bad) in capsys.readouterr().err
        assert not out_path.exists()
