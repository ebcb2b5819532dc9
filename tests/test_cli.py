import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject import FeatureSpace, LinearModel, RejectModel
from svcreject.cli import JsonlWriter, build_parser, main
from svcreject.explainer import explain_batch, verify_batch
from svcreject.rejector import predict_with_reject

from conftest import BAND_B, BAND_T_MINUS, BAND_T_PLUS, BAND_W, BAND_X


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
        "train": {"--input", "--model", "--output", "--label-column", "--positive-label",
                  "--seed", "--C", "--fraction", "--tolerance", "--max-passes"},
        "calibrate": {"--input", "--model", "--output", "--scope", "--wr", "--grid-steps"},
        "explain": {"--input", "--model", "--output", "--scope", "--order",
                    "--skip-out-of-domain"},
        "bench": {"--input", "--model", "--output", "--scope", "--order",
                  "--skip-out-of-domain"},
    }
    REQUIRED = {
        "train": {"--input", "--model", "--label-column", "--positive-label"},
        "calibrate": {"--input", "--model", "--output"},
        "explain": {"--input", "--model", "--output"},
        "bench": {"--input", "--model"},
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
        assert sum(len(acts) for acts in options.values()) == 28

    @pytest.mark.parametrize("argv", [
        ["explain", "--input", "i.csv", "--model", "m.json", "--output", "e.jsonl", "--wr", "0.3"],
        ["calibrate", "--input", "i.csv", "--model", "m.json", "--output", "r.json",
         "--order", "lex"],
        ["train", "--input", "i.csv", "--model", "m.json", "--label-column", "y",
         "--positive-label", "a", "--grid-steps", "5"],
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
        ["bench", "--model", "m.json"],
    ])
    def test_missing_input_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "required: --input" in capsys.readouterr().err


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

    def test_optional_dataset_dump(self, tmp_path, iris_csv, capsys):
        out = tmp_path / "scaled.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "setosa", "--model", str(tmp_path / "m.json"),
            "--output", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert set(doc) == {"features", "scaling", "rows", "labels"}
        assert len(doc["rows"]) == 150


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
        from svcreject import cli, explainer

        monkeypatch.setattr(
            cli.explainer, "verify_batch",
            lambda rm, space, batch: [explainer.VerificationReport(False, ("forced",))] * len(batch),
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
            reports = verify(*args, **kwargs)
            reports[1] = explainer.VerificationReport(False, ("forced",))
            return reports

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

    def test_bench_verifies_too(self, tmp_path, monkeypatch, capsys):
        from svcreject import cli, explainer

        monkeypatch.setattr(
            cli.explainer, "verify_batch",
            lambda rm, space, batch: [explainer.VerificationReport(False, ("forced",))] * len(batch),
        )
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        report_path = tmp_path / "report.json"
        assert main([
            "bench", "--model", str(model_path), "--input", str(instances),
            "--output", str(report_path),
        ]) == 1
        assert "row 0" in capsys.readouterr().err
        assert not report_path.exists()

    def test_each_witness_point_is_classified_once(self, tmp_path, iris_csv, monkeypatch,
                                                   capsys):
        from svcreject import rejector

        model_path, reject_path = tmp_path / "model.json", tmp_path / "reject.json"
        assert main([
            "train", "--input", str(iris_csv), "--label-column", "species",
            "--positive-label", "versicolor", "--model", str(model_path),
        ]) == 0
        assert main([
            "calibrate", "--input", str(iris_csv), "--model", str(model_path),
            "--output", str(reject_path),
        ]) == 0
        classify = rejector.classify
        classified = []

        def counting(rm, X):
            classified.append(len(X))
            return classify(rm, X)

        # the explained rows' own classes come from explainer's reference to
        # classify; every witness point goes through rejector.classify
        monkeypatch.setattr(rejector, "classify", counting)
        out_path = tmp_path / "expl.jsonl"
        assert main([
            "explain", "--model", str(reject_path), "--input", str(iris_csv),
            "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 150
        assert sum(classified) == sum(len(r["witnesses"]) for r in records) > 150

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


def reference_record(names, rm, row, raw_row, expl) -> dict:
    """The record as a dict, for ``json.dumps``: what the writer must print."""
    return {
        "index": int(row),
        "class": int(expl.klass),
        "kept": [
            {"feature": names[i], "value": v, "raw_value": float(raw_row[i])}
            for i, v in expl.kept
        ],
        "removed": [names[i] for i in expl.removed],
        "witnesses": [
            {
                "feature": names[i],
                "point": [float(v) for v in witness],
                "class": int(predict_with_reject(rm, witness)),
            }
            for i, witness in sorted(expl.certificates.items())
        ],
        "time_seconds": expl.time_seconds,
    }


@st.composite
def writer_cases(draw):
    """Boxes, instances and raw values built from awkward floats; weights
    scaled to the box so that no product overflows."""
    n = draw(st.integers(min_value=1, max_value=6))
    lower, upper, x, raw, w = [], [], [], [], []
    for _ in range(n):
        lo, hi = sorted(draw(st.lists(st.sampled_from(SPECIAL), min_size=2, max_size=2,
                                      unique_by=float).filter(lambda p: p[0] != p[1])))
        inside = [v for v in SPECIAL if lo <= v <= hi]
        lower.append(lo)
        upper.append(hi)
        x.append(draw(st.sampled_from(inside)))
        raw.append(draw(st.sampled_from(SPECIAL)))
        w.append(draw(st.sampled_from((0.0, 1.0, -1.0, 0.5))) / max(1.0, abs(lo), abs(hi)))
    bias = draw(st.sampled_from((0.0, -0.0, 0.25, -1.0)))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    return names, np.array(lower), np.array(upper), np.array(x), np.array(raw), np.array(w), bias


class TestJsonlWriter:
    @given(writer_cases())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, case):
        names, lower, upper, x, raw, w, bias = case
        space = FeatureSpace(names, lower, upper)
        rm = RejectModel(LinearModel(w, bias), -0.5, 0.5, 0.24)
        batch = explain_batch(rm, space, x[None, :])
        (report,) = verify_batch(rm, space, batch)
        line = JsonlWriter(space.names, batch).line(0, 7, raw, report.witness_classes)
        expl = batch.explanation(0)
        assert line == json.dumps(reference_record(space.names, rm, 7, raw, expl)) + "\n"

    def test_negative_zero_corner_beside_positive_zero_value(self):
        # the witness moves f1 to its -0.0 corner while f2 keeps its 0.0
        space = FeatureSpace(["f1", "f2"], np.array([-0.0, -0.0]), np.array([1.0, 1.0]))
        rm = RejectModel(LinearModel(np.array([1.0, 0.5]), 0.0), 0.0, 0.0, 0.24)
        x = np.array([0.5, 0.0])
        batch = explain_batch(rm, space, x[None, :])
        (report,) = verify_batch(rm, space, batch)
        line = JsonlWriter(space.names, batch).line(0, 0, x, report.witness_classes)
        assert '"point": [-0.0, 0.0]' in line
        expl = batch.explanation(0)
        assert line == json.dumps(reference_record(space.names, rm, 0, x, expl)) + "\n"


class TestBench:
    def test_single_instance_reports_zero_std(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n0.0526,0.3\n")
        report_path = tmp_path / "report.json"
        assert main([
            "bench", "--model", str(model_path), "--input", str(instances),
            "--output", str(report_path),
        ]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["instances"] == 1
        stats = report["classes"]["1"]
        assert stats["time_std"] == 0.0 and stats["size_std"] == 0.0
        assert report["max_queries_per_instance"] <= report["query_budget_per_instance"]

    def test_zero_instances_is_success(self, tmp_path, capsys):
        model_path = tmp_path / "reject.json"
        model_path.write_text(json.dumps(demo_reject_doc()))
        instances = tmp_path / "inst.csv"
        instances.write_text("f1,f2\n")
        assert main([
            "bench", "--model", str(model_path), "--input", str(instances),
        ]) == 0
        assert "benchmarked 0 instance(s)" in capsys.readouterr().out


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

    @pytest.mark.parametrize("command", ["explain", "bench"])
    def test_exits_2_and_names_the_row(self, setup, tmp_path, command, capsys):
        bad_csv, reject_path = setup
        out_path = tmp_path / "out.jsonl"
        code = main([command, "--input", str(bad_csv), "--model", str(reject_path),
                     "--output", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "1 row(s) outside the model's feature domains: 2;" in err
        assert "--skip-out-of-domain" in err
        assert not out_path.exists()

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
        assert main(["bench", "--input", str(instances), "--model", str(model_path)]) == 2
        assert ("12 row(s) outside the model's feature domains: "
                "0, 1, 2, 3, 4, 5, 6, 7, 8, 9 and 2 more;") in capsys.readouterr().err


class TestSplitIndices:
    """Every split manifest index must name a row of --input: a negative or
    too large one exits 2 before anything is written."""

    BAD = ([-1, -150], [150])

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
        assert "split manifest indices fall outside the input's 150 rows" in capsys.readouterr().err
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
        assert "split manifest indices fall outside the input's 150 rows" in capsys.readouterr().err
        assert not out_path.exists()
