#!/usr/bin/env python3
"""End-to-end benchmark of svcreject: train -> calibrate -> explain through the CLI.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Set-up writes the workload's seeded CSVs
(SETUP_REPEATS times, timing each).  Then whole rounds run until the timed
commands add up to --seconds: a round is one session per dataset of the
workload.  A session is ``svcreject train``, ``calibrate`` at the
workload's --wr, ``explain``, and ``calibrate`` at the other rejection
costs; each command is a separate process, and each output is checked by
checks.py outside the timing.
With --trace 1 the commands run under tracing.py and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread, here and in every CLI process, so that the load is one
# thread of one process at a time; set before numpy is first imported
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import LABEL_COLUMN, POSITIVE_LABEL, WORKLOADS, Dataset, Workload, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
GRID_STEPS = 100
STAGES = ("train", "calibrate", "explain")
# every session calibrates at each of these costs, so that calibrate_s
# averages seconds of work; the workload's own --wr is the one explained
REJECTION_COSTS = (0.1, 0.24, 0.4, 0.6)

END_TO_END = {
    "setup_s": "s", "train_s": "s", "calibrate_s": "s",
    "explain_rows_per_s": "rows/s", "explanation_size_mean": "features", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dataset.parse_s": "s", "dataset.parse_calls": "count", "dataset.parse_cells_per_s": "cells/s",
    "trainer.updates": "count", "trainer.us_per_update": "us",
    "rejector.calibrate_s": "s",
    "feasibility.queries": "count", "feasibility.us_per_query": "us", "feasibility.knife_edges": "count",
    "explainer.explain_ms_p50": "ms", "explainer.explain_ms_p90": "ms",
    "explainer.verify_ms_p50": "ms", "explainer.verify_ms_p90": "ms",
    "explainer.self_us_per_row": "us",
    "artifacts.io_s": "s", "cli.serialize_s": "s", "cli.jsonl_mb": "MB", "trace.overhead_s": "s",
}


def cli_env() -> dict:
    """Environment of a CLI process: the package from src/, one BLAS thread."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Command:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Session:
    """One dataset through train, a calibrate per rejection cost, and explain."""

    def __init__(self, workload: Workload, data: Dataset, work: Path, trace: bool):
        self.wl, self.data, self.work, self.trace = workload, data, work, trace
        self.stem = work / data.path.stem
        self.walls: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self.spans: dict[str, list[list]] = {stage: [] for stage in STAGES}
        self.absent: set[str] = set()
        self.rss_mb = 0.0
        self.attempted = self.failed = 0
        self.wrong = False
        self.report: checks.ExplainReport | None = None
        self.train_check: dict = {}
        self.untraced_explain_s = 0.0
        self.timed_s = 0.0   # every command's wall time, failed ones included
        self.check_s = 0.0

    def path(self, kind: str, wr: float | None = None) -> Path:
        suffix = {"model": ".model.json", "reject": f".reject-{wr}.json", "jsonl": ".jsonl"}[kind]
        return self.stem.with_suffix(suffix)

    def steps(self) -> list[tuple[str, float | None, bool]]:
        """(stage, rejection cost, traced) of every command, in order.

        The other costs are calibrated after explain, so that the calibrate
        samples spread over the session instead of bunching at its start.
        """
        wr = self.wl.wr
        steps = [("train", None, self.trace), ("calibrate", wr, self.trace), ("explain", wr, self.trace)]
        if self.trace:
            steps.append(("explain", wr, False))   # untraced twin, for trace.overhead_s
        steps += [("calibrate", other, self.trace) for other in REJECTION_COSTS if other != wr]
        return steps

    def args(self, stage: str, wr: float | None) -> list[str]:
        wl, csv = self.wl, str(self.data.path)
        if stage == "train":
            return ["train", "--input", csv, "--label-column", LABEL_COLUMN,
                    "--positive-label", POSITIVE_LABEL, "--model", str(self.path("model")),
                    "--C", repr(wl.C), "--fraction", repr(wl.fraction),
                    "--seed", str(self.data.seed), "--max-passes", str(wl.max_passes)]
        if stage == "calibrate":
            return ["calibrate", "--input", csv, "--model", str(self.path("model")),
                    "--output", str(self.path("reject", wr)), "--wr", repr(wr), "--scope", "test",
                    "--grid-steps", str(GRID_STEPS)]
        return ["explain", "--input", csv, "--model", str(self.path("reject", wr)),
                "--output", str(self.path("jsonl")), "--scope", "test", "--order", wl.order]

    def command(self, stage: str, wr: float | None, traced: bool) -> Command:
        argv = self.args(stage, wr)
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(self.work / "spans.json"), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "svcreject.cli", *argv]
        out_path, err_path = self.work / f"{stage}.stdout", self.work / f"{stage}.stderr"
        with out_path.open("w") as out, err_path.open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                       out_path.read_text(), err_path.read_text())

    def check(self, stage: str, wr: float | None, table: checks.Table, out: Command) -> None:
        if stage == "train":
            model = checks.read_model(self.path("model"))
            self.train_check = checks.check_train(
                out.stdout, table, model, self.wl.C, reference_direction(self.data, model),
                self.data.clean_labels, self.wl.accuracy_slack)
        elif stage == "calibrate":
            checks.check_calibrate(table, checks.read_model(self.path("reject", wr)), wr, GRID_STEPS)
        else:
            self.report = checks.check_explain(self.path("jsonl"), table,
                                               checks.read_model(self.path("reject", wr)))

    def run(self, table: checks.Table) -> None:
        steps = self.steps()
        for k, (stage, wr, traced) in enumerate(steps):
            self.attempted += 1
            out = self.command(stage, wr, traced)
            self.timed_s += out.wall
            if out.code != 0:
                print(f"{self.data.path.name}: {stage} exited {out.code}: {out.stderr.strip()[-500:]}",
                      file=sys.stderr)
                self.fail(len(steps) - k)
                return
            check_start = time.perf_counter()
            try:
                self.check(stage, wr, table, out)
            # a malformed or missing output file fails its check like a wrong one
            except (checks.CheckFailure, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                print(f"{self.data.path.name}: check failed: {exc!r}", file=sys.stderr)
                self.wrong = True
                self.fail(len(steps) - k)
                return
            self.check_s += time.perf_counter() - check_start
            if self.trace and not traced:
                self.untraced_explain_s = out.wall
                continue
            self.walls[stage].append(out.wall)
            self.rss_mb = max(self.rss_mb, out.rss_mb)
            if traced:
                doc = json.loads((self.work / "spans.json").read_text())
                self.spans[stage].append(doc["spans"])
                self.absent.update(doc["absent"])

    def fail(self, remaining: int) -> None:
        """The failed command and every later one of the session count as failed."""
        self.attempted += remaining - 1
        self.failed += remaining

    @property
    def complete(self) -> bool:
        return self.failed == 0


def reference_direction(data: Dataset, model: dict) -> np.ndarray:
    """The generator's true direction over the model's scaled features.

    raw = offset + scale * z and x = (raw - min) / (max - min), so z is affine
    in x with slope (max - min) / scale per feature.
    """
    idx = [int(f["name"][1:]) for f in model["features"]]
    span = np.array([s["max"] - s["min"] for s in model["scaling"]])
    return data.weights[idx] * span / data.scales[idx]


def setup(workload: Workload, seed: int, work: Path) -> tuple[list[Dataset], list[float]]:
    times, datasets = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        datasets = [generate(workload, seed, k, work) for k in range(workload.datasets)]
        times.append(time.perf_counter() - start)
    return datasets, times


def round_metrics(sessions: list[Session]) -> dict:
    rows = sum(s.report.records for s in sessions)
    return {
        "train_s": statistics.fmean(t for s in sessions for t in s.walls["train"]),
        "calibrate_s": statistics.fmean(t for s in sessions for t in s.walls["calibrate"]),
        "explain_rows_per_s": rows / sum(t for s in sessions for t in s.walls["explain"]),
        "explanation_size_mean": sum(s.report.kept_total for s in sessions) / rows,
        "peak_rss_mb": max(s.rss_mb for s in sessions),
    }


def layer_metrics(sessions: list[Session]) -> dict:
    per_session = []
    for s in sessions:
        layers = tracing.session_layers(s.spans)
        layers["cli.jsonl_mb"] = s.report.stable_bytes / 1e6
        layers["trace.overhead_s"] = s.walls["explain"][0] - s.untraced_explain_s
        per_session.append(layers)
    return tracing.run_layers(per_session)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svcreject" / "cli.py").is_file():
        print(f"error: the svcreject sources are not at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = HERE / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    datasets, setup_times = setup(workload, args.seed, work)
    tables = [checks.read_table(d.path, LABEL_COLUMN, POSITIVE_LABEL) for d in datasets]
    rounds: list[list[Session]] = []
    measured = 0.0
    while not rounds or measured < args.seconds:
        current = []
        for data, table in zip(datasets, tables):
            session = Session(workload, data, work, bool(args.trace))
            session.run(table)
            measured += session.timed_s
            current.append(session)
            _print_session(session)
        rounds.append(current)

    sessions = [s for r in rounds for s in r]
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    complete = [r for r in rounds if all(s.complete for s in r)]
    metrics = {}
    if args.trace:
        done = [s for s in sessions if s.complete]
        absent = sorted(set().union(*(s.absent for s in sessions)))
        if absent:
            print(f"absent from svcreject, not traced: {', '.join(absent)}")
        if done:
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer_metrics(done).items()}
    elif complete:
        per_round = [round_metrics(r) for r in complete]
        values = {"setup_s": statistics.median(setup_times)}
        values.update({k: statistics.median(m[k] for m in per_round) for k in per_round[0]})
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": not any(s.wrong for s in sessions), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_session(s: Session) -> None:
    if not s.complete:
        return
    r = s.report
    walls = "  ".join(f"{k} " + "/".join(f"{t:.2f}" for t in v) + "s" for k, v in s.walls.items())
    print(f"{s.data.path.name}: {walls}  rows {r.records} (classes -1/0/+1: "
          f"{r.class_counts[-1]}/{r.class_counts[0]}/{r.class_counts[1]})  "
          f"kept mean {r.size_mean:.2f}  jsonl {r.stable_bytes / 1e6:.1f} MB  "
          f"peak rss {s.rss_mb:.1f} MB  knife-edge records {len(r.knife_edges)}  "
          f"checks {s.check_s:.1f}s")
    t = s.train_check
    print(f"  train: objective {t['objective']:.6g} vs reference {t['reference_objective']:.6g}, "
          f"held-out accuracy {t['accuracy']:.3f} vs floor {t['accuracy_floor']:.3f}")
    for row, what in r.knife_edges[:10]:
        print(f"  knife edge: row {row}: {what} is within rounding of a threshold")


if __name__ == "__main__":
    sys.exit(main())
