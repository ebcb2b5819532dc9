#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs ``svcreject train``, ``calibrate`` and ``explain`` on
tests/data/iris.csv (versicolor against the rest, which is not linearly
separable, so the reject band is used), confirms that checks.py passes the
clean outputs, and then feeds it known-bad outputs and confirms each one is
caught:

- a kept feature deleted from an explanation;
- a witness moved back into its class;
- a reject band one grid step off;
- an unconverged train.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from run import GRID_STEPS, HERE, ROOT, cli_env

IRIS = ROOT / "tests" / "data" / "iris.csv"
LABEL, POSITIVE = "species", "versicolor"
C, WR = 1.0, 0.24
ACCURACY_SLACK = 0.45   # iris has no noise-free rule; the labels stand in for it


def cli(*args: str) -> str:
    done = subprocess.run([sys.executable, "-m", "svcreject.cli", *args], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout


def class_mean_direction(table: checks.Table, model: dict) -> np.ndarray:
    X = checks.scaled_rows(table, model)
    return X[table.labels > 0].mean(axis=0) - X[table.labels < 0].mean(axis=0)


def expect(name: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def caught(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailure as exc:
        print(f"      caught: {exc}")
        return True
    return False


def rewrite_jsonl(src: Path, dst: Path, edit) -> None:
    """Copy an explanation file, applying ``edit`` to its first record that it accepts."""
    shutil.copy(str(src) + ".summary.json", str(dst) + ".summary.json")
    done = False
    with open(src) as fin, open(dst, "w") as fout:
        for line in fin:
            rec = json.loads(line)
            if not done and edit(rec):
                done = True
            fout.write(json.dumps(rec) + "\n")
    if not done:
        raise RuntimeError(f"no record of {src} could be edited")


def delete_kept(rec: dict) -> bool:
    if not rec["kept"]:
        return False
    gone = rec["kept"].pop(0)["feature"]
    rec["removed"].append(gone)
    rec["witnesses"] = [w for w in rec["witnesses"] if w["feature"] != gone]
    return True


def main() -> int:
    work = HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    model_path, reject_path, jsonl = work / "model.json", work / "reject.json", work / "expl.jsonl"
    table = checks.read_table(IRIS, LABEL, POSITIVE)
    failures: list[str] = []

    out = cli("train", "--input", str(IRIS), "--label-column", LABEL, "--positive-label", POSITIVE,
              "--model", str(model_path), "--C", repr(C), "--max-passes", "1000000")
    model = checks.read_model(model_path)
    direction = class_mean_direction(table, model)
    expect("clean train passes", not caught(checks.check_train, out, table, model, C, direction,
                                            table.labels, ACCURACY_SLACK), failures)
    cli("calibrate", "--input", str(IRIS), "--model", str(model_path), "--output", str(reject_path),
        "--wr", repr(WR), "--grid-steps", str(GRID_STEPS))
    reject = checks.read_model(reject_path)
    expect("clean calibrate passes", not caught(checks.check_calibrate, table, reject, WR, GRID_STEPS),
           failures)
    cli("explain", "--input", str(IRIS), "--model", str(reject_path), "--output", str(jsonl), "--scope", "test")
    expect("clean explain passes", not caught(checks.check_explain, jsonl, table, reject), failures)

    bad = work / "bad.jsonl"
    rewrite_jsonl(jsonl, bad, delete_kept)
    expect("a deleted kept feature is caught", caught(checks.check_explain, bad, table, reject), failures)

    X = checks.scaled_rows(table, reject)

    def witness_back(rec: dict) -> bool:
        if not rec["witnesses"]:
            return False
        wit = rec["witnesses"][0]
        i = [f["name"] for f in reject["features"]].index(wit["feature"])
        wit["point"][i] = float(X[rec["index"]][i])
        return True

    rewrite_jsonl(jsonl, bad, witness_back)
    expect("a witness moved back into its class is caught",
           caught(checks.check_explain, bad, table, reject), failures)

    index = reject["risk_report"]["grid_index"]
    step = 1 if index < GRID_STEPS else -1
    train = np.array(reject["split"]["train_indices"])
    d = X[train] @ np.array(reject["weights"]) + reject["bias"]
    shifted = dict(reject, t_plus=(index + step) * (1.0 / GRID_STEPS) * float(d.max()),
                   t_minus=(index + step) * (1.0 / GRID_STEPS) * float(d.min()),
                   risk_report=dict(reject["risk_report"], grid_index=index + step))
    expect("a band one grid step off is caught",
           caught(checks.check_calibrate, table, shifted, WR, GRID_STEPS), failures)

    short = work / "short.json"
    out = cli("train", "--input", str(IRIS), "--label-column", LABEL, "--positive-label", POSITIVE,
              "--model", str(short), "--C", repr(C), "--max-passes", "3")
    expect("an unconverged train is caught",
           caught(checks.check_train, out, table, checks.read_model(short), C, direction,
                  table.labels, ACCURACY_SLACK), failures)
    claimed = out.replace("converged: False", "converged: True")
    expect("an unconverged model is caught by its objective alone",
           caught(checks.check_train, claimed, table, checks.read_model(short), C, direction,
                  table.labels, ACCURACY_SLACK), failures)

    print("self-test " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
