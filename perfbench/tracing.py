"""Traced svcreject CLI commands and the per-layer metrics derived from them.

    python3 perfbench/tracing.py SPANS.json -- <svcreject arguments>

runs one CLI command like ``python3 -m svcreject.cli`` does, after wrapping
the calls into each module's public functions with spans.  A span is
[name, start, end, parent index, attribute]; the spans stay in memory and go
to SPANS.json when the command ends.  A wrapped name that the package no
longer has is listed as absent.  The functions below the entry point turn
the span files of one session into per-layer numbers; they do not import
svcreject.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

PARSE = ("dataset.load_csv", "cli._read_feature_rows")


def _csv_cells(path, rows: int) -> int:
    with open(path) as fh:
        return rows * len(fh.readline().split(","))


# attribute recorded on a span from (args, result), for the names that need one
ATTRIBUTES = {
    "dataset.load_csv": lambda args, res: _csv_cells(args[0], res[0].shape[0]),
    "cli._read_feature_rows": lambda args, res: _csv_cells(args[0], res.shape[0]),
    "trainer.train_soft_margin": lambda args, res: res[1].passes_used,
    "explainer.satisfiable": lambda args, res: int(res.knife_edge),
}

WRAPPED = (
    "dataset.load_csv", "dataset.apply_scaling", "trainer.train_soft_margin",
    "rejector.calibrate", "explainer.minimal_explanation", "explainer.verify_explanation",
    "explainer.satisfiable", "artifacts.load_bundle", "artifacts.save_bundle",
    "cli._read_feature_rows",
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attribute = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attribute is not None:
                try:
                    span[4] = attribute(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass   # the return value changed shape; what is built on it reads 0
            return result

        return traced

    def install(self) -> None:
        import importlib

        for qualified in WRAPPED:
            module_name, attr = qualified.split(".")
            module = importlib.import_module(f"svcreject.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(qualified)
            else:
                setattr(module, attr, self.wrap(qualified, fn))
        cli = importlib.import_module("svcreject.cli")
        commands = getattr(cli, "COMMANDS", None)
        if isinstance(commands, dict):
            for command, fn in list(commands.items()):
                commands[command] = self.wrap(f"cli.{command}", fn)
        else:
            self.absent.append("cli.COMMANDS")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <svcreject arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from svcreject import cli

    try:
        return cli.main(argv[2:])
    finally:
        Path(argv[0]).write_text(json.dumps({"absent": recorder.absent, "spans": recorder.spans}))


# --- per-layer metrics -------------------------------------------------------

def _durations(spans, name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def session_layers(stages: dict[str, list[list]]) -> dict:
    """Per-layer numbers for one session from its commands' span lists.

    ``stages`` maps "train", "calibrate" and "explain" to the span lists of
    that stage's traced commands (one train, one calibrate per rejection
    cost, one explain).  Where a stage has several commands the mean over
    them counts, so sums describe one train -> calibrate -> explain chain.
    """
    def chain(measure) -> float:
        return sum(statistics.fmean(measure(spans) for spans in commands)
                   for commands in stages.values())

    def parse(spans):
        return [s for s in spans if s[0] in PARSE]

    parse_s = chain(lambda spans: sum(s[2] - s[1] for s in parse(spans)))
    cells = chain(lambda spans: sum(s[4] or 0 for s in parse(spans)))
    train = [s for s in stages["train"][0] if s[0] == "trainer.train_soft_margin"]
    updates = sum(s[4] or 0 for s in train)
    train_s = sum(s[2] - s[1] for s in train)

    explain = stages["explain"][0]
    queries = [s for s in explain if s[0] == "explainer.satisfiable"]
    query_s = sum(s[2] - s[1] for s in queries)
    explain_idx = {k for k, s in enumerate(explain) if s[0] == "explainer.minimal_explanation"}
    query_s_in_explain = sum(s[2] - s[1] for s in queries if s[3] in explain_idx)
    explain_s = _durations(explain, "explainer.minimal_explanation")
    verify_s = _durations(explain, "explainer.verify_explanation")
    command_s = sum(_durations(explain, "cli.explain"))
    read_s = sum(_durations(explain, "cli._read_feature_rows"))
    return {
        "dataset.parse_s": parse_s,
        "dataset.parse_calls": chain(lambda spans: len(parse(spans))),
        "dataset.parse_cells_per_s": cells / parse_s if parse_s else 0.0,
        "trainer.updates": updates,
        "trainer.us_per_update": train_s / updates * 1e6 if updates else 0.0,
        "rejector.calibrate_s": statistics.fmean(sum(_durations(spans, "rejector.calibrate"))
                                                 for spans in stages["calibrate"]),
        "feasibility.queries": len(queries),
        "feasibility.us_per_query": query_s / len(queries) * 1e6 if queries else 0.0,
        "feasibility.knife_edges": sum(s[4] or 0 for s in queries),
        "explainer.self_us_per_row": ((sum(explain_s) - query_s_in_explain) / len(explain_s) * 1e6
                                      if explain_s else 0.0),
        "artifacts.io_s": chain(lambda spans: sum(s[2] - s[1] for s in spans
                                                  if s[0] in ("artifacts.load_bundle",
                                                              "artifacts.save_bundle"))),
        "cli.serialize_s": command_s - read_s - sum(explain_s) - sum(verify_s),
        "_explain_ms": [t * 1e3 for t in explain_s],
        "_verify_ms": [t * 1e3 for t in verify_s],
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_layers(sessions: list[dict]) -> dict:
    """Median over a run's sessions; duration percentiles pooled over all rows."""
    out = {}
    for key in sessions[0]:
        if not key.startswith("_"):
            out[key] = statistics.median(s[key] for s in sessions)
    for key, name in (("_explain_ms", "explainer.explain_ms"), ("_verify_ms", "explainer.verify_ms")):
        pooled = [t for s in sessions for t in s[key]]
        out[f"{name}_p50"] = _percentile(pooled, 50) if pooled else 0.0
        out[f"{name}_p90"] = _percentile(pooled, 90) if pooled else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
