"""Command-line pipeline: train, calibrate, explain, bench.

Models are plain JSON files, so externally supplied weights can be explained
without retraining.  Exit codes: 0 success, 1 internal verification failure,
2 input/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import artifacts, dataset, explainer, rejector, trainer

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
# out-of-domain rows an error message names before it counts the rest
MAX_NAMED_ROWS = 10


class VerificationFailure(RuntimeError):
    """An emitted explanation failed re-verification; treated as a bug trap."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svcreject",
        description="Train a linear SVC, calibrate a reject band, and compute "
                    "provably minimal per-instance explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def files(p: argparse.ArgumentParser, output_help: str, output_required: bool) -> None:
        p.add_argument("--input", required=True, help="CSV file (header row, comma separated)")
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--output", required=output_required, help=output_help)

    def scope(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scope", choices=("train", "test", "all"), default="all",
                       help="which rows of --input to use (needs the split "
                            "manifest for train/test)")

    p_train = sub.add_parser("train", help="fit a soft-margin linear SVC from a CSV")
    files(p_train, "also write the scaled dataset as JSON", False)
    p_train.add_argument("--label-column", required=True)
    p_train.add_argument("--positive-label", required=True,
                         help="label value mapped to +1; all others map to -1")
    p_train.add_argument("--seed", type=int, default=0,
                         help="seed of the stratified split (default 0)")
    p_train.add_argument("--C", dest="C", type=float, default=1.0,
                         help="soft-margin trade-off (default 1.0)")
    p_train.add_argument("--fraction", type=float, default=0.7,
                         help="train fraction for the stratified split (default 0.7)")
    p_train.add_argument("--tolerance", type=float, default=1e-6)
    p_train.add_argument("--max-passes", type=int, default=10_000)

    p_calibrate = sub.add_parser("calibrate", help="fit the reject band on training rows")
    files(p_calibrate, "reject model file to write", True)
    scope(p_calibrate)
    p_calibrate.add_argument("--wr", type=float, default=0.24,
                             help="rejection cost in (0, 1] (default 0.24)")
    p_calibrate.add_argument("--grid-steps", type=int, default=rejector.DEFAULT_GRID_STEPS,
                             help="threshold grid resolution (default 100)")

    for name, help_text, output_help in (
        ("explain", "minimal explanation per instance, as JSONL", "JSONL file to write"),
        ("bench", "time explanations without writing them", "also write the report as JSON"),
    ):
        p = sub.add_parser(name, help=help_text)
        files(p, output_help, name == "explain")
        scope(p)
        p.add_argument("--order", choices=("ascending", "descending-weight", "lex"),
                       default="ascending", help="feature elimination order")
        p.add_argument("--skip-out-of-domain", action="store_true",
                       help="skip rows outside the model's feature domains instead "
                            "of exiting 2")
    return parser


def _split_rows(indices, n_rows: int) -> np.ndarray:
    """Row numbers from a split manifest, each checked to be a row of the input."""
    idx = np.asarray(indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise dataset.DatasetError(
            f"split manifest indices fall outside the input's {n_rows} rows; "
            "pass the CSV the model was trained on"
        )
    return idx


def _scope_indices(scope: str, n_rows: int, bundle: artifacts.ModelBundle) -> np.ndarray:
    if scope == "all":
        return np.arange(n_rows)
    if bundle.split is None:
        raise dataset.DatasetError(
            f"--scope {scope} needs a model file with a split manifest"
        )
    split = bundle.split
    return _split_rows(split.train_indices if scope == "train" else split.test_indices, n_rows)


def _feature_order(name: str, bundle: artifacts.ModelBundle) -> list[int]:
    n = len(bundle.space)
    if name == "ascending":
        return list(range(n))
    if name == "descending-weight":
        return list(np.argsort(-np.abs(bundle.model.weights), kind="stable"))
    return sorted(range(n), key=lambda i: bundle.space.names[i])


def cmd_train(args) -> int:
    raw, y, names = dataset.load_csv(args.input, args.label_column, args.positive_label)
    space, scaling, full = dataset.scale_dataset(raw, y, names)
    train_idx, test_idx = dataset.stratified_split_indices(full.y, args.fraction, args.seed)
    train_ds = dataset.LabeledDataset(full.X[train_idx], full.y[train_idx])
    test_ds = dataset.LabeledDataset(full.X[test_idx], full.y[test_idx])

    config = trainer.TrainerConfig(C=args.C, tolerance=args.tolerance,
                                   max_passes=args.max_passes)
    model, report = trainer.train_soft_margin(train_ds, config)

    bundle = artifacts.ModelBundle(
        space=space, scaling=scaling, model=model,
        label_column=args.label_column, positive_label=str(args.positive_label),
        split=artifacts.SplitManifest(
            seed=args.seed, train_fraction=args.fraction,
            train_indices=tuple(int(i) for i in train_idx),
            test_indices=tuple(int(i) for i in test_idx),
        ),
        training=report,
    )
    artifacts.save_bundle(args.model, bundle)
    if args.output:
        dataset.save_dataset(args.output, space, scaling, full)

    def accuracy(ds):
        pred = np.where(trainer.decision_values(model, ds.X) > 0.0, 1.0, -1.0)
        return float(np.mean(pred == ds.y))

    print(f"trained on {len(train_ds)} rows, {len(space)} features "
          f"(C={args.C:g}, seed={args.seed})")
    print(f"passes used: {report.passes_used}  converged: {report.converged}  "
          f"dual gap: {report.dual_gap:.3g}")
    if not report.converged:
        print(f"warning: training stopped unconverged (dual gap {report.dual_gap:.3g})",
              file=sys.stderr)
    print(f"primal objective: {report.primal_objective:.6f}")
    print(f"train accuracy: {accuracy(train_ds):.2%}")
    print(f"test accuracy: {accuracy(test_ds):.2%}")
    print(f"model written to {args.model}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    bundle = artifacts.load_bundle(args.model)
    if bundle.label_column is None or bundle.positive_label is None:
        raise dataset.DatasetError(
            "model file has no label metadata; re-train with the CLI or add "
            "label_column/positive_label to the file"
        )
    raw, labels, _ = dataset.load_csv(args.input, bundle.label_column, bundle.positive_label,
                                      features=bundle.space.names)
    scaled, _ = dataset.apply_scaling(raw, bundle.scaling)

    if bundle.split is not None:
        cal_idx = _split_rows(bundle.split.train_indices, scaled.shape[0])
    else:
        cal_idx = np.arange(scaled.shape[0])
    cal_ds = dataset.LabeledDataset(scaled[cal_idx], labels[cal_idx])

    rm, risk = rejector.calibrate(bundle.model, cal_ds, args.wr, args.grid_steps)
    out = bundle.with_reject(rm, risk)
    artifacts.save_bundle(args.output, out)

    scope_idx = _scope_indices(args.scope, scaled.shape[0], bundle)
    metrics = rejector.evaluate(rm, dataset.LabeledDataset(scaled[scope_idx], labels[scope_idx]))
    metrics_path = Path(str(args.output) + ".metrics.json")
    metrics_path.write_text(
        json.dumps({"scope": args.scope, **rejector.metrics_to_json(rm, metrics)},
                   indent=2) + "\n"
    )
    print(f"calibrated on {len(cal_ds)} rows at w_r={args.wr:g} "
          f"(grid index {risk.grid_index}, risk {risk.risk:.6f})")
    print(f"metrics on scope {args.scope!r}:")
    print(rejector.format_metrics_table(rm, metrics))
    print(f"reject model written to {args.output}")
    return EXIT_OK


def _explain_rows(args):
    """Shared explain/bench set-up: one elimination pass over every in-domain
    row of the scope, verified before anything is written.

    A row outside the model's feature domains is an input error, unless
    ``--skip-out-of-domain`` asks to skip it with a warning.  A row that
    fails verification is a bug trap.  Returns the bundle, the raw rows, the
    explained row numbers, the pass, its verification reports and the
    skipped row numbers.
    """
    bundle = artifacts.load_bundle(args.model)
    rm = bundle.reject_model()
    raw, _, _ = dataset.load_csv(args.input, features=bundle.space.names)
    scaled, _ = dataset.apply_scaling(raw, bundle.scaling)
    rows = _scope_indices(args.scope, scaled.shape[0], bundle)
    inside = bundle.space.rows_inside(scaled[rows])
    outside = rows[~inside].tolist()
    if outside and not args.skip_out_of_domain:
        named = ", ".join(str(row) for row in outside[:MAX_NAMED_ROWS])
        more = f" and {len(outside) - MAX_NAMED_ROWS} more" if len(outside) > MAX_NAMED_ROWS else ""
        raise dataset.DatasetError(
            f"{len(outside)} row(s) outside the model's feature domains: {named}{more}; "
            "pass --skip-out-of-domain to skip them"
        )
    for row in outside:
        print(f"warning: row {row} is outside the model's feature domains; skipped",
              file=sys.stderr)
    rows = rows[inside]
    batch = explainer.explain_batch(rm, bundle.space, scaled[rows],
                                    _feature_order(args.order, bundle))
    reports = explainer.verify_batch(rm, bundle.space, batch)
    for row, report in zip(rows.tolist(), reports):
        if not report:
            raise VerificationFailure(
                f"row {row}: explanation failed verification: "
                + "; ".join(report.violations)
            )
    return bundle, raw, rows, batch, reports, outside


def _reprs(values) -> np.ndarray:
    return np.array([repr(v) for v in np.asarray(values, dtype=float).tolist()], dtype=object)


class JsonlWriter:
    """Explanation records of a batch as JSON lines, byte for byte what
    ``json.dumps`` gives for the record, but formatted from cached value
    strings.

    Every witness coordinate is the instance's own value or a box corner, so
    a row formats its n values once and each witness picks strings by its
    free mask; by mask, not by value, because 0.0 and -0.0 print differently.
    The witnesses' classes come from the verification.
    """

    def __init__(self, names, batch):
        self.names = [json.dumps(name) for name in names]
        self.batch = batch
        self.max_corner = _reprs(batch.box.max_corner)
        self.min_corner = _reprs(batch.box.min_corner)

    def line(self, k: int, row: int, raw_row, witness_classes) -> str:
        """The record of the batch's row k, which is input row ``row``."""
        batch, names = self.batch, self.names
        kept, free, at_max = batch.layout(k)
        x = _reprs(batch.instances[k])
        kept_list = kept.tolist()
        kept_part = ", ".join(
            f'{{"feature": {names[i]}, "value": {x[i]}, "raw_value": {r!r}}}'
            for i, r in zip(kept_list, np.asarray(raw_row, dtype=float)[kept].tolist())
        )
        points = explainer.witness_points(free, at_max, x, self.max_corner, self.min_corner)
        witness_part = ", ".join(
            f'{{"feature": {names[i]}, "point": [{", ".join(p)}], "class": {c}}}'
            for i, p, c in zip(kept_list, points.tolist(), np.asarray(witness_classes).tolist())
        )
        removed_part = ", ".join(names[i] for i in np.flatnonzero(batch.removed[k]).tolist())
        return (f'{{"index": {int(row)}, "class": {int(batch.classes[k])}, "kept": [{kept_part}], '
                f'"removed": [{removed_part}], "witnesses": [{witness_part}], '
                f'"time_seconds": {batch.seconds / len(batch)!r}}}\n')


def _per_class_stats(batch) -> dict:
    sizes = (~batch.removed).sum(axis=1)
    out = {}
    for klass in (-1, 0, 1):
        rows = batch.classes == klass
        if not rows.any():
            continue
        size = sizes[rows].astype(float)
        times = np.full(size.size, batch.seconds / len(batch))
        out[klass] = {
            "patterns": int(size.size),
            "size_mean": float(size.mean()),
            "size_std": float(size.std()),
            "time_mean": float(times.mean()),
            "time_std": float(times.std()),
            "queries": int(batch.queries[rows].sum()),
        }
    return out


def _print_stats(stats: dict) -> None:
    label = {-1: "negative", 0: "rejected", 1: "positive"}
    for klass, s in stats.items():
        print(f"{label[klass]}: {s['patterns']} pattern(s), "
              f"size {s['size_mean']:.2f} +- {s['size_std']:.2f}, "
              f"time {s['time_mean'] * 1e3:.3f} +- {s['time_std'] * 1e3:.3f} ms, "
              f"{s['queries']} queries")


def cmd_explain(args) -> int:
    bundle, raw, rows, batch, reports, skipped = _explain_rows(args)
    writer = JsonlWriter(bundle.space.names, batch)
    with Path(args.output).open("w") as fh:
        for k, row in enumerate(rows.tolist()):
            fh.write(writer.line(k, row, raw[row], reports[k].witness_classes))

    stats = _per_class_stats(batch)
    freq = explainer.feature_frequency(batch.classes, batch.removed)
    summary = {
        "patterns": len(batch),
        "skipped_rows": skipped,
        "classes": {str(k): v for k, v in stats.items()},
        "frequency": freq.to_json(bundle.space.names),
    }
    summary_path = Path(str(args.output) + ".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"explained {len(batch)} instance(s); "
          f"{len(skipped)} skipped as out of domain")
    _print_stats(stats)
    if len(batch):
        print(freq.format_text(bundle.space.names))
    print(f"explanations written to {args.output}")
    return EXIT_OK


def cmd_bench(args) -> int:
    bundle, _, _, batch, _, skipped = _explain_rows(args)
    stats = _per_class_stats(batch)
    total_queries = int(batch.queries.sum())
    n = len(bundle.space)
    report = {
        "instances": len(batch),
        "features": n,
        "skipped_rows": skipped,
        "total_queries": total_queries,
        "knife_edge_queries": int(batch.knife_edges.sum()),
        "max_queries_per_instance": int(batch.queries.max(initial=0)),
        "query_budget_per_instance": 2 * n,
        "classes": {str(k): v for k, v in stats.items()},
    }
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"benchmarked {len(batch)} instance(s) over {n} features")
    _print_stats(stats)
    print(f"total feasibility queries: {total_queries} "
          f"(budget {2 * n} per instance)")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "explain": cmd_explain,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (FileNotFoundError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
