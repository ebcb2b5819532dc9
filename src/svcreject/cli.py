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
LABELS = {-1: "negative", 0: "rejected", 1: "positive"}


class VerificationFailure(RuntimeError):
    """An emitted explanation failed re-verification; treated as a bug trap."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svcreject",
        description="Train a linear SVC, calibrate a reject band, and compute "
                    "provably minimal per-instance explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def files(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV file (header row, comma separated)")
        p.add_argument("--model", required=True, help="model JSON file")

    def scope(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scope", choices=("train", "test", "all"), default="all",
                       help="which rows of --input to use (needs the split "
                            "manifest for train/test)")

    p_train = sub.add_parser("train", help="fit a soft-margin linear SVC from a CSV")
    files(p_train)
    p_train.add_argument("--label-column", required=True)
    p_train.add_argument("--positive-label", required=True,
                         help="label value mapped to +1; all others map to -1")
    p_train.add_argument("--seed", type=int, default=0,
                         help="seed of the stratified split (default 0)")
    p_train.add_argument("--C", dest="C", type=float, default=1.0,
                         help="soft-margin trade-off (default 1.0)")
    p_train.add_argument("--fraction", type=float, default=0.7,
                         help="train fraction for the stratified split (default 0.7)")
    p_train.add_argument("--tolerance", type=float, default=1e-6,
                         help="stop when the maximal violating pair's gap over all "
                              "training rows is at most this (default 1e-6)")
    p_train.add_argument("--max-passes", type=int, default=10_000,
                         help="budget of single pair updates (default 10,000)")

    p_calibrate = sub.add_parser("calibrate", help="fit the reject band on training rows")
    files(p_calibrate)
    p_calibrate.add_argument("--output", required=True, help="reject model file to write")
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
        files(p)
        p.add_argument("--output", required=name == "explain", help=output_help)
        scope(p)
        p.add_argument("--order", choices=("ascending", "descending-weight", "lex"),
                       default="ascending", help="feature elimination order")
        p.add_argument("--skip-out-of-domain", action="store_true",
                       help="skip rows outside the model's feature domains instead "
                            "of exiting 2")
    return parser


def _scope_indices(scope: str, n_rows: int, bundle: artifacts.ModelBundle) -> np.ndarray:
    """The input's row numbers in ``scope``; train and test come from the
    split manifest, each checked to be a row of the input."""
    if scope == "all":
        return np.arange(n_rows)
    if bundle.split is None:
        raise dataset.DatasetError(
            f"--scope {scope} needs a model file with a split manifest"
        )
    split = bundle.split
    idx = np.asarray(split.train_indices if scope == "train" else split.test_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise dataset.DatasetError(
            f"split manifest indices fall outside the input's {n_rows} rows; "
            "pass the CSV the model was trained on"
        )
    return idx


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

    no_band = rejector.RejectModel(model, 0.0, 0.0, 1.0)

    print(f"trained on {len(train_ds)} rows, {len(space)} features "
          f"(C={args.C:g}, seed={args.seed})")
    print(f"passes used: {report.passes_used}  converged: {report.converged}  "
          f"dual gap: {report.dual_gap:.3g}")
    if not report.converged:
        print(f"warning: training stopped unconverged (dual gap {report.dual_gap:.3g})",
              file=sys.stderr)
    print(f"primal objective: {report.primal_objective:.6f}")
    print(f"train accuracy: {rejector.evaluate(no_band, train_ds).accuracy_without_reject:.2%}")
    print(f"test accuracy: {rejector.evaluate(no_band, test_ds).accuracy_without_reject:.2%}")
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
    scaled = dataset.apply_scaling(raw, bundle.scaling)

    cal_idx = _scope_indices("all" if bundle.split is None else "train", scaled.shape[0], bundle)
    _rows_in_box(bundle, scaled, cal_idx)
    scope_idx, _ = _rows_in_box(bundle, scaled, _scope_indices(args.scope, scaled.shape[0], bundle))
    cal_ds = dataset.LabeledDataset(scaled[cal_idx], labels[cal_idx])

    rm, risk = rejector.calibrate(bundle.model, cal_ds, args.wr, args.grid_steps)
    out = bundle.with_reject(rm, risk)
    artifacts.save_bundle(args.output, out)

    metrics = rejector.evaluate(rm, dataset.LabeledDataset(scaled[scope_idx], labels[scope_idx]))
    doc = _metrics_json(rm, metrics)
    metrics_path = Path(str(args.output) + ".metrics.json")
    metrics_path.write_text(json.dumps({"scope": args.scope, **doc}, indent=2) + "\n")
    print(f"calibrated on {len(cal_ds)} rows at w_r={args.wr:g} "
          f"(grid index {risk.grid_index}, risk {risk.risk:.6f})")
    print(f"metrics on scope {args.scope!r}:")
    print(_metrics_table(doc))
    print(f"reject model written to {args.output}")
    return EXIT_OK


def _table(headers, rows) -> str:
    """Right-aligned columns separated by two spaces, headers first."""
    lines = [headers, *rows]
    widths = [max(len(cell) for cell in column) for column in zip(*lines)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths))
                     for line in lines)


def _metrics_json(rm: rejector.RejectModel, metrics: rejector.EvalMetrics) -> dict:
    return {
        "t_minus": rm.t_minus,
        "t_plus": rm.t_plus,
        "accuracy_without_reject": metrics.accuracy_without_reject,
        "accuracy_with_reject": metrics.accuracy_with_reject,
        "rejection_ratio": metrics.rejection_ratio,
        "negative": metrics.negative_count,
        "rejected": metrics.rejected_count,
        "positive": metrics.positive_count,
    }


def _metrics_table(doc: dict) -> str:
    """The text table of ``_metrics_json``'s dict, one column per key in its
    order; an accuracy of None reads n/a."""
    headers = ["t_minus", "t_plus", "acc w/o reject", "acc w/ reject",
               "rejection", "negative", "rejected", "positive"]
    formats = ["{:.4f}", "{:.4f}", "{:.2%}", "{:.2%}", "{:.2%}", "{}", "{}", "{}"]
    return _table(headers, [["n/a" if value is None else form.format(value)
                             for form, value in zip(formats, doc.values())]])


def _rows_in_box(bundle: artifacts.ModelBundle, scaled, rows, skip=False, hint=""):
    """The selected ``rows`` of ``scaled`` that lie in the model's feature
    box (``FeatureSpace.rows_inside``), and the row numbers outside it.

    A row outside is an input error whose message names at most
    ``MAX_NAMED_ROWS`` rows, counts the rest and ends with ``hint``; with
    ``skip`` it is skipped with a warning instead.
    """
    inside = bundle.space.rows_inside(scaled[rows])
    outside = rows[~inside].tolist()
    if outside and not skip:
        named = ", ".join(str(row) for row in outside[:MAX_NAMED_ROWS])
        more = f" and {len(outside) - MAX_NAMED_ROWS} more" if len(outside) > MAX_NAMED_ROWS else ""
        raise dataset.DatasetError(
            f"{len(outside)} row(s) outside the model's feature domains: {named}{more}{hint}")
    for row in outside:
        print(f"warning: row {row} is outside the model's feature domains; skipped",
              file=sys.stderr)
    return rows[inside], outside


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
    scaled = dataset.apply_scaling(raw, bundle.scaling)
    rows, outside = _rows_in_box(
        bundle, scaled, _scope_indices(args.scope, scaled.shape[0], bundle),
        args.skip_out_of_domain, "; pass --skip-out-of-domain to skip them")
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

    A record holds |kept|·n coordinates, megabytes on a wide row, so it is
    produced in pieces of at most ``block_cells`` witness coordinates
    (about 80 KB of text).  Whole-record temporaries would each be mapped
    and unmapped by the allocator, and the page faults cost as much as the
    formatting.
    """

    block_cells = 4096

    def __init__(self, names, batch):
        self.names = [json.dumps(name) for name in names]
        self.batch = batch
        self.max_corner = _reprs(batch.box.max_corner)
        self.min_corner = _reprs(batch.box.min_corner)

    def pieces(self, k: int, row: int, raw_row, witness_classes):
        """The record of the batch's row k, which is input row ``row``, as
        consecutive strings for ``writelines``."""
        batch, names = self.batch, self.names
        _, kept, free, at_max = batch.witnesses(k, k + 1)
        x = _reprs(batch.instances[k])
        kept_list = kept.tolist()
        kept_part = ", ".join(
            f'{{"feature": {names[i]}, "value": {x[i]}, "raw_value": {r!r}}}'
            for i, r in zip(kept_list, np.asarray(raw_row, dtype=float)[kept].tolist())
        )
        removed_part = ", ".join(names[i] for i in np.flatnonzero(batch.removed[k]).tolist())
        yield (f'{{"index": {int(row)}, "class": {int(batch.classes[k])}, "kept": [{kept_part}], '
               f'"removed": [{removed_part}], "witnesses": [')
        classes = np.asarray(witness_classes).tolist()
        step = max(1, self.block_cells // max(1, x.size))
        for start in range(0, len(kept_list), step):
            stop = start + step
            points = explainer.witness_points(free[start:stop], at_max[start:stop], x,
                                              self.max_corner, self.min_corner)
            if start:
                yield ", "
            yield ", ".join(
                f'{{"feature": {names[i]}, "point": [{", ".join(p)}], "class": {c}}}'
                for i, p, c in zip(kept_list[start:stop], points.tolist(), classes[start:stop])
            )
        yield f'], "time_seconds": {batch.seconds / len(batch)!r}}}\n'


def _per_class_stats(batch) -> dict:
    sizes = (~batch.removed).sum(axis=1)
    out = {}
    for klass in (-1, 0, 1):
        rows = batch.classes == klass
        if not rows.any():
            continue
        size = sizes[rows].astype(float)
        out[klass] = {
            "patterns": int(size.size),
            "size_mean": float(size.mean()),
            "size_std": float(size.std()),
            "queries": int(batch.queries[rows].sum()),
        }
    return out


def _print_stats(stats: dict, seconds: float) -> None:
    for klass, s in stats.items():
        print(f"{LABELS[klass]}: {s['patterns']} pattern(s), "
              f"size {s['size_mean']:.2f} +- {s['size_std']:.2f}, "
              f"{s['queries']} queries")
    print(f"explanation pass: {seconds * 1e3:.3f} ms")


def _frequency(classes, removed, names) -> tuple[dict, str]:
    """Per predicted class, how many rows keep each feature and how many rows
    there are: the summary's ``frequency`` dict and its text table."""
    kept = ~removed
    freq = {}
    for klass in (-1, 0, 1):
        rows = classes == klass
        if rows.any():
            freq[str(klass)] = {"counts": dict(zip(names, kept[rows].sum(axis=0).tolist())),
                                "patterns": int(rows.sum())}
    table = _table(["class", *names, "patterns"],
                   [[LABELS[int(k)], *map(str, c["counts"].values()), str(c["patterns"])]
                    for k, c in freq.items()])
    return {"classes": freq}, table


def cmd_explain(args) -> int:
    bundle, raw, rows, batch, reports, skipped = _explain_rows(args)
    writer = JsonlWriter(bundle.space.names, batch)
    with Path(args.output).open("w") as fh:
        for k, row in enumerate(rows.tolist()):
            fh.writelines(writer.pieces(k, row, raw[row], reports[k].witness_classes))

    stats = _per_class_stats(batch)
    frequency, table = _frequency(batch.classes, batch.removed, bundle.space.names)
    summary = {
        "patterns": len(batch),
        "skipped_rows": skipped,
        "seconds": batch.seconds,
        "classes": {str(k): v for k, v in stats.items()},
        "frequency": frequency,
    }
    summary_path = Path(str(args.output) + ".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"explained {len(batch)} instance(s); "
          f"{len(skipped)} skipped as out of domain")
    _print_stats(stats, batch.seconds)
    if len(batch):
        print(table)
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
        "seconds": batch.seconds,
        "total_queries": total_queries,
        "knife_edge_queries": int(batch.knife_edges.sum()),
        "max_queries_per_instance": int(batch.queries.max(initial=0)),
        "query_budget_per_instance": 2 * n,
        "classes": {str(k): v for k, v in stats.items()},
    }
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"benchmarked {len(batch)} instance(s) over {n} features")
    _print_stats(stats, batch.seconds)
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
