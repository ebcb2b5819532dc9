"""Command-line pipeline: train, calibrate, explain.

Models are plain JSON files, so externally supplied weights can be explained
without retraining.  Exit codes: 0 success, 1 internal verification failure,
2 input/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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

    p_explain = sub.add_parser("explain", help="verified minimal explanation per instance")
    files(p_explain)
    p_explain.add_argument("--output", help="JSONL file to write (default: write nothing)")
    scope(p_explain)
    p_explain.add_argument("--order", choices=("ascending", "descending-weight", "lex"),
                           default="ascending", help="feature elimination order")
    p_explain.add_argument("--skip-out-of-domain", action="store_true",
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
    _rows_in_box(bundle, scaled[cal_idx], cal_idx)
    scope_idx = _scope_indices(args.scope, scaled.shape[0], bundle)
    _rows_in_box(bundle, scaled[scope_idx], scope_idx)
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
    """Which of the input rows ``rows``, with scaled values ``scaled`` (one
    row each), lie in the model's feature box (``FeatureSpace.rows_inside``):
    the mask, and the row numbers outside it.

    A row outside is an input error whose message names at most
    ``MAX_NAMED_ROWS`` rows, counts the rest and ends with ``hint``; with
    ``skip`` it is skipped with a warning instead.
    """
    inside = bundle.space.rows_inside(scaled)
    outside = rows[~inside].tolist()
    if outside and not skip:
        named = ", ".join(str(row) for row in outside[:MAX_NAMED_ROWS])
        more = f" and {len(outside) - MAX_NAMED_ROWS} more" if len(outside) > MAX_NAMED_ROWS else ""
        raise dataset.DatasetError(
            f"{len(outside)} row(s) outside the model's feature domains: {named}{more}{hint}")
    for row in outside:
        print(f"warning: row {row} is outside the model's feature domains; skipped",
              file=sys.stderr)
    return inside, outside


# witness coordinates that one string of the JSONL holds at most, unless
# one point alone holds more
BLOCK_CELLS = 4096


def _jsonl_pieces(names, batch, rows, raw, reports):
    """The explanation records of ``batch`` as JSON lines, byte for byte
    what ``json.dumps`` gives for each record, as consecutive strings for
    ``writelines``.  Batch row k is input row ``rows[k]``, with raw values
    ``raw[rows[k]]``; its witnesses' classes come from ``reports[k]``.

    Every witness coordinate is the instance's own value or a box corner,
    so a row keeps one list of coordinate texts per extremum side and walks
    the features once in elimination order: a removed feature moves to its
    corner in both lists, and a kept feature's witness is its side's list
    joined with its own coordinate at the corner.  That is
    ``ExplanationBatch``'s freeing rule, with each coordinate copied once per
    witness (by mask, not by value, because 0.0 and -0.0 print differently).

    A record holds |kept|·n coordinates, megabytes on a wide row, so a
    string yielded holds at most ``BLOCK_CELLS`` witness coordinates, or one
    point, beside the rows' other fields.  A row's witness texts are held
    until the row is written.
    """
    if not len(batch):
        return
    n = len(names)
    quoted = [json.dumps(name) for name in names]
    ends = [", "] * (n - 1) + [""]   # the text after each coordinate of a point
    # each feature's corner on the minimum side, then on the maximum side
    corners = tuple([repr(v) + end for v, end in zip(corner.tolist(), ends)]
                    for corner in (batch.box.min_corner, batch.box.max_corner))
    openers = [f'{{"feature": {q}, "point": [' for q in quoted]
    closers = {c: f'], "class": {c}}}' for c in (-1, 0, 1)}
    elimination = np.argsort(batch.position).tolist()
    trailer = f'], "time_seconds": {batch.seconds / len(batch)!r}}}\n'
    text, held = [], 0
    for row, klass, x, removed, at_max, report in zip(
            rows.tolist(), batch.classes.tolist(), batch.instances, batch.removed,
            batch.at_max, reports):
        removed, at_max, raw_row = removed.tolist(), at_max.tolist(), raw[row].tolist()
        plain = [repr(v) for v in x.tolist()]
        own = [v + end for v, end in zip(plain, ends)]
        sides = (own[:], own[:])
        points = {}
        for i in elimination:
            if removed[i]:
                sides[0][i], sides[1][i] = corners[0][i], corners[1][i]
                continue
            side = sides[at_max[i]]
            side[i] = corners[at_max[i]][i]
            points[i] = "".join(side)
            side[i] = own[i]
        kept = sorted(points)
        kept_part = ", ".join([f'{{"feature": {quoted[i]}, "value": {plain[i]}, '
                               f'"raw_value": {raw_row[i]!r}}}' for i in kept])
        removed_part = ", ".join([quoted[i] for i in range(n) if removed[i]])
        text.append(f'{{"index": {row}, "class": {klass}, "kept": [{kept_part}], '
                    f'"removed": [{removed_part}], "witnesses": [')
        for t, (i, c) in enumerate(zip(kept, report.witness_classes.tolist())):
            if held and held + n > BLOCK_CELLS:
                yield "".join(text)
                text, held = [], 0
            text += ((", " if t else "") + openers[i], points[i], closers[c])
            held += n
        text.append(trailer)
    yield "".join(text)


def _class_summary(classes, removed, queries, names) -> tuple[dict, dict, str]:
    """Per predicted class, keyed as a string: the summary's ``classes`` dict
    (rows, explanation size, queries), its ``frequency`` dict (rows keeping
    each feature) and the frequency table."""
    kept = ~removed
    stats, freq = {}, {}
    for klass in (-1, 0, 1):
        rows = classes == klass
        if not rows.any():
            continue
        size = kept[rows].sum(axis=1).astype(float)
        stats[str(klass)] = {"patterns": size.size, "size_mean": float(size.mean()),
                             "size_std": float(size.std()), "queries": int(queries[rows].sum())}
        freq[str(klass)] = {"counts": dict(zip(names, kept[rows].sum(axis=0).tolist())),
                            "patterns": size.size}
    table = _table(["class", *names, "patterns"],
                   [[LABELS[int(k)], *map(str, c["counts"].values()), str(c["patterns"])]
                    for k, c in freq.items()])
    return stats, {"classes": freq}, table


def cmd_explain(args) -> int:
    """One elimination pass over every in-domain row of the scope, verified
    before anything is written; with ``--output``, the JSONL and its summary.

    Every row of the CSV is parsed, and so validated; only the scope's rows
    are scaled.  A row outside the model's feature domains is an input
    error, unless ``--skip-out-of-domain`` asks to skip it with a warning.
    A row that fails verification is a bug trap.
    """
    started = time.perf_counter()
    bundle = artifacts.load_bundle(args.model)
    rm = bundle.reject_model()
    raw, _, _ = dataset.load_csv(args.input, features=bundle.space.names)
    scope = _scope_indices(args.scope, raw.shape[0], bundle)
    scaled = dataset.apply_scaling(raw[scope], bundle.scaling)
    loaded = time.perf_counter()
    inside, skipped = _rows_in_box(bundle, scaled, scope, args.skip_out_of_domain,
                                   "; pass --skip-out-of-domain to skip them")
    rows = scope[inside]
    boxed = time.perf_counter()
    batch = explainer.explain_batch(rm, bundle.space, scaled[inside],
                                    _feature_order(args.order, bundle))
    explained = time.perf_counter()
    reports = explainer.verify_batch(rm, bundle.space, batch)
    for row, report in zip(rows.tolist(), reports):
        if not report:
            raise VerificationFailure(
                f"row {row}: explanation failed verification: "
                + "; ".join(report.violations)
            )
    verified = time.perf_counter()

    stats, frequency, table = _class_summary(batch.classes, batch.removed, batch.queries,
                                             bundle.space.names)
    n = len(bundle.space)
    if args.output:
        writing = time.perf_counter()
        with Path(args.output).open("w") as fh:
            fh.writelines(_jsonl_pieces(bundle.space.names, batch, rows, raw, reports))
        stage_seconds = {"load": loaded - started, "box_check": boxed - loaded,
                         "explain": explained - boxed, "verify": verified - explained,
                         "write": time.perf_counter() - writing}
        summary = {
            "patterns": len(batch),
            "features": n,
            "skipped_rows": skipped,
            "seconds": batch.seconds,
            "knife_edge_queries": int(batch.knife_edges.sum()),
            "max_queries_per_instance": int(batch.queries.max(initial=0)),
            "query_budget_per_instance": 2 * n,
            "classes": stats,
            "frequency": frequency,
            "run": {"stage_seconds": stage_seconds, "out_of_box_rows": len(skipped),
                    "verify_knife_edges": sum(report.knife_edges for report in reports)},
        }
        summary_path = Path(str(args.output) + ".summary.json")
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"explained {len(batch)} instance(s); "
          f"{len(skipped)} skipped as out of domain")
    for klass, s in stats.items():
        print(f"{LABELS[int(klass)]}: {s['patterns']} pattern(s), "
              f"size {s['size_mean']:.2f} +- {s['size_std']:.2f}, "
              f"{s['queries']} queries")
    print(f"explanation pass: {batch.seconds * 1e3:.3f} ms")
    print(f"total feasibility queries: {int(batch.queries.sum())} "
          f"(budget {2 * n} per instance)")
    if len(batch):
        print(table)
    if args.output:
        print(f"explanations written to {args.output}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "explain": cmd_explain,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
