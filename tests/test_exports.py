import argparse
import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import svcreject
from svcreject import artifacts, cli, dataset, explainer, rejector, trainer

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(svcreject.__file__).parent.glob("*.py"))}


def _loaded(tree) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names a module reads."""
    nodes = list(ast.walk(tree))
    return ({node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)},
            {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def test_every_exported_name_resolves():
    for name in svcreject.__all__:
        assert hasattr(svcreject, name), name


def test_exports_are_exactly_the_imported_public_names():
    # a name deleted from a module must not linger in the export list
    tree = ast.parse(Path(svcreject.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(svcreject.__all__) == sorted([*imported, "__version__"])


def test_single_query_layer_is_gone():
    # the one-query-at-a-time API lives on only as a test reference (oracles.py)
    moved = ("satisfiable", "linear_extrema", "SatResult", "_pinned_extremum",
             "PartialAssignment", "predict", "decision_value")
    for module in (svcreject, artifacts, cli, dataset, explainer, rejector, trainer):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_one_row_layer_is_gone():
    # a one-row explanation is a one-row ExplanationBatch, and verify_batch
    # is the one verifier
    for module in (svcreject, explainer):
        for name in ("Explanation", "minimal_explanation", "verify_explanation"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(explainer.ExplanationBatch, "explanation")


def test_witness_matrix_layer_is_gone():
    # verify_batch estimates each witness's value from prefix sums of swings
    # and builds no witness point; the full layout lives on only as a test
    # referee (oracles.py)
    for module in (svcreject, explainer):
        for name in ("witness_points", "VERIFY_CHUNK_CELLS"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(explainer.ExplanationBatch, "witnesses")


def test_per_row_report_is_gone():
    # verify_batch returns its tables and a dict of the failing rows'
    # messages, and reject_model() tests for the band itself
    for module in (svcreject, explainer):
        assert not hasattr(module, "VerificationReport"), f"{module.__name__}.VerificationReport"
    assert not hasattr(artifacts.ModelBundle, "has_reject_band")


def test_per_field_readers_are_gone():
    # ModelBundle's field annotations are the model-file schema, read by
    # artifacts._typed and written by bundle_to_json; one pass over the
    # classes gives the summary's classes, frequency and table
    for name in ("_record", "_box_to_json", "_box_from_json", "_numbers"):
        assert not hasattr(artifacts, name), name
    for name in ("_per_class_stats", "_frequency"):
        assert not hasattr(cli, name), name
    # the metrics sidecar is the band's ends and vars(EvalMetrics), whose
    # field names are its keys
    assert not hasattr(cli, "_metrics_json")
    counts = {"negative_count", "rejected_count", "positive_count"}
    assert counts.isdisjoint(f.name for f in dataclasses.fields(rejector.EvalMetrics))


def test_formula_layer_is_gone():
    # classes are decided at the box extrema by rejector.band_classes; the
    # atom encoding lives on only as a test reference (oracles.py)
    moved = ("LinearAtom", "RELATIONS", "NEGATED", "prediction_formula", "negate")
    for module in (svcreject, explainer, rejector):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_second_rule_copies_are_gone():
    # box membership is FeatureSpace.rows_inside, and every threshold
    # decision is rejector.band_classes; the atom-relation decide lives on
    # only as a test reference (oracles.py)
    for module in (svcreject, artifacts, cli, dataset, explainer, rejector, trainer):
        for name in ("decide", "_compare", "predictions_with_reject"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("contains", "check_instance"):
        assert not hasattr(dataset.FeatureSpace, name), f"FeatureSpace.{name}"


def test_one_row_predictor_and_second_verifier_formula_are_gone():
    # a one-row prediction is classify(rm, x[None]) (oracles.classify_one),
    # a degenerate grid raises ValueError, calibrate builds its grid and
    # scores its risk in one loop, and verify_batch decides every check from
    # one (rows, n + 1) table per extremum side, with no flat index over the
    # kept cells
    for module in (svcreject, rejector):
        for name in ("predict_with_reject", "DegenerateGridError", "threshold_grid",
                     "empirical_risk"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("_entailment", "_witness_estimates", "_check_order", "_kept_cell", "_per_row"):
        assert not hasattr(explainer, name), f"explainer.{name}"
    # module-level helpers that only their own modules and the tests use
    for name in ("threshold_grid", "empirical_risk", "fit_scaling", "ScalingParams"):
        assert name not in svcreject.__all__, name
        assert not hasattr(svcreject, name), name


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_module_table_lists_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## How it fits together"):]
    table = section[:section.index("\n\n", section.index("| module"))]
    listed = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
    assert sorted(listed) == sorted(set(SOURCES) - {"__init__"})


def test_readme_flag_table_matches_the_parser():
    # a removed subcommand or flag must not linger in the README
    readme = (ROOT / "README.md").read_text()
    start = readme.index("| subcommand")
    table = readme[start:readme.index("\n\n", start)]
    listed = {name: set(re.findall(r"`(--[\w-]+)`", flags))
              for name, flags in re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", table, re.MULTILINE)}
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
              - {"--input", "--model", "--output"} for name, p in sub.choices.items()}
    assert listed == parsed


def test_every_module_level_definition_has_a_reader():
    # a constant, function, class, method or property that no module of the
    # package reads and that __all__ does not export is dead code
    used = set(svcreject.__all__)
    for tree in SOURCES.values():
        used.update(*_loaded(tree))
    defined = []
    for module, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(f"{module}.{target.id}", target.id) for target in targets
                        if isinstance(target, ast.Name) and not target.id.startswith("__")]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{member.name}", member.name)
                            for member in node.body if isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("__")]
    assert [label for label, name in defined if name not in used] == []


def test_every_imported_name_is_used():
    unused = []
    for module, tree in SOURCES.items():
        names, _ = _loaded(tree)
        if module == "__init__":
            names |= set(svcreject.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in imported if name not in names]
    assert unused == []


def test_benchmark_selftest_passes():
    # outputs the benchmark's checks would refuse fail here first
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
