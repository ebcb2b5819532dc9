import ast
from pathlib import Path

import svcreject
from svcreject import artifacts, cli, dataset, explainer, feasibility, rejector, trainer


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
    for module in (svcreject, artifacts, cli, dataset, explainer, feasibility, rejector, trainer):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_formula_layer_is_gone():
    # classes are decided at the box extrema by rejector.band_classes; the
    # atom encoding lives on only as a test reference (oracles.py)
    moved = ("LinearAtom", "RELATIONS", "NEGATED", "prediction_formula", "negate")
    for module in (svcreject, explainer, feasibility):
        for name in moved:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
