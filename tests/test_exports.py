import ast
from pathlib import Path

import svcreject


def test_every_exported_name_resolves():
    for name in svcreject.__all__:
        assert hasattr(svcreject, name), name


def test_exports_are_exactly_the_imported_public_names():
    # a name deleted from a module must not linger in the export list
    tree = ast.parse(Path(svcreject.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(svcreject.__all__) == sorted([*imported, "__version__"])
