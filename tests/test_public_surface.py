"""Every name that ``entprobe`` exports has a caller outside the tests.

A caller is a read of the name, bare or as an attribute, in another module of
``src/entprobe`` (the CLI included), a demo, the acceptance suite or the
benchmark.  A name that only tests read belongs in ``tests/_helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entprobe"
CALLERS = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def read_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    exported = exported_names()
    assert {"tmsv_state", "ppt_separability", "eig_unitary"} <= exported
    read = set().union(*map(read_names, CALLERS))
    assert sorted(exported - read) == []
