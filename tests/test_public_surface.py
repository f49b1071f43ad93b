"""Every name that ``entprobe`` exports has a caller outside the tests, and
every dotted ``entprobe.`` name that README.md gives exists.

A caller is a read of the name, bare or as an attribute, in another module of
``src/entprobe`` (the CLI included), a demo, the acceptance suite or the
benchmark.  A name that only tests read belongs in ``tests/_helpers.py``.
"""

import ast
import importlib
import re
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


def resolve(dotted: str):
    """The object a dotted name reaches: each part an attribute of the last, or else a
    submodule that the package does not import itself, such as ``entprobe.cli``."""
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        try:
            target = getattr(target, name)
        except AttributeError:
            target = importlib.import_module(".".join(parts[:i]))
    return target


def test_every_dotted_name_in_the_readme_resolves():
    dotted = sorted(set(re.findall(r"\bentprobe(?:\.\w+)+", (ROOT / "README.md").read_text())))
    assert {"entprobe.epr_heterodyne", "entprobe.cli.MAX_WH_GROUP_DIM"} <= set(dotted)
    missing = []
    for name in dotted:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
