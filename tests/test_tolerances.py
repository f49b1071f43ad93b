"""Guards for the one tolerance table at the top of ``entprobe.linops``.

Every numeric threshold of the library is a named constant in that table:
no other float literal of magnitude at most 1e-5 appears in
``src/entprobe``, no function takes a tolerance parameter, and the README
lists every constant with its value.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import entprobe
from entprobe import discrim, linops

PACKAGE = Path(entprobe.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
TOLERANCE_PARAMETERS = {"atol", "rtol", "tol", "base"}
NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def table_assignments(tree: ast.Module) -> list:
    """The table: the module-level ``NAME = <float literal>`` statements of linops.py."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]


def table() -> dict:
    return {node.targets[0].id: node.value.value for node in table_assignments(parse("linops.py"))}


def test_table_holds_the_library_thresholds():
    names = table()
    assert {"RANK_RTOL", "UNITARY_ATOL", "PHASE_DEDUPE_TOL", "PRIOR_SUM_ATOL"} <= set(names)
    for name, value in names.items():
        assert getattr(linops, name) == value
    assert discrim.PHASE_DEDUPE_TOL is linops.PHASE_DEDUPE_TOL


def test_no_bare_tolerance_literals():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path.name)
        in_table = {id(node.value) for node in table_assignments(tree) if path.name == "linops.py"}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-5
                and id(node) not in in_table
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def _functions(module):
    """Every function and method defined in ``module``, with a qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_tolerance_parameters():
    modules = [
        importlib.import_module(f"entprobe.{info.name}")
        for info in pkgutil.iter_modules(entprobe.__path__)
    ]
    assert {"entprobe.linops", "entprobe.discrim", "entprobe.cli"} <= {m.__name__ for m in modules}
    found = [
        f"{name}({param})"
        for module in modules
        for name, fn in _functions(module)
        for param in inspect.signature(fn).parameters
        if param in TOLERANCE_PARAMETERS
    ]
    assert found == []


def test_readme_lists_every_constant_with_its_value():
    lines = README.read_text().splitlines()
    missing = []
    for name, value in table().items():
        rows = [line for line in lines if f"`{name}`" in line]
        if not any(float(tok) == value for row in rows for tok in NUMBER.findall(row)):
            missing.append(f"{name} = {value!r}")
    assert missing == []


def test_readme_lists_no_constant_outside_the_table():
    rows = re.findall(r"^\| `([A-Z_]+)` \|", README.read_text(), flags=re.MULTILINE)
    assert rows and sorted(set(rows) - set(table())) == []
