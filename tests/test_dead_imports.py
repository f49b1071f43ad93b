"""Every name a ``from … import`` binds is read in the file that imports it.

The scan covers ``src/entprobe``, the demos and the test modules.  The package
``__init__.py`` is the one exception: the names it imports from its own
modules are its exports, read by the package's users.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [
    *sorted((ROOT / "src" / "entprobe").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "tests").glob("test_*.py")),
]


def unread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        if path.name == "__init__.py" and node.level > 0:
            continue
        bound += [alias.asname or alias.name for alias in node.names]
    return [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in read]


def test_every_from_import_is_read():
    assert len(SCANNED) > 20
    assert [entry for path in SCANNED for entry in unread_imports(path)] == []
