"""The closed-form layers stay free of dense linear algebra.

``gauss`` holds each probe as a few floats and reads every quantity off a
closed form, and ``mc`` reads its laws and thresholds off ``gauss`` and
``discrim``.  Neither reads anything under ``numpy.linalg``: dense checks and
eigensolves belong in ``linops``, ``discrim`` or, as oracles, in the tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entprobe"


def linalg_reads(source: str) -> list:
    """Every line that reads ``linalg`` as an attribute or imports ``numpy.linalg``, or any
    name from it, under whatever alias."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(node.lineno)
        elif isinstance(node, ast.Import) and any("linalg" in alias.name for alias in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            "linalg" in (node.module or "") or any(alias.name == "linalg" for alias in node.names)
        ):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", ["gauss.py", "mc.py"])
def test_no_dense_linear_algebra(module):
    assert linalg_reads((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.eigvalsh(a)\n",
        "import numpy\nnumpy.linalg.cholesky(a)\n",
        "from numpy import linalg\n",
        "from numpy.linalg import cholesky\n",
        "import numpy.linalg as la\n",
        "import scipy.linalg\n",
    ],
)
def test_the_guard_sees_every_spelling(source):
    assert linalg_reads(source) != []
