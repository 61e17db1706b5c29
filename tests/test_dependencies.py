"""The package runs on the public numpy and scipy APIs alone, so the version
bounds in pyproject.toml are its whole dependency contract: a private module
or name (one whose dotted path has a part starting with an underscore) can
change or vanish in any release."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "topofield").glob("*.py"))
LIBRARIES = ("numpy", "scipy")


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.endswith("__") for part in dotted.split("."))


def private_uses(source: str) -> list[str]:
    """Private numpy or scipy modules and names that ``source`` imports or
    reaches as an attribute of an imported library module."""
    tree = ast.parse(source)
    found = []
    modules = set()  # local names bound to library modules or names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in LIBRARIES:
                    modules.add(alias.asname or alias.name.split(".")[0])
                    if _private(alias.name):
                        found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] in LIBRARIES:
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    modules.add(alias.asname or alias.name)
                    if _private(dotted):
                        found.append(dotted)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(ast.unparse(node))
    return found


def test_checker_catches_private_imports_and_attributes():
    assert private_uses("from scipy.sparse import _sparsetools") == ["scipy.sparse._sparsetools"]
    assert private_uses("import scipy.sparse._sparsetools as k") == ["scipy.sparse._sparsetools"]
    assert private_uses("from numpy._core import multiarray") == ["numpy._core.multiarray"]
    assert private_uses("import scipy.sparse as sp\nsp._sparsetools.csr_matvecs") == [
        "sp._sparsetools"
    ]
    assert private_uses("import numpy as np\nnp.linalg._umath_linalg") == ["np.linalg._umath_linalg"]
    assert private_uses("import numpy as np\nnp.__version__\nnp.zeros(3)") == []
    assert private_uses("from . import _helpers\nx._private") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_use_public_numpy_and_scipy_only(path):
    assert private_uses(path.read_text()) == []
