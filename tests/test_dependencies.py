"""The package runs on the public numpy and scipy APIs alone, so the version
bounds in pyproject.toml are its whole dependency contract: a private module
or name (one whose dotted path has a part starting with an underscore) can
change or vanish in any release.

Inside the package, the differentiation engine stays generic (``autodiff``
imports no other module of it) and the gradient oracles stay independent (no
module of the package, its root included, imports ``oracle``)."""

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


def package_imports(source: str) -> set[str]:
    """Modules of the ``topofield`` package that ``source``, a module inside
    it, imports; the package root counts as ``__init__``."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["topofield" if node.level else "", node.module]))
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in dotted]
    return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "topofield"}


def test_package_import_checker():
    assert package_imports("from . import autodiff as ad\nfrom .fea import x") == {"autodiff", "fea"}
    assert package_imports("import topofield.oracle\nfrom topofield import cli") == {"oracle", "cli"}
    assert package_imports("import topofield\nimport numpy as np") == {"__init__"}
    assert package_imports("from __future__ import annotations\nimport math") == set()


def test_autodiff_imports_no_package_module():
    assert package_imports((SOURCES[0].parent / "autodiff.py").read_text()) == set()


def test_no_package_module_imports_the_oracles():
    importers = {p.name for p in SOURCES if "oracle" in package_imports(p.read_text())}
    assert importers == set()
