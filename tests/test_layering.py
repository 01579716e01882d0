"""What the solvers share lives in ``linop``, so no solver module imports another.

ADMM (``admm``) and FISTA (``baselines``) run through one loop, write one kind
of record and are judged by one certificate; ``fileio`` reads and writes those
records. Each of these names is defined once, in ``linop``, and neither
``baselines`` nor ``fileio`` imports ``admm``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cradmm"
SHARED = ("run_iterations", "IterationRecord", "ConvergenceTrace", "lasso_objective", "evaluate_objective",
          "KktReport", "check_lasso_kkt")


def imported_modules(path):
    """Every cradmm module a source file imports, by its name inside the package, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "cradmm":
                continue
            inside = module.removeprefix("cradmm").lstrip(".") if node.level == 0 else module
            # ``from . import admm`` and ``from cradmm import admm`` name the module in the import list
            found.update([inside] if inside else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("cradmm.") for alias in node.names
                         if alias.name.startswith("cradmm."))
    return found


def defined_names(path):
    """Every function and class name a source file defines, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("module", ["baselines.py", "fileio.py"])
def test_does_not_import_admm(module):
    imports = imported_modules(SRC / module)
    assert imports, f"no cradmm import found in {module}"
    assert "admm" not in imports, f"{module} imports admm"


@pytest.mark.parametrize("name", SHARED)
def test_shared_name_is_defined_only_in_linop(name):
    homes = [path.name for path in sorted(SRC.glob("*.py")) if name in defined_names(path)]
    assert homes == ["linop.py"], f"{name} is defined in {homes}"
