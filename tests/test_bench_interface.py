"""The package interface the benchmark scripts under ``bench/`` rely on.

The benchmark runs outside the test suite, so a rename in ``cradmm`` would
only show when it runs; these checks catch that here, in a fraction of a
second.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest

import cradmm
from conftest import rand_complex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def imported_names(path):
    """Every name a script imports with ``from cradmm import ...``, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cradmm" and node.level == 0
        for alias in node.names
    )


@pytest.mark.parametrize("script", ["layers.py", "run.py"])
def test_benchmark_imports_are_exported(script):
    names = imported_names(BENCH / script)
    assert names, f"no `from cradmm import` in bench/{script}"
    for name in names:
        value = getattr(cradmm, name, None)
        assert value is not None, f"bench/{script} imports {name!r}, which cradmm does not export"
        assert isinstance(value, types.ModuleType) or name in cradmm.__all__, name


def test_every_export_resolves():
    missing = [name for name in cradmm.__all__ if not hasattr(cradmm, name)]
    assert not missing, f"cradmm.__all__ names {missing}, which cradmm does not define"


def test_solver_builds_with_workers_and_exposes_block_solvers(rng):
    h = rand_complex(rng, 9, 20)
    g = rand_complex(rng, 9)
    params = cradmm.AdmmParams(lam=0.1, rho=1.0, max_iter=3, eps_abs=0.0, eps_rel=0.0)
    engine = cradmm.ConsensusLassoSolver(h, g, params, 3, workers=1)
    assert len(engine.block_solvers) == 3
    assert all(isinstance(solver, cradmm.BlockSolver) for solver in engine.block_solvers)
    v, trace, _ = engine.run()
    assert len(trace) == 3 and np.all(np.isfinite(v))
