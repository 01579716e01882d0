"""The package interface the benchmark scripts under ``bench/`` rely on.

The benchmark runs outside the test suite, so a rename in ``cradmm`` would
only show when it runs; these checks catch that here, in about a second.
"""

import ast
import os
import time
import types
from pathlib import Path
from unittest import mock

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


@pytest.mark.parametrize("script", ["layers.py", "run.py", "selftest.py"])
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


def test_traced_pass_runs_on_a_tiny_workload(tmp_path, monkeypatch):
    # the traced pass reads names the untraced runs never touch: SensingMatrix.entries,
    # Scene.reflectivity, Measurement.g, engine.block_solvers, update_u, workers= and write_trace_csv
    monkeypatch.syspath_prepend(str(BENCH))
    with mock.patch.dict(os.environ):  # bench/run.py sets the *_NUM_THREADS variables as it is imported
        import harness
        import layers
        from run import Run
        from selftest import TINY
        from workloads import Workload

    workload = Workload("desk-sweep", **TINY, admm_iters=5, fista_iters=5,
                        sweep={"lambda": [1e-4], "rho": [1.0, 10.0]})
    run = Run(workload, seed=3, work=tmp_path / "run", deadline=time.monotonic() + 120.0)
    n_points, shape = layers.layer_pass(run, harness.Tracer(trace_id="t", enabled=False))
    assert (n_points, shape) == (2, (33, 72))
    assert run.checks.attempted > 0 and run.checks.failed == 0, run.checks.failures
    assert (run.out / "trace.csv").is_file()
