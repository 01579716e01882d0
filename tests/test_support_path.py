"""ADMM and FISTA with the support-aware forward product (``linop.SupportForward``).

Setting ``SPARSE_FRACTION`` to 1 sends every product down the support path;
setting it past n sends every product with a nonzero iterate to the dense
H @ x. Both solvers must give the same estimates either way, and the default
in between.
"""

from dataclasses import astuple

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import AdmmParams, ConsensusLassoSolver, ConsensusSetup, solve_fista
from cradmm import linop

N_BLOCKS = 4


@pytest.fixture
def sparse_problem(rng):
    """A 24 x 960 lasso whose solution has a few nonzero entries."""
    h = rand_complex(rng, 24, 960)
    u = np.zeros(960, dtype=complex)
    u[rng.choice(960, 6, replace=False)] = rand_complex(rng, 6)
    g = h @ u + 0.01 * rand_complex(rng, 24)
    lam = 0.02 * float(np.max(np.abs(h.conj().T @ g)))
    return h, g, lam


def admm_solver(h, g, lam, max_iter=200):
    params = AdmmParams(lam=lam, rho=1.0, max_iter=max_iter, eps_abs=0.0, eps_rel=0.0)
    return ConsensusLassoSolver(h, g, params, N_BLOCKS)


def run_admm(h, g, lam, max_iter=200):
    return admm_solver(h, g, lam, max_iter).run()


def run_fista(h, g, lam, max_iter=300):
    return solve_fista(h, g, lam, max_iter=max_iter, tol=0.0)


@pytest.mark.parametrize("solve", [run_admm, run_fista], ids=["admm", "fista"])
def test_support_path_matches_dense_products(sparse_problem, monkeypatch, solve):
    h, g, lam = sparse_problem
    default = solve(h, g, lam)
    assert 0 < default[1].sparse_forward_iters <= len(default[1])
    monkeypatch.setattr(linop, "SPARSE_FRACTION", 10**9)
    dense = solve(h, g, lam)
    assert dense[1].sparse_forward_iters < default[1].sparse_forward_iters
    monkeypatch.setattr(linop, "SPARSE_FRACTION", 1)
    sparse = solve(h, g, lam)
    assert sparse[1].sparse_forward_iters == len(sparse[1])
    for got in (default[0], sparse[0]):
        assert np.linalg.norm(got - dense[0]) <= 1e-12 * np.linalg.norm(dense[0])
    objectives = dense[1].column("objective")
    for trace in (default[1], sparse[1]):
        np.testing.assert_allclose(trace.column("objective"), objectives, rtol=1e-12)


@pytest.mark.parametrize("solve", [lambda *a: admm_solver(*a).run, lambda *a: lambda: run_fista(*a)],
                         ids=["admm", "fista"])
def test_repeat_runs_are_bit_identical(sparse_problem, solve):
    # two runs of one solver: the second does not start from the first one's gathered columns
    h, g, lam = sparse_problem
    run = solve(h, g, lam)
    (x1, t1, *_), (x2, t2, *_) = run(), run()
    assert t1.sparse_forward_iters > 0
    assert x1.tobytes() == x2.tobytes()
    assert [astuple(r)[:4] for r in t1] == [astuple(r)[:4] for r in t2]
    assert t1.sparse_forward_iters == t2.sparse_forward_iters


def test_sweep_points_do_not_share_gathered_columns(sparse_problem):
    # one set-up serves every point; a point's result does not depend on the points run before it
    h, g, lam = sparse_problem
    setup = ConsensusSetup(h, g, N_BLOCKS)
    params = [AdmmParams(lam=f * lam, rho=1.0, max_iter=100, eps_abs=0.0, eps_rel=0.0) for f in (0.5, 1, 2)]
    fresh = [ConsensusLassoSolver(h, g, p, N_BLOCKS).run()[:2] for p in params]
    attributes = (set(vars(setup)), set(vars(setup.operator)))
    for order in ((0, 1, 2), (2, 1, 0)):
        for i in order:
            v, trace, _ = ConsensusLassoSolver.from_setup(setup, params[i]).run()
            assert v.tobytes() == fresh[i][0].tobytes()
            assert trace.sparse_forward_iters == fresh[i][1].sparse_forward_iters
    assert (set(vars(setup)), set(vars(setup.operator))) == attributes


@pytest.mark.parametrize("solve", [run_admm, run_fista], ids=["admm", "fista"])
def test_zero_iterate_takes_the_support_path_every_iteration(sparse_problem, solve):
    # at lam >= max|H^H g| the estimate is zero and every support is empty
    h, g, _ = sparse_problem
    lam = float(np.max(np.abs(h.conj().T @ g)))
    x, trace, *_ = solve(h, g, lam, max_iter=20)
    assert not np.any(x)
    assert trace.sparse_forward_iters == len(trace) == 20
