"""ADMM and FISTA with support-aware and screened products (``linop.SupportProducts``).

Setting ``SPARSE_FRACTION`` to 1 sends every forward product down the support
path and every adjoint after the first (the dense anchor) down the screened
one; setting it past n sends every product with a nonzero iterate, and every
adjoint with a column left unscreened, to the dense product. Both solvers
must give the same estimates either way, and the default in between.
"""

import hashlib
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (AdmmParams, ConsensusLassoSolver, ScenarioConfig, SensingOperator, build_phantom,
                    forward_measure, solve_fista, synthesize_sensing_matrix)
from cradmm import admm, baselines, linop
from cradmm.admm import soft_threshold_support

N_BLOCKS = 4
DEFAULT_FRACTION = linop.SPARSE_FRACTION


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
    assert 0 < default[1].screened_adjoint_iters < len(default[1])
    monkeypatch.setattr(linop, "SPARSE_FRACTION", 10**9)
    dense = solve(h, g, lam)
    assert dense[1].sparse_forward_iters < default[1].sparse_forward_iters
    # past n, only an adjoint whose every entry is screened skips H: the dense prox zeroes them all too
    assert dense[1].screened_adjoint_iters < default[1].screened_adjoint_iters
    monkeypatch.setattr(linop, "SPARSE_FRACTION", 1)
    sparse = solve(h, g, lam)
    assert sparse[1].sparse_forward_iters == len(sparse[1])
    assert sparse[1].screened_adjoint_iters == len(sparse[1]) - 1
    for got in (default[0], sparse[0]):
        assert np.linalg.norm(got - dense[0]) <= 1e-12 * np.linalg.norm(dense[0])
        np.testing.assert_array_equal(np.flatnonzero(got), np.flatnonzero(dense[0]))
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
    assert t1.sparse_forward_iters > 0 and t1.screened_adjoint_iters > 0
    assert x1.tobytes() == x2.tobytes()
    assert [astuple(r)[:4] for r in t1] == [astuple(r)[:4] for r in t2]
    assert t1.sparse_forward_iters == t2.sparse_forward_iters
    assert t1.screened_adjoint_iters == t2.screened_adjoint_iters


def test_sweep_points_do_not_share_gathered_columns(sparse_problem):
    # one operator serves every point; a point's result does not depend on the points run before
    # it: the operator keeps the factors derived from H, never gathered columns or a screening anchor
    h, g, lam = sparse_problem
    op = SensingOperator(h)
    params = [AdmmParams(lam=f * lam, rho=1.0, max_iter=100, eps_abs=0.0, eps_rel=0.0) for f in (0.5, 1, 2)]
    fresh = [ConsensusLassoSolver(h, g, p, N_BLOCKS).run()[:2] for p in params]
    fresh_fista = run_fista(h, g, lam)
    attributes = set(vars(op))
    for order in ((0, 1, 2), (2, 1, 0)):
        for i in order:
            v, trace, _ = ConsensusLassoSolver(op, g, params[i], N_BLOCKS).run()
            assert v.tobytes() == fresh[i][0].tobytes()
            assert trace.sparse_forward_iters == fresh[i][1].sparse_forward_iters
            assert trace.screened_adjoint_iters == fresh[i][1].screened_adjoint_iters > 0
        x, ftrace = run_fista(op, g, lam)
        assert x.tobytes() == fresh_fista[0].tobytes()
        assert ftrace.screened_adjoint_iters == fresh_fista[1].screened_adjoint_iters > 0
    assert set(vars(op)) == attributes
    blocks = ConsensusLassoSolver(h, g, params[0], N_BLOCKS).blocks
    assert set(op._factors) == {"gram", "column_norms", "norm_squared", ("block_gram", blocks),
                                ("woodbury", blocks, 1.0)}
    assert op._factors["column_norms"].shape == (h.shape[1],)


@pytest.mark.parametrize("solve", [run_admm, run_fista], ids=["admm", "fista"])
def test_zero_iterate_takes_the_support_path_every_iteration(sparse_problem, solve):
    # at lam >= max|H^H g| the estimate is zero and every support is empty; every adjoint
    # but the anchor is screened
    h, g, _ = sparse_problem
    lam = float(np.max(np.abs(h.conj().T @ g)))
    x, trace, *_ = solve(h, g, lam, max_iter=20)
    assert not np.any(x)
    assert trace.sparse_forward_iters == len(trace) == 20
    assert trace.screened_adjoint_iters == 19


@pytest.mark.parametrize("solve", [run_admm, run_fista], ids=["admm", "fista"])
def test_zero_lambda_screens_nothing(sparse_problem, solve):
    # the prox at a zero threshold keeps every nonzero entry: no bound can prove one zero
    h, g, _ = sparse_problem
    x, trace, *_ = solve(h, g, 0.0, max_iter=20)
    assert trace.screened_adjoint_iters == 0
    assert np.count_nonzero(x) == x.size


@pytest.mark.parametrize("method", ["admm", "fista"])
def test_run_peak_grows_by_at_most_the_gathered_columns(rng, monkeypatch, method):
    # over the dense path an iteration holds at most M n / SPARSE_FRACTION gathered entries, and
    # the anchor, the column norms and the screening mask: O(n) floats, never an H-sized temporary
    m, n = 32, 16000
    h = rand_complex(rng, m, n)
    u = np.zeros(n, dtype=complex)
    u[rng.choice(n, 20, replace=False)] = rand_complex(rng, 20)
    g = h @ u + 0.01 * rand_complex(rng, m)
    lam = 0.2 * float(np.max(np.abs(h.conj().T @ g)))

    def traced_peak():
        # the peak from the end of the first iteration on: the set-up (Grams, ||H||^2) is not counted
        def reset(record):
            if record.k == 0:
                tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            if method == "admm":
                _, trace, _ = admm_solver(h, g, lam, max_iter=40).run(reset)
            else:
                _, trace = solve_fista(h, g, lam, max_iter=40, tol=0.0, on_iteration=reset)
            return tracemalloc.get_traced_memory()[1], trace
        finally:
            tracemalloc.stop()

    default, trace = traced_peak()
    assert trace.screened_adjoint_iters > 0 and trace.sparse_forward_iters > 0
    monkeypatch.setattr(linop, "SPARSE_FRACTION", 10**9)
    dense, _ = traced_peak()
    gathered = 16 * m * n // DEFAULT_FRACTION
    assert default - dense <= gathered + 8 * 8 * n, (default, dense, gathered)


@pytest.fixture(scope="module")
def desk_problem():
    """The benchmark's desk scene at seed 0: a 93 x 2500 H, 31 blocks."""
    cfg = ScenarioConfig(grid=(25, 25, 4), roi_extent=(36.0, 36.0, 6.0), rng_seed=0)
    boxes = [((4, 6), (4, 6), (1, 2)), ((16, 18), (6, 8), (2, 3)), ((7, 9), (17, 19), (0, 1)),
             ((18, 20), (18, 20), (3, 4))]
    h = synthesize_sensing_matrix(cfg)
    measured = forward_measure(h, build_phantom(cfg, [(box, 1.0) for box in boxes]), 30.0, seed=0)
    return SensingOperator(h.entries), measured.g


def explicit_admm_step(lam, rho):
    """ADMM's step as it was written out by hand: the adjoint screened at lam / rho."""
    def step(products, v, supports, c, n, kappa):
        h_c = products.adjoint(c, supports, lam / rho)
        v_next, support = soft_threshold_support(v + h_c / n, kappa)
        return v_next, support, products.forward(v_next, support)
    return step


def explicit_fista_step(lam):
    """FISTA's step as it was written out by hand: the gradient screened at lam."""
    def step(products, y, y_supports, r, lips, kappa):
        grad = products.adjoint(-r, y_supports, lam)  # -r is H y - g, to the bit
        x, support = soft_threshold_support(y - grad / lips, kappa)
        return x, support, products.forward(x, support)
    return step


def assert_same_run(got, want):
    (x, trace, *_), (x_ref, trace_ref, *_) = got, want
    assert x.tobytes() == x_ref.tobytes()
    assert [astuple(r)[:4] for r in trace] == [astuple(r)[:4] for r in trace_ref]
    assert trace.stop_reason == trace_ref.stop_reason
    assert trace.sparse_forward_iters == trace_ref.sparse_forward_iters
    assert trace.screened_adjoint_iters == trace_ref.screened_adjoint_iters


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
def test_admm_prox_step_matches_the_explicit_sequence(desk_problem, monkeypatch, lam, rho):
    # the level prox_step derives, kappa N, screens as lam / rho did, to the bit
    op, g = desk_problem
    solver = ConsensusLassoSolver(op, g, AdmmParams(lam=lam, rho=rho, max_iter=200, eps_abs=0.0, eps_rel=0.0), 31)
    got = solver.run()
    monkeypatch.setattr(admm, "prox_step", explicit_admm_step(lam, rho))
    assert_same_run(got, solver.run())


def recorded(step, digests):
    """``step``, noting the bytes of each iterate with the sign of its zeros dropped."""
    def run(*args):
        out = step(*args)
        digests.append(hashlib.sha256((out[0] + 0.0).tobytes()).digest())
        return out
    return run


def test_fista_prox_step_matches_the_explicit_sequence(desk_problem, monkeypatch):
    # every iterate has the same values; a screened +0.0 added to a -0.0 entry of y, where the
    # explicit sequence subtracted it, may flip the sign of a zero, so only the last is byte-equal
    op, g = desk_problem
    got_steps, want_steps = [], []
    monkeypatch.setattr(baselines, "prox_step", recorded(admm.prox_step, got_steps))
    got = solve_fista(op, g, 1.0, max_iter=800, tol=0.0)
    assert got[1].screened_adjoint_iters > 0
    monkeypatch.setattr(baselines, "prox_step", recorded(explicit_fista_step(1.0), want_steps))
    assert_same_run(got, solve_fista(op, g, 1.0, max_iter=800, tol=0.0))
    assert len(got_steps) == 800 and got_steps == want_steps
