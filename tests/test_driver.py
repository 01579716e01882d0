"""The iteration loop ADMM and FISTA share (``linop.run_iterations``).

Both solvers' traces keep one contract: every record reaches ``on_iteration``
in order, the stop reason says how the run ended, timestamps never go back,
the product counts are those of the run's one ``linop.SupportProducts``, and a
non-finite iterate raises DivergenceError with one message. Only the steps run
with overflow warnings off; ``on_iteration`` runs under the caller's own.
"""

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import AdmmParams, DivergenceError, SensingOperator, solve_consensus_lasso, solve_fista
from cradmm import linop


def run_admm(h, g, lam, max_iter, tol, on_iteration=None):
    params = AdmmParams(lam=lam, rho=1.0, max_iter=max_iter, eps_abs=tol, eps_rel=tol)
    v, trace, _ = solve_consensus_lasso(h, g, params, min(3, len(g)), on_iteration=on_iteration)
    return v, trace


def run_fista(h, g, lam, max_iter, tol, on_iteration=None):
    return solve_fista(h, g, lam, max_iter=max_iter, tol=tol, on_iteration=on_iteration)


SOLVERS = pytest.mark.parametrize("solve", [run_admm, run_fista], ids=["admm", "fista"])


@pytest.fixture
def sparse_problem(rng):
    """A 24 x 960 lasso with a few-entry solution, so both product counts move."""
    h = rand_complex(rng, 24, 960)
    u = np.zeros(960, dtype=complex)
    u[rng.choice(960, 6, replace=False)] = rand_complex(rng, 6)
    g = h @ u + 0.01 * rand_complex(rng, 24)
    return h, g, 0.02 * float(np.max(np.abs(h.conj().T @ g)))


@pytest.fixture
def made_products(monkeypatch):
    """Every SupportProducts the driver makes, in order."""
    made = []

    class Recording(linop.SupportProducts):
        def __init__(self, h):
            super().__init__(h)
            made.append(self)

    monkeypatch.setattr(linop, "SupportProducts", Recording)
    return made


def assert_contract(trace, seen, made):
    assert len(seen) == len(trace)
    assert all(got is record for got, record in zip(seen, trace))
    assert [r.k for r in trace] == list(range(len(trace)))
    elapsed = trace.column("elapsed_seconds")
    assert elapsed[0] >= 0.0 and np.all(np.diff(elapsed) >= 0.0)
    [products] = made
    assert trace.sparse_forward_iters == products.sparse_forward_calls
    assert trace.screened_adjoint_iters == products.screened_adjoint_calls


@SOLVERS
def test_zero_tolerance_runs_the_whole_budget(solve, sparse_problem, made_products):
    h, g, lam = sparse_problem
    seen = []
    _, trace = solve(h, g, lam, 300, 0.0, seen.append)
    assert len(trace) == 300
    assert trace.stop_reason == "max_iter"
    assert_contract(trace, seen, made_products)
    assert trace.sparse_forward_iters > 0 and trace.screened_adjoint_iters > 0


@SOLVERS
def test_stopping_rule_ends_the_run(solve, sparse_problem, made_products):
    h, g, lam = sparse_problem
    seen = []
    _, trace = solve(h, g, lam, 20000, 1e-4, seen.append)
    assert trace.stop_reason == "converged"
    assert len(trace) < 20000
    assert_contract(trace, seen, made_products)
    # the rule is asked on the last allowed iteration too
    made_products.clear()
    seen = []
    _, last = solve(h, g, lam, len(trace), 1e-4, seen.append)
    assert last.stop_reason == "converged"
    assert len(last) == len(trace)
    assert_contract(last, seen, made_products)


@SOLVERS
def test_non_finite_iterate_raises_one_message(solve):
    # the first iterate's residual H x - g is about 5e307, so its square overflows
    seen = []
    with pytest.raises(DivergenceError, match=r"^non-finite iterate at iteration 0$"):
        solve(np.array([[1.0]]), np.array([1e308]), 2.0, 10, 0.0, seen.append)
    assert seen == []


@SOLVERS
def test_on_iteration_runs_outside_the_step_policy(solve):
    def overflows(record):
        return np.float64(1e308) * 10

    with pytest.warns(RuntimeWarning, match="overflow"):
        solve(np.eye(2), np.ones(2), 0.1, 2, 0.0, overflows)


@pytest.mark.parametrize("stop_at", [None, 1, 4, 5])
def test_the_loop_owns_the_budget(stop_at):
    # the steps never read the budget: they are advanced max_iter times, or j times if the rule holds at the j-th
    advanced = []

    def steps(products):
        while True:
            advanced.append(len(advanced))
            yield np.zeros(2), 1.0, 0.0, 0.0, len(advanced) == stop_at

    _, trace = linop.run_iterations(SensingOperator(np.eye(2)), steps, 5)
    assert len(advanced) == len(trace) == (5 if stop_at is None else stop_at)
    assert trace.stop_reason == ("max_iter" if stop_at is None else "converged")
