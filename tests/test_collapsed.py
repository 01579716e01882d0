"""The collapsed consensus iteration against the per-block reference.

``reference_consensus_lasso`` is the textbook consensus ADMM loop built from
``update_u``, ``update_v`` and ``update_s``: it stores every local iterate and
scaled dual and takes every norm explicitly. The collapsed solver must follow
it iterate for iterate and stop on the same iteration.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    ConsensusLassoSolver,
    evaluate_objective,
    partition_rows,
    precompute_block_solver,
    solve_consensus_lasso,
    solve_fista,
    update_s,
    update_u,
    update_v,
)
from cradmm.linop import adjoint


def reference_consensus_lasso(h, g, params, n_blocks):
    """Per-block consensus ADMM; returns (v, rows, eps_pri, eps_dual).

    Each row holds the objective, the primal and dual residuals, and the
    iterate size max(||u||, sqrt(N) ||v||) that their rounding noise scales
    with. eps_pri and eps_dual are the last iteration's stopping thresholds,
    built from the explicit ||u|| and ||s||. Zero tolerances run the whole
    budget.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    part = partition_rows(h, g, n_blocks)
    solvers = [precompute_block_solver(h[a:b], g[a:b], params.rho) for a, b in part.blocks]
    n, n_p = part.n_blocks, h.shape[1]
    u = np.zeros((n, n_p), dtype=complex)
    s = np.zeros((n, n_p), dtype=complex)
    v = np.zeros(n_p, dtype=complex)
    rows = []
    for _ in range(params.max_iter):
        for i in range(n):
            u[i] = update_u(solvers[i], v, s[i])
        v_prev = v
        v = update_v(u.mean(axis=0), s.mean(axis=0), params, n)
        for i in range(n):
            s[i] = update_s(s[i], u[i], v)
        primal = float(np.linalg.norm(u - v))
        dual = params.rho * math.sqrt(n) * float(np.linalg.norm(v - v_prev))
        size = max(float(np.linalg.norm(u)), math.sqrt(n) * float(np.linalg.norm(v)))
        rows.append((evaluate_objective(h, g, v, params.lam), primal, dual, size))
        scale = math.sqrt(n * n_p) * params.eps_abs
        eps_pri = scale + params.eps_rel * size
        eps_dual = scale + params.eps_rel * params.rho * float(np.linalg.norm(s))
        if (params.eps_abs > 0 or params.eps_rel > 0) and primal <= eps_pri and dual <= eps_dual:
            break
    return v, np.array(rows), eps_pri, eps_dual


def assert_close(got, expected, rel):
    """||got - expected|| within rel of ||expected||."""
    assert np.linalg.norm(got - expected) <= rel * np.linalg.norm(expected)


@st.composite
def instances(draw):
    m = draw(st.integers(1, 12))
    n_p = draw(st.integers(1, 20))
    n_blocks = draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    rho = draw(st.sampled_from([0.1, 1.0, 10.0]))
    lam_frac = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.5]))
    real = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if real:
        h, g = rng.standard_normal((m, n_p)), rng.standard_normal(m)
    else:
        h, g = rand_complex(rng, m, n_p), rand_complex(rng, m)
    lam = lam_frac * float(np.max(np.abs(h.conj().T @ g)))
    eps = draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]))
    params = AdmmParams(lam=lam, rho=rho, max_iter=300, eps_abs=eps, eps_rel=eps)
    return h, g, params, n_blocks


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_collapsed_matches_per_block_reference(instance):
    h, g, params, n_blocks = instance
    v_ref, rows, eps_pri, eps_dual = reference_consensus_lasso(h, g, params, n_blocks)
    v, trace, state = solve_consensus_lasso(h, g, params, n_blocks)
    assert len(trace) == len(rows), "stopping iteration differs"
    assert_close(v, v_ref, 1e-9)
    # residuals are differences of iterates: their rounding noise scales with the iterates
    size = float(np.max(rows[:, 3]))
    floors = {"objective": 0.0, "primal_residual": size, "dual_residual": params.rho * size}
    for j, name in enumerate(("objective", "primal_residual", "dual_residual")):
        ref = rows[:, j]
        gap = np.max(np.abs(trace.column(name) - ref))
        assert gap <= 1e-8 * max(np.max(np.abs(ref)), floors[name]), name
    # the thresholds carry ||u|| and ||s||: the Gram-form norms match the explicit ones
    assert state.eps_pri == pytest.approx(eps_pri, rel=1e-9)
    assert state.eps_dual == pytest.approx(eps_dual, rel=1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-6])
def test_support_path_matches_per_block_reference(eps):
    # a wide H and a sparse iterate: the forward products take the support path
    rng = np.random.default_rng(31)
    h, g = rand_complex(rng, 8, 160), rand_complex(rng, 8)
    lam = 0.3 * float(np.max(np.abs(h.conj().T @ g)))
    params = AdmmParams(lam=lam, rho=1.0, max_iter=400, eps_abs=eps, eps_rel=eps)
    v_ref, rows, eps_pri, eps_dual = reference_consensus_lasso(h, g, params, 4)
    v, trace, state = solve_consensus_lasso(h, g, params, 4)
    assert trace.sparse_forward_iters == len(trace) == len(rows)
    assert_close(v, v_ref, 1e-9)
    np.testing.assert_allclose(trace.column("objective"), rows[:, 0], rtol=1e-9)
    assert state.eps_pri == pytest.approx(eps_pri, rel=1e-9)
    assert state.eps_dual == pytest.approx(eps_dual, rel=1e-9)


class GramCheckedSolver(ConsensusLassoSolver):
    """Records each Gram-form stacked norm next to its explicit per-block value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pairs = []

    def _stacked_sq_norm(self, a, h_a, x, gram_x):
        got = super()._stacked_sq_norm(a, h_a, x, gram_x)
        explicit = sum(
            float(np.real(np.vdot(y, y)))
            for y in (a + adjoint(self.entries[lo:hi], x[lo:hi]) for lo, hi in self.partition.blocks)
        )
        self.pairs.append((got, explicit))
        return got


def test_gram_form_norms_match_explicit_at_tight_tolerance():
    # criterion 2's instances and eps = 1e-12: residuals far below their terms
    rng = np.random.default_rng(202)
    checked = 0
    for n in (2, 3, 8, 33, 64):
        g = rand_complex(rng, n)
        lam = float(rng.uniform(0.1, 0.6) * np.median(np.abs(g)))
        for n_blocks in (1, 2, 4):
            if n_blocks > n:
                continue
            params = AdmmParams(lam=lam, rho=1.0, max_iter=2000, eps_abs=1e-12, eps_rel=1e-12)
            engine = GramCheckedSolver(np.eye(n), g, params, n_blocks)
            engine.run()
            for got, explicit in engine.pairs:
                assert math.sqrt(max(got, 0.0)) == pytest.approx(math.sqrt(explicit), rel=1e-8, abs=1e-300)
            checked += len(engine.pairs)
    assert checked > 1000


class TestStopReason:
    @staticmethod
    def _instance(rng):
        h = rand_complex(rng, 6, 10)
        g = rand_complex(rng, 6)
        return h, g, AdmmParams(lam=0.5, rho=1.0, max_iter=5000, eps_abs=1e-7, eps_rel=1e-7)

    def test_admm_converged_and_thresholds(self, rng):
        h, g, params = self._instance(rng)
        _, trace, state = solve_consensus_lasso(h, g, params, 3)
        assert trace.stop_reason == "converged"
        assert trace[-1].primal_residual <= state.eps_pri
        assert trace[-1].dual_residual <= state.eps_dual

    def test_admm_converging_on_the_last_allowed_iteration(self, rng):
        h, g, params = self._instance(rng)
        _, trace, _ = solve_consensus_lasso(h, g, params, 3)
        k = len(trace)
        _, exact, _ = solve_consensus_lasso(h, g, dataclasses.replace(params, max_iter=k), 3)
        _, short, state = solve_consensus_lasso(h, g, dataclasses.replace(params, max_iter=k - 1), 3)
        assert exact.stop_reason == "converged"
        assert short.stop_reason == "max_iter"
        assert short[-1].primal_residual > state.eps_pri or short[-1].dual_residual > state.eps_dual

    def test_admm_fixed_budget(self, rng):
        h, g, params = self._instance(rng)
        _, trace, state = solve_consensus_lasso(
            h, g, dataclasses.replace(params, max_iter=20, eps_abs=0.0, eps_rel=0.0), 3
        )
        assert trace.stop_reason == "max_iter"
        assert state.eps_pri == 0.0 and state.eps_dual == 0.0

    def test_fista(self, rng):
        h = rand_complex(rng, 4, 4)
        g = rand_complex(rng, 4)
        _, fixed = solve_fista(h, g, 0.1, max_iter=50, tol=0.0)
        _, early = solve_fista(h, g, 0.1, max_iter=5000, tol=1e-6)
        assert fixed.stop_reason == "max_iter"
        assert early.stop_reason == "converged" and len(early) < 5000
