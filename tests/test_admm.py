import math
import tracemalloc
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    ConsensusLassoSolver,
    DivergenceError,
    SensingOperator,
    check_lasso_kkt,
    evaluate_objective,
    partition_rows,
    precompute_block_solver,
    soft_threshold,
    solve_consensus_lasso,
    update_s,
    update_u,
    update_v,
)
from cradmm import ScenarioConfig, build_phantom, linop, synthesize_sensing_matrix
from cradmm.admm import soft_threshold_support

# an integer too large for a float
HUGE = 10**400


class TestPartitionRows:
    def test_demo_scale_split(self):
        blocks = partition_rows(93, 31)
        assert len(blocks) == 31
        assert [stop - start for start, stop in blocks] == [3] * 31

    def test_single_block(self):
        assert partition_rows(5, 1) == ((0, 5),)

    def test_uneven_split_front_loads_extra_row(self):
        assert partition_rows(5, 2) == ((0, 3), (3, 5))

    def test_blocks_cover_rows_exactly(self, rng):
        h = rand_complex(rng, 11, 6)
        g = rand_complex(rng, 11)
        blocks = partition_rows(len(g), 4)
        stacked_h = np.vstack([h[a:b] for a, b in blocks])
        stacked_g = np.concatenate([g[a:b] for a, b in blocks])
        assert np.array_equal(stacked_h, h)
        assert np.array_equal(stacked_g, g)

    def test_invalid_counts_raise(self):
        for bad in (0, 6, -1, True):  # True is not a count, though it equals 1
            with pytest.raises(ValueError, match="block count"):
                partition_rows(5, bad)
        for bad in (-1, 5.0, True, None):
            with pytest.raises(ValueError, match="row count"):
                partition_rows(bad, 1)


class TestBlockSolver:
    def test_zero_block_identity_inverse(self):
        solver = precompute_block_solver(np.zeros((3, 7)), np.zeros(3), rho=2.0)
        np.testing.assert_array_equal(solver.small_inverse, np.eye(3))
        b = np.arange(7, dtype=complex)
        np.testing.assert_allclose(solver.apply_inverse(b), b / 2.0, rtol=1e-14)

    def test_two_pixel_analytic_case(self):
        # H = [1 0], rho = 1: (H^H H + I)^-1 = diag(1/2, 1)
        solver = precompute_block_solver(np.array([[1.0, 0.0]]), np.array([0.0]), rho=1.0)
        np.testing.assert_allclose(solver.small_inverse, np.array([[0.5]]), rtol=1e-14)
        np.testing.assert_allclose(solver.apply_inverse(np.array([1.0, 0.0])), [0.5, 0.0], atol=1e-14)
        np.testing.assert_allclose(solver.apply_inverse(np.array([0.0, 1.0])), [0.0, 1.0], atol=1e-14)

    def test_matches_dense_inverse(self, rng):
        # oracle: direct dense solve of the full regularized normal matrix
        h = rand_complex(rng, 3, 20)
        g = rand_complex(rng, 3)
        b = rand_complex(rng, 20)
        solver = precompute_block_solver(h, g, rho=1.0)
        direct = np.linalg.solve(h.conj().T @ h + np.eye(20), b)
        np.testing.assert_allclose(solver.apply_inverse(b), direct, rtol=1e-10)

    def test_small_inverse_invariants(self, rng):
        for rho in (0.1, 1.0, 10.0):
            h = rand_complex(rng, 4, 15)
            solver = precompute_block_solver(h, rand_complex(rng, 4), rho)
            gram = np.eye(4) + h @ h.conj().T / rho
            np.testing.assert_allclose(solver.small_inverse @ gram, np.eye(4), atol=1e-10)
            np.testing.assert_array_equal(solver.small_inverse, solver.small_inverse.conj().T)

    def test_non_finite_entries_raise(self):
        with pytest.raises(ValueError, match="non-finite"):
            precompute_block_solver(np.array([[np.nan, 0.0]]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            precompute_block_solver(np.array([[1.0, 0.0]]), np.array([np.inf]), 1.0)

    def test_hg_is_formed_on_demand(self, rng):
        h = rand_complex(rng, 3, 11)
        g = rand_complex(rng, 3)
        solver = precompute_block_solver(h, g, 1.0)
        assert "hg" not in vars(solver)
        np.testing.assert_allclose(solver.hg, h.conj().T @ g, rtol=1e-13)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError, match="rho"):
            precompute_block_solver(np.zeros((1, 2)), np.zeros(1), 0.0)

    def test_rho_beyond_the_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="rho"):
            precompute_block_solver(np.zeros((1, 2)), np.zeros(1), HUGE)


class TestUpdateU:
    def test_zero_block_returns_coupling_prox(self, rng):
        solver = precompute_block_solver(np.zeros((2, 6)), np.zeros(2), rho=3.0)
        v = rand_complex(rng, 6)
        s = rand_complex(rng, 6)
        np.testing.assert_allclose(update_u(solver, v, s), v - s, rtol=1e-14)

    def test_identity_block_halves_measurement(self, rng):
        g = rand_complex(rng, 5)
        solver = precompute_block_solver(np.eye(5), g, rho=1.0)
        np.testing.assert_allclose(update_u(solver, np.zeros(5), np.zeros(5)), g / 2.0, rtol=1e-12)

    def test_first_order_optimality(self, rng):
        # oracle: the gradient of the block objective must vanish at the update
        h = rand_complex(rng, 3, 20)
        g = rand_complex(rng, 3)
        rho = 1.0
        solver = precompute_block_solver(h, g, rho)
        v = rand_complex(rng, 20)
        s = rand_complex(rng, 20)
        u = update_u(solver, v, s)
        grad = h.conj().T @ (h @ u - g) + rho * (u - v + s)
        assert np.linalg.norm(grad) <= 1e-9

    def test_woodbury_equivalence_sweep(self, rng):
        # small random blocks against the dense direct solve
        for rho in (0.1, 1.0, 10.0):
            for _ in range(6):
                m = int(rng.integers(1, 7))
                n = int(rng.integers(m, 41))
                h = rand_complex(rng, m, n)
                g = rand_complex(rng, m)
                v = rand_complex(rng, n)
                s = rand_complex(rng, n)
                solver = precompute_block_solver(h, g, rho)
                u = update_u(solver, v, s)
                b = h.conj().T @ g + rho * (v - s)
                direct = np.linalg.solve(h.conj().T @ h + rho * np.eye(n), b)
                assert np.linalg.norm(u - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_dimension_mismatch_raises(self):
        solver = precompute_block_solver(np.zeros((1, 3)), np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="length-3"):
            update_u(solver, np.zeros(4), np.zeros(3))


class TestSoftThreshold:
    def test_real_three_branch(self):
        assert soft_threshold(2.0, 1.0) == 1.0
        assert soft_threshold(-2.0, 1.0) == -1.0
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_zero_threshold_is_identity(self, rng):
        a = rand_complex(rng, 50)
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_complex_magnitude_shrink(self):
        assert soft_threshold(3.0 + 4.0j, 1.0) == pytest.approx(2.4 + 3.2j)

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        with pytest.raises(ValueError):
            soft_threshold_support(1.0, -0.1)

    def test_nan_threshold_raises(self):
        with pytest.raises(ValueError, match="threshold"):
            soft_threshold(np.ones(3), math.nan)
        with pytest.raises(ValueError, match="threshold"):
            soft_threshold_support(np.ones(3), math.nan)

    def test_infinite_threshold_zeroes_everything(self, rng):
        out, support = soft_threshold_support(rand_complex(rng, 20), math.inf)
        assert not np.any(out) and support.size == 0

    @pytest.mark.parametrize("shape", [(300,), (12, 25)])
    def test_support_lists_the_nonzero_entries(self, rng, shape):
        a = rand_complex(rng, *shape)
        a.flat[:7] = [0.0, 0.5, -0.5j, 0.8, 0.8 * (1 + 1e-15), 3.0, 0.8j]
        out, support = soft_threshold_support(a, 0.8)
        assert out.tobytes() == soft_threshold(a, 0.8).tobytes()
        np.testing.assert_array_equal(support, np.flatnonzero(out))
        assert list(support[:2]) == [4, 5] and 6 not in support

    def test_lipschitz_phase_odd_zero(self, rng):
        a = rand_complex(rng, 300)
        b = rand_complex(rng, 300)
        kappa = 0.8
        sa, sb = soft_threshold(a, kappa), soft_threshold(b, kappa)
        assert np.all(np.abs(sa - sb) <= np.abs(a - b) + 1e-12)
        # odd
        np.testing.assert_allclose(soft_threshold(-a, kappa), -sa, rtol=1e-13)
        # zero iff below threshold
        assert np.array_equal(sa == 0, np.abs(a) <= kappa)
        # phase preserved on the survivors
        nz = sa != 0
        np.testing.assert_allclose(np.angle(sa[nz]), np.angle(a[nz]), atol=1e-12)


class TestUpdateVS:
    def test_zero_lambda_passes_through(self, rng):
        u_bar = rand_complex(rng, 8)
        s_bar = rand_complex(rng, 8)
        params = AdmmParams(lam=0.0, rho=2.0)
        np.testing.assert_array_equal(update_v(u_bar, s_bar, params, 4), u_bar + s_bar)

    def test_demo_threshold_zeroes_small_entries(self):
        # lam=0.01, rho=1, N=31 puts the cut at 0.01/31
        params = AdmmParams(lam=0.01, rho=1.0)
        kappa = 0.01 / 31
        x = np.array([0.9 * kappa, -kappa, 1.0 + 0.0j, kappa * (1 + 1e-9)])
        v = update_v(x, np.zeros(4), params, 31)
        assert v[0] == 0 and v[1] == 0
        assert v[2] == pytest.approx(1.0 - kappa)
        assert v[3] != 0

    def test_elementwise_example(self):
        params = AdmmParams(lam=1.0, rho=1.0)
        v = update_v(np.array([2.0, 0.0, -0.5]), np.zeros(3), params, 1)
        np.testing.assert_array_equal(v, np.array([1.0, 0.0, 0.0]))

    def test_dual_update_arithmetic(self):
        np.testing.assert_array_equal(
            update_s(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            np.array([1.0, -1.0]),
        )

    def test_dual_fixed_point_at_consensus(self, rng):
        s = rand_complex(rng, 6)
        v = rand_complex(rng, 6)
        np.testing.assert_array_equal(update_s(s, v, v), s)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match="mismatched averages"):
            update_v(np.zeros(3), np.zeros(4), AdmmParams(lam=1.0, rho=1.0), 1)
        with pytest.raises(ValueError, match="mismatched lengths"):
            update_s(np.zeros(3), np.zeros(3), np.zeros(4))


class TestObjectives:
    def test_exact_fit_zero_lambda(self, rng):
        h = rand_complex(rng, 4, 4)
        u = rand_complex(rng, 4)
        assert evaluate_objective(h, h @ u, u, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_direct_arithmetic(self):
        val = evaluate_objective(np.eye(1), np.zeros(1), np.array([3.0 + 4.0j]), 1.0)
        assert val == pytest.approx(0.5 * 25.0 + 5.0)

    def test_matches_naive_loops(self, rng):
        h = rand_complex(rng, 5, 9)
        g = rand_complex(rng, 5)
        u = rand_complex(rng, 9)
        lam = 0.37
        # oracle: scalar loops, no vectorized shortcuts
        fit = 0.0
        for i in range(5):
            row = sum(h[i, j] * u[j] for j in range(9)) - g[i]
            fit += abs(row) ** 2
        expected = 0.5 * fit + lam * sum(abs(u[j]) for j in range(9))
        assert evaluate_objective(h, g, u, lam) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            evaluate_objective(rand_complex(rng, 3, 4), rand_complex(rng, 3), rand_complex(rng, 5), 1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, HUGE, -0.1])
    def test_lambda_not_finite_and_nonnegative_raises_value_error(self, rng, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            evaluate_objective(rand_complex(rng, 3, 4), rand_complex(rng, 3), rand_complex(rng, 4), lam)


class TestSolveConsensusLasso:
    def test_identity_closed_form_single_block(self):
        params = AdmmParams(lam=1.0, rho=1.0, max_iter=2000, eps_abs=1e-12, eps_rel=1e-12)
        v, trace, state = solve_consensus_lasso(np.eye(2), np.array([3.0, 0.5]), params, 1)
        np.testing.assert_allclose(v, [2.0, 0.0], atol=1e-9)
        # objective at the optimum: 0.5*(1 + 0.25) + 1*2
        assert trace[-1].objective == pytest.approx(2.625, rel=1e-9)
        assert trace[-1].primal_residual <= state.eps_pri and trace[-1].dual_residual <= state.eps_dual

    def test_identity_closed_form_two_blocks(self):
        # oracle: the lasso solution for H = I is the soft threshold of g
        params = AdmmParams(lam=1.0, rho=1.0, max_iter=2000, eps_abs=1e-10, eps_rel=1e-10)
        v, _, _ = solve_consensus_lasso(np.eye(2), np.array([3.0, 0.5]), params, 2)
        assert np.max(np.abs(v - np.array([2.0, 0.0]))) <= 1e-6

    def test_partition_count_invariance(self, rng):
        h = rand_complex(rng, 8, 20)
        g = rand_complex(rng, 8)
        lam = 0.3 * float(np.max(np.abs(h.conj().T @ g)))
        params = AdmmParams(lam=lam, rho=1.0, max_iter=5000, eps_abs=1e-10, eps_rel=1e-10)
        solutions = [solve_consensus_lasso(h, g, params, n)[0] for n in (1, 2, 4)]
        for other in solutions[1:]:
            assert np.max(np.abs(solutions[0] - other)) <= 1e-5

    def test_zero_lambda_reaches_least_squares(self, rng):
        # oracle: normal-equations solve on an overdetermined full-rank system
        h = rand_complex(rng, 12, 5)
        g = rand_complex(rng, 12)
        expected = np.linalg.solve(h.conj().T @ h, h.conj().T @ g)
        params = AdmmParams(lam=0.0, rho=1.0, max_iter=5000, eps_abs=1e-10, eps_rel=1e-10)
        v, _, _ = solve_consensus_lasso(h, g, params, 3)
        assert np.max(np.abs(v - expected)) <= 1e-6

    def test_consensus_when_stopping_rule_fires(self, rng):
        h = rand_complex(rng, 6, 10)
        g = rand_complex(rng, 6)
        params = AdmmParams(lam=0.5, rho=1.0, max_iter=5000, eps_abs=1e-7, eps_rel=1e-7)
        v, trace, state = solve_consensus_lasso(h, g, params, 3)
        assert len(trace) < params.max_iter, "stopping rule should fire on this instance"
        # sqrt(sum_i ||u_i - v||^2) bounds every |u_i - v| entry
        primal = trace[-1].primal_residual
        assert primal <= state.eps_pri
        # and the threshold is no looser than the rule's, as ||u|| <= sqrt(N) ||v|| + primal
        n, n_p = 3, h.shape[1]
        bound = math.sqrt(n * n_p) * params.eps_abs + params.eps_rel * (math.sqrt(n) * np.linalg.norm(v) + primal)
        assert state.eps_pri <= bound * (1 + 1e-12)

    def test_fixed_budget_when_tolerances_zero(self, rng):
        h = rand_complex(rng, 4, 6)
        g = rand_complex(rng, 4)
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=37, eps_abs=0.0, eps_rel=0.0)
        _, trace, _ = solve_consensus_lasso(h, g, params, 2)
        assert len(trace) == 37
        assert [r.k for r in trace] == list(range(37))

    def test_trace_is_worker_count_invariant(self, rng):
        h = rand_complex(rng, 8, 12)
        g = rand_complex(rng, 8)
        params = AdmmParams(lam=0.2, rho=1.0, max_iter=60, eps_abs=0.0, eps_rel=0.0)
        v1, t1, _ = ConsensusLassoSolver(h, g, params, 4, workers=1).run()
        v4, t4, _ = ConsensusLassoSolver(h, g, params, 4, workers=4).run()
        assert v1.tobytes() == v4.tobytes()
        for a, b in zip(t1, t4):
            assert (a.k, a.objective, a.primal_residual, a.dual_residual) == (
                b.k, b.objective, b.primal_residual, b.dual_residual
            )

    def test_takes_no_workers(self):
        with pytest.raises(TypeError, match="workers"):
            solve_consensus_lasso(np.eye(2), np.ones(2), AdmmParams(lam=0.1, rho=1.0), 1, workers=2)

    @pytest.mark.parametrize("build", [
        lambda h, g: solve_consensus_lasso(h, g, AdmmParams(lam=0.1, rho=1.0, max_iter=3), 1),
        lambda h, g: precompute_block_solver(h, g, 1.0),
    ], ids=["solve_consensus_lasso", "precompute_block_solver"])
    def test_an_h_with_no_rows_is_refused_by_its_row_count(self, build):
        with pytest.raises(ValueError, match=r"row count must be an integer >= 1, got 0"):
            build(np.zeros((0, 3)), np.zeros(0))

    def test_kkt_certificate_on_small_instances(self, rng):
        for _ in range(3):
            m = int(rng.integers(5, 10))
            n = int(rng.integers(m, 30))
            h = rand_complex(rng, m, n)
            g = rand_complex(rng, m)
            lam = 0.2 * float(np.max(np.abs(h.conj().T @ g)))
            params = AdmmParams(lam=lam, rho=1.0, max_iter=5000, eps_abs=1e-8, eps_rel=1e-8)
            v, _, _ = solve_consensus_lasso(h, g, params, min(4, m))
            assert check_lasso_kkt(h, g, lam, v, 1e-4).passed

    def test_solver_exposes_block_precomputation(self, rng):
        h = rand_complex(rng, 9, 5)
        g = rand_complex(rng, 9)
        engine = ConsensusLassoSolver(h, g, AdmmParams(lam=0.1, rho=1.0, max_iter=5), 3)
        assert len(engine.block_solvers) == 3
        assert all(b.small_inverse.shape == (3, 3) for b in engine.block_solvers)

    def test_shared_setup_is_bit_identical_to_fresh_solvers(self, rng):
        # solvers on one operator share its block Grams and, per rho, its Woodbury inverse
        h = rand_complex(rng, 10, 24)
        g = rand_complex(rng, 10)
        op = SensingOperator(h)
        for lam in (0.01, 0.5):
            for rho in (0.1, 1.0, 10.0):
                params = AdmmParams(lam=lam, rho=rho, max_iter=60, eps_abs=1e-9, eps_rel=1e-9)
                shared = ConsensusLassoSolver(op, g, params, 4)
                fresh = ConsensusLassoSolver(h, g, params, 4)
                assert shared.gram is op.block_gram(shared.blocks)
                assert shared.woodbury is op.woodbury(shared.blocks, rho)
                assert shared.gram.tobytes() == fresh.gram.tobytes()
                assert shared.woodbury.tobytes() == fresh.woodbury.tobytes()
                for a, b, (lo, hi) in zip(shared.block_solvers, fresh.block_solvers, shared.blocks):
                    ref = precompute_block_solver(h[lo:hi], g[lo:hi], rho)
                    assert a.small_inverse.tobytes() == b.small_inverse.tobytes() == ref.small_inverse.tobytes()
                    # the engine's blocks of S are views, not copies; its blocks of G are the blocks' own Grams
                    assert np.shares_memory(a.small_inverse, shared.woodbury)
                    assert shared.gram[lo:hi, lo:hi].tobytes() == linop.gram(h[lo:hi]).tobytes()
                (v1, t1, s1), (v2, t2, s2) = shared.run(), fresh.run()
                assert v1.tobytes() == v2.tobytes()
                assert [r[:4] for r in map(astuple, t1)] == [r[:4] for r in map(astuple, t2)]

    def test_setup_rejects_non_finite_input(self):
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=5)
        with pytest.raises(ValueError, match="non-finite"):
            ConsensusLassoSolver(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), params, 2)
        with pytest.raises(ValueError, match="non-finite"):
            ConsensusLassoSolver(np.eye(2), np.array([1.0, np.inf]), params, 1)
        # the operator keeps no factor that failed: each solver on it checks again
        op = SensingOperator(np.array([[1.0, np.nan], [0.0, 1.0]]))
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite"):
                ConsensusLassoSolver(op, np.ones(2), params, 2)
        assert op._factors == {}

    def test_setup_rejects_a_measurement_of_the_wrong_length(self, rng):
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=5)
        for rows in (4, 6):
            with pytest.raises(ValueError, match="shapes"):
                ConsensusLassoSolver(rand_complex(rng, 5, 8), rand_complex(rng, rows), params, 1)

    def test_run_returns_plain_values(self, rng):
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=5)
        engine = ConsensusLassoSolver(rand_complex(rng, 5, 8), rand_complex(rng, 5), params, 2)
        assert engine.blocks == ((0, 3), (3, 5))
        _, trace, state = engine.run()
        assert isinstance(trace, list) and trace.column("k").tolist() == list(range(5))
        assert [field.name for field in fields(state)] == ["eps_pri", "eps_dual"]

    def test_overflowing_gram_of_finite_input_diverges(self):
        # H is finite, so the input checks pass, but its Gram overflows and so does S: set-up refuses it
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=10, eps_abs=0.0, eps_rel=0.0)
        with pytest.raises(DivergenceError, match="not finite at rho 1.0"):
            solve_consensus_lasso(np.full((6, 10), 1e200), np.ones(6), params, 3)

    def test_run_memory_does_not_grow_with_block_count(self, rng):
        # the per-block u_i and s_i are never formed: a run's peak is O(n_p + M) for any N
        h = rand_complex(rng, 64, 4000)
        g = rand_complex(rng, 64)
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=20, eps_abs=0.0, eps_rel=0.0)
        peaks = {}
        for n_blocks in (1, 64):
            engine = ConsensusLassoSolver(h, g, params, n_blocks)
            tracemalloc.start()
            try:
                engine.run()
                peaks[n_blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.5 * peaks[1], peaks

    def test_objective_overflow_raises_divergence(self):
        params = AdmmParams(lam=0.0, rho=1.0, max_iter=10, eps_abs=0.0, eps_rel=0.0)
        with pytest.raises(DivergenceError, match="iteration 0"):
            solve_consensus_lasso(np.array([[1.0]]), np.array([1e308]), params, 1)

    def test_lam_beyond_the_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="lam"):
            AdmmParams(lam=HUGE, rho=1.0)

    def test_rho_beyond_the_float_range_raises_value_error(self):
        with pytest.raises(ValueError, match="rho"):
            AdmmParams(lam=0.1, rho=HUGE)

    @pytest.mark.parametrize("eps, norms", [(0.0, 25), (1e-300, 3 * 25)])
    def test_thresholds_are_formed_only_when_read(self, rng, eps, norms):
        # the primal residual takes one Gram-form norm per iteration; the thresholds
        # take two more under the stopping rule, and zero tolerances make them zero
        counts = []

        class Counting(ConsensusLassoSolver):
            def _stacked_sq_norm(self, *args):
                counts.append(1)
                return super()._stacked_sq_norm(*args)

        h, g = rand_complex(rng, 6, 20), rand_complex(rng, 6)
        params = AdmmParams(lam=0.1, rho=1.0, max_iter=25, eps_abs=eps, eps_rel=eps)
        _, trace, state = Counting(h, g, params, 3).run()
        assert len(trace) == 25
        assert len(counts) == norms
        if eps == 0.0:
            assert (state.eps_pri, state.eps_dual) == (0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eps_abs", "eps_rel"])
    def test_tolerance_not_finite_raises_value_error(self, field, value):
        # a NaN tolerance would spend the whole budget and report eps_pri as NaN
        with pytest.raises(ValueError, match="tolerances must be finite and >= 0"):
            AdmmParams(lam=0.1, rho=1.0, **{field: value})

    @pytest.mark.parametrize("max_iter", [2.5, True])
    def test_budget_that_is_not_an_integer_raises_value_error(self, max_iter):
        # 2.5 would fail later inside range(), True would run one iteration
        with pytest.raises(ValueError, match="max_iter must be >= 1 and an integer"):
            AdmmParams(lam=0.1, rho=1.0, max_iter=max_iter)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            AdmmParams(lam=-1.0, rho=1.0)
        with pytest.raises(ValueError):
            AdmmParams(lam=0.0, rho=0.0)
        with pytest.raises(ValueError):
            AdmmParams(lam=0.0, rho=1.0, max_iter=0)


def test_readme_library_quick_start_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    stop_reason, n_iter, primal, eps_pri = capsys.readouterr().out.split()
    assert stop_reason in ("converged", "max_iter") and 1 <= int(n_iter) <= 1000
    assert math.isfinite(float(primal)) and float(eps_pri) > 0


def toy_problem():
    """The CLI toy: 6 x 32 surrogate H and the noiseless measurement of a one-box phantom."""
    cfg = ScenarioConfig(n_theta=3, n_freq=2, grid=(4, 4, 2), roi_extent=(6.0, 6.0, 3.0), rng_seed=5)
    h = synthesize_sensing_matrix(cfg).entries
    phantom = build_phantom(cfg, [(((0, 2), (0, 2), (0, 1)), 1.0)])
    return h, h @ phantom.reflectivity


class TestOverflowingRho:
    """An overflow of the set-up's G_ii / rho or of the step's (g - H z) / rho is a DivergenceError, never a warning."""

    def test_woodbury_overflow_raises_at_setup(self):
        h, g = toy_problem()
        op = SensingOperator(h)
        with pytest.raises(DivergenceError, match=r"not finite at rho 1e-310$"):
            ConsensusLassoSolver(op, g, AdmmParams(lam=0.05, rho=1e-310, max_iter=50), 3)
        # G is finite; G_ii / rho overflowed, with no warning, and S is nan on every block
        blocks = partition_rows(6, 3)
        assert np.isfinite(op.block_gram(blocks)).all()
        s = op.woodbury(blocks, 1e-310)
        assert not any(np.isfinite(s[lo:hi, lo:hi]).any() for lo, hi in blocks)

    def test_step_overflow_raises_from_run(self):
        h, g = toy_problem()
        engine = ConsensusLassoSolver(h, 1e10 * g, AdmmParams(lam=0.05, rho=1e-300, max_iter=50), 3)
        assert np.isfinite(engine.woodbury).all()
        seen = []
        with pytest.raises(DivergenceError, match=r"^non-finite iterate at iteration 0$"):
            engine.run(seen.append)
        assert seen == []


class TestSharedWoodbury:
    def test_engines_of_one_partition_and_rho_share_s(self, rng):
        h, g = rand_complex(rng, 9, 40), rand_complex(rng, 9)
        op = SensingOperator(h)
        first, second, other_lam, other_rho, other_blocks = (
            ConsensusLassoSolver(op, g, AdmmParams(lam=lam, rho=rho), n_blocks)
            for lam, rho, n_blocks in ((0.1, 1.0, 3), (0.1, 1.0, 3), (0.5, 1.0, 3), (0.1, 2.0, 3), (0.1, 1.0, 2)))
        assert second.woodbury is first.woodbury and other_lam.woodbury is first.woodbury
        assert other_rho.woodbury is not first.woodbury and other_blocks.woodbury is not first.woodbury
        assert other_rho.woodbury.tobytes() != first.woodbury.tobytes()
        for a, b in zip(first.block_solvers, second.block_solvers):
            assert np.shares_memory(a.small_inverse, b.small_inverse)
