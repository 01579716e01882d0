import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    check_lasso_kkt,
    evaluate_objective,
    soft_threshold,
    solve_consensus_lasso,
    solve_fista,
    solve_pseudoinverse,
)


class TestPseudoinverse:
    def test_identity_returns_measurement(self, rng):
        g = rand_complex(rng, 6)
        np.testing.assert_allclose(solve_pseudoinverse(np.eye(6), g), g, rtol=1e-12)

    def test_rank_deficient_minimum_norm(self):
        h = np.array([[1.0, 0.0], [0.0, 0.0]])
        u = solve_pseudoinverse(h, np.array([2.0, 5.0]))
        np.testing.assert_allclose(u, [2.0, 0.0], atol=1e-12)

    def test_reproduces_range_projection(self, rng):
        # oracle: H @ least-squares solution from an independent LAPACK driver
        h = rand_complex(rng, 4, 10)
        h[3] = h[0] + h[1]  # force rank deficiency so truncation matters
        g = rand_complex(rng, 4)
        u = solve_pseudoinverse(h, g)
        x_ls, *_ = np.linalg.lstsq(h, g, rcond=None)
        projection = h @ x_ls
        assert np.linalg.norm(h @ u - projection) <= 1e-10 * np.linalg.norm(projection)

    def test_residual_beats_random_candidates(self, rng):
        h = rand_complex(rng, 5, 12)
        g = rand_complex(rng, 5)
        u = solve_pseudoinverse(h, g)
        best = np.linalg.norm(h @ u - g)
        for _ in range(100):
            cand = rand_complex(rng, 12)
            assert best <= np.linalg.norm(h @ cand - g) + 1e-10

    def test_zero_matrix_gives_zero(self):
        u = solve_pseudoinverse(np.zeros((3, 4)), np.ones(3))
        assert np.all(u == 0)

    def test_tolerance_bounds(self, rng):
        h = rand_complex(rng, 2, 2)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="trunc_rel_tol"):
                solve_pseudoinverse(h, rand_complex(rng, 2), bad)


class TestFista:
    def test_identity_closed_form(self):
        u, _ = solve_fista(np.eye(2), np.array([3.0, 0.5]), 1.0, max_iter=2000, tol=0.0)
        assert np.max(np.abs(u - np.array([2.0, 0.0]))) <= 1e-6

    def test_zero_lambda_least_squares(self, rng):
        # oracle: normal equations on an overdetermined full-rank system
        h = rand_complex(rng, 15, 6)
        g = rand_complex(rng, 15)
        expected = np.linalg.solve(h.conj().T @ h, h.conj().T @ g)
        u, _ = solve_fista(h, g, 0.0, max_iter=5000, tol=0.0)
        assert np.max(np.abs(u - expected)) <= 1e-6

    def test_agrees_with_consensus_solver(self, rng):
        h = rand_complex(rng, 10, 30)
        g = rand_complex(rng, 10)
        lam = 0.15 * float(np.max(np.abs(h.conj().T @ g)))
        u_f, trace_f = solve_fista(h, g, lam, max_iter=20000, tol=1e-16)
        params = AdmmParams(lam=lam, rho=1.0, max_iter=10000, eps_abs=1e-10, eps_rel=1e-10)
        v, trace_a, _ = solve_consensus_lasso(h, g, params, 4)
        fa = trace_f[-1].objective
        fb = trace_a[-1].objective
        assert abs(fa - fb) <= 1e-5 * min(fa, fb)

    def test_running_minimum_non_increasing(self, rng):
        h = rand_complex(rng, 8, 25)
        g = rand_complex(rng, 8)
        _, trace = solve_fista(h, g, 0.5, max_iter=300, tol=0.0)
        objectives = trace.column("objective")
        running_min = np.minimum.accumulate(objectives)
        assert np.all(np.diff(running_min) <= 0.0 + 1e-18)

    def test_first_step_is_exact_inverse_lipschitz(self, rng):
        # from x = 0 with lam = 0 the first iterate is H^H g / ||H||_2^2
        for shape in ((5, 17), (17, 5)):
            h = rand_complex(rng, *shape)
            g = rand_complex(rng, shape[0])
            u, _ = solve_fista(h, g, 0.0, max_iter=1, tol=0.0)
            np.testing.assert_allclose(u, h.conj().T @ g / np.linalg.norm(h, 2) ** 2, rtol=1e-12)

    def test_trace_iterations_and_stop(self, rng):
        h = rand_complex(rng, 4, 4)
        g = rand_complex(rng, 4)
        _, trace = solve_fista(h, g, 0.1, max_iter=50, tol=0.0)
        assert len(trace) == 50
        _, trace_tol = solve_fista(h, g, 0.1, max_iter=5000, tol=1e-6)
        assert len(trace_tol) < 5000


class TestKkt:
    def test_prox_solution_passes(self, rng):
        g = rand_complex(rng, 10)
        v = soft_threshold(g, 0.7)
        assert check_lasso_kkt(np.eye(10), g, 0.7, v, 1e-10).passed

    def test_zero_solution_condition(self, rng):
        h = rand_complex(rng, 4, 9)
        g = rand_complex(rng, 4)
        lam = float(np.max(np.abs(h.conj().T @ g)))
        report = check_lasso_kkt(h, g, lam * 1.0000001, np.zeros(9), 1e-10)
        assert report.passed
        assert report.max_active_violation == 0.0

    def test_perturbed_optimum_fails(self, rng):
        # oracle-verified optimum first, then a deliberate nudge
        h = rand_complex(rng, 6, 12)
        g = rand_complex(rng, 6)
        lam = 0.3 * float(np.max(np.abs(h.conj().T @ g)))
        params = AdmmParams(lam=lam, rho=1.0, max_iter=8000, eps_abs=1e-10, eps_rel=1e-10)
        v, _, _ = solve_consensus_lasso(h, g, params, 3)
        assert check_lasso_kkt(h, g, lam, v, 1e-4).passed
        nudged = v.copy()
        nudged[0] += 0.1
        assert not check_lasso_kkt(h, g, lam, nudged, 1e-4).passed

    def test_lambda_zero_degenerates_to_gradient_norm(self, rng):
        h = rand_complex(rng, 8, 5)
        g = rand_complex(rng, 8)
        exact = np.linalg.solve(h.conj().T @ h, h.conj().T @ g)
        assert check_lasso_kkt(h, g, 0.0, exact, 1e-8).passed
        assert not check_lasso_kkt(h, g, 0.0, exact + 0.05, 1e-8).passed

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            check_lasso_kkt(rand_complex(rng, 3, 4), rand_complex(rng, 3), 1.0, rand_complex(rng, 5), 1e-4)


class TestCrossSolverAgreement:
    def test_small_instance_family(self, rng):
        # lighter version of the acceptance sweep: three lambda decades
        for decade in (-3, -2, -1):
            m = int(rng.integers(6, 13))
            n = int(rng.integers(m, 41))
            h = rand_complex(rng, m, n)
            g = rand_complex(rng, m)
            lam = 10.0**decade * float(np.max(np.abs(h.conj().T @ g)))
            params = AdmmParams(lam=lam, rho=1.0, max_iter=5000, eps_abs=1e-8, eps_rel=1e-8)
            v, trace_a, _ = solve_consensus_lasso(h, g, params, 4)
            u_f, trace_f = solve_fista(h, g, lam, max_iter=20000, tol=1e-16)
            fa, fb = trace_a[-1].objective, trace_f[-1].objective
            assert abs(fa - fb) <= 1e-4 * min(fa, fb)
            assert check_lasso_kkt(h, g, lam, v, 1e-3).passed
            assert check_lasso_kkt(h, g, lam, u_f, 1e-3).passed
