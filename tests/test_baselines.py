import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    SensingOperator,
    DivergenceError,
    check_lasso_kkt,
    evaluate_objective,
    soft_threshold,
    solve_consensus_lasso,
    solve_fista,
    solve_pseudoinverse,
)
from cradmm import baselines, linop
from cradmm.baselines import GRAM_COND_LIMIT, LIPSCHITZ_FLOOR, TRUNCATION_MARGIN, FistaParams
from cradmm.linop import triangular_factor


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
        for rows, cols in ((0, 4), (3, 0), (0, 0)):  # an empty H: no SVD, and an estimate of n zeros
            u = solve_pseudoinverse(np.zeros((rows, cols)), np.ones(rows))
            assert u.shape == (cols,) and np.all(u == 0)

    def test_tolerance_bounds(self, rng):
        h = rand_complex(rng, 2, 2)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="trunc_rel_tol"):
                solve_pseudoinverse(h, rand_complex(rng, 2), bad)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            solve_pseudoinverse(rand_complex(rng, 3, 4), rand_complex(rng, 4))


    def test_tracemalloc_peak_is_a_fraction_of_h(self, rng):
        # wide, as at the demo scale: only slices of H and its min(M, n) factor are held
        h = rand_complex(rng, 16, 100_000)
        g = rand_complex(rng, 16)
        tracemalloc.start()
        try:
            solve_pseudoinverse(h, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes / 4, f"peak {peak} bytes against {h.nbytes} bytes of H"


EPS = np.finfo(float).eps
# singular values this close to the truncation threshold, relatively, straddle it
STRADDLE = 1e-3


def with_singular_values(rng, rows, cols, sing):
    """rows x cols complex matrix with the given singular values."""
    left = np.linalg.qr(rand_complex(rng, rows, len(sing)))[0]
    right = np.linalg.qr(rand_complex(rng, cols, len(sing)))[0]
    return (left * sing) @ right.conj().T


@st.composite
def pinv_instances(draw):
    shape = draw(st.sampled_from(["wide", "tall", "square", "one-row"]))
    small = draw(st.integers(1, 7))
    large = small + draw(st.integers(1, 8))
    rows, cols = {"wide": (small, large), "tall": (large, small), "square": (small, small),
                  "one-row": (1, large)}[shape]
    kind = draw(st.sampled_from(["random", "rank-deficient", "zero", "straddle", "top-singular"]))
    # "top-singular" keeps every singular value, so its cond reaches 1e8
    tol = 1e-10 if kind == "top-singular" else draw(st.sampled_from([1e-10, 1e-6, 1e-3, 0.1]))
    # at 1e200 and 1e-170 the squared singular values leave the float range; from 1e-150 down and
    # from 1e150 up they leave the range in which the Gram route may divide by them
    scale = 10.0 ** draw(st.one_of(st.integers(-3, 3),
                                   st.sampled_from([-200, -170, -160, -155, -150, 150, 154, 170, 200])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(rows, cols)
    if kind == "random":
        h = rand_complex(rng, rows, cols)
    elif kind == "rank-deficient":
        rank = int(rng.integers(0, k)) if k > 1 else 0
        h = rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)
    elif kind == "zero":
        h = np.zeros((rows, cols), dtype=complex)
    elif kind == "straddle":
        # sigma_max = 1, the smallest just below the threshold, the next just above it
        sing = np.sort(np.exp(rng.uniform(np.log(10 * tol), 0.0, k)))[::-1]
        sing[0] = 1.0
        if k > 1:
            sing[-1] = tol * (1 - STRADDLE)
        if k > 2:
            sing[-2] = tol * (1 + STRADDLE)
        h = with_singular_values(rng, rows, cols, sing)
    else:  # "top-singular"
        cond = 10.0 ** draw(st.integers(0, 8)) if k > 1 else 1.0
        sing = np.sort(np.exp(rng.uniform(-np.log(cond), 0.0, k)))[::-1]
        sing[0], sing[-1] = 1.0, 1.0 / cond
        h = with_singular_values(rng, rows, cols, sing)
    # for "top-singular", g = H v_1 (v_1 the top right singular vector) and the estimate is v_1:
    # a form whose error grows as cond^2, such as the normal equations of a tall H, misses it
    g = h @ np.linalg.svd(h)[2][0].conj() if kind == "top-singular" else rand_complex(rng, rows)
    return scale * h, scale * g, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pinv_instances())
def test_pseudoinverse_matches_dense_pinv(instance):
    h, g, tol = instance
    assert_matches_dense_pinv(h, g, tol, solve_pseudoinverse(h, g, tol))


def assert_matches_dense_pinv(h, g, tol, got):
    expected = np.linalg.pinv(h, rcond=tol) @ g
    sing = np.linalg.svd(h, compute_uv=False)
    if sing[0] == 0.0:
        assert np.all(got == 0)
        return
    # Both sides carry rounding of order eps * cond, cond being that of H on the
    # kept singular subspace; that subspace is itself determined only up to
    # eps / relgap, relgap being its relative distance from the dropped values.
    keep = sing > tol * sing[0]
    cond = sing[0] / sing[keep][-1]
    relgap = 1.0 - sing[~keep][0] / sing[keep][-1] if not keep.all() else 1.0
    bound = 50 * EPS * cond * (1.0 + 1.0 / relgap)
    assert np.linalg.norm(got - expected) <= bound * np.linalg.norm(expected)


class TestPseudoinverseRoute:
    """A well-conditioned wide H takes the operator's Gram; every other H the streamed QR factor."""

    @staticmethod
    def _conditioned(rng, rows, cols, cond):
        sing = np.geomspace(1.0, 1.0 / cond, min(rows, cols))
        return with_singular_values(rng, rows, cols, sing)

    @staticmethod
    def _count_factors(monkeypatch):
        shapes = []

        def counted(h, rhs=None):
            shapes.append(h.shape)
            return triangular_factor(h, rhs)

        monkeypatch.setattr(baselines, "triangular_factor", counted)
        return shapes

    @pytest.mark.parametrize("rows, cols, cond, scale", [
        (1, 6, 1.0, 1.0), (5, 5, 10.0, 1.0), (12, 480, 3.0, 1.0), (6, 20, 0.99 * GRAM_COND_LIMIT, 1.0),
        (6, 20, 4.0, 1e-140), (6, 20, 4.0, 1e140),
    ])
    def test_well_conditioned_wide_h_never_factors(self, rng, monkeypatch, rows, cols, cond, scale):
        def refuse(h, rhs=None):
            raise AssertionError("the streamed QR factor was formed")

        monkeypatch.setattr(baselines, "triangular_factor", refuse)
        h = scale * self._conditioned(rng, rows, cols, cond)
        g = scale * rand_complex(rng, rows)
        assert_matches_dense_pinv(h, g, 1e-10, solve_pseudoinverse(h, g, 1e-10))

    @pytest.mark.parametrize("case", ["rank-deficient", "straddle", "just-above-threshold", "cond-1e8",
                                      "past-cond-limit", "gram-overflows", "1e-160", "1e-155", "1e-150",
                                      "1e150", "1e154", "H-only-1e-200", "H-only-1e-160", "H-only-1e154",
                                      "H-only-1e200"])
    def test_other_wide_h_takes_the_streamed_factor(self, rng, monkeypatch, case):
        shapes = self._count_factors(monkeypatch)
        rows, cols, tol = 5, 12, 1e-10
        h_only = case.startswith("H-only-")  # only H is scaled, so the estimate scales by 1 / scale
        case = case.removeprefix("H-only-")
        scale = float(case) if case.startswith("1e") else 1e200 if case == "gram-overflows" else 1.0
        if case == "rank-deficient":
            h = rand_complex(rng, rows, 3) @ rand_complex(rng, 3, cols)
        elif case in ("straddle", "just-above-threshold"):
            # sigma_min / sigma_max just below the threshold, or above it by less than TRUNCATION_MARGIN
            tol = 0.1
            above = 1 + 0.1 * TRUNCATION_MARGIN if case == "just-above-threshold" else 1 - STRADDLE
            h = with_singular_values(rng, rows, cols, np.array([1.0, 0.6, 0.3, tol * (1 + STRADDLE), tol * above]))
        elif case == "cond-1e8":
            h = self._conditioned(rng, rows, cols, 1e8)
        elif case == "past-cond-limit":
            h = self._conditioned(rng, rows, cols, 1.01 * GRAM_COND_LIMIT)
        elif case == "gram-overflows":
            h = rand_complex(rng, rows, cols)
        else:
            h = self._conditioned(rng, rows, cols, 2.0)
        g = rand_complex(rng, rows)
        if h_only:
            # singular values from 50 to 100, the order of the demo H's; pinv(s H) g = pinv(H) g / s,
            # and the norms in the bound would overflow on an estimate near 1e200
            h = 100.0 * h
            got = solve_pseudoinverse(scale * h, g, tol)
            assert_matches_dense_pinv(h, g, tol, scale * got)
        else:
            h, g = scale * h, scale * g
            assert_matches_dense_pinv(h, g, tol, solve_pseudoinverse(h, g, tol))
        assert shapes == [(rows, cols)]

    def test_tall_h_takes_the_factor_of_h_and_g(self, rng, monkeypatch):
        shapes = self._count_factors(monkeypatch)
        h = self._conditioned(rng, 12, 5, 2.0)
        g = rand_complex(rng, 12)
        assert_matches_dense_pinv(h, g, 1e-10, solve_pseudoinverse(h, g))
        assert shapes == [(12, 5)]

    def test_gram_is_shared_with_fista(self, rng, monkeypatch):
        # FISTA's step forms the Gram; the pseudoinverse reads it and gives the bytes of a fresh operator's
        h = rand_complex(rng, 8, 60)
        g = rand_complex(rng, 8)
        fresh = solve_pseudoinverse(h, g)
        op = SensingOperator(h)
        solve_fista(op, g, 0.1, max_iter=3)
        monkeypatch.setattr(linop, "gram", lambda h: pytest.fail("a second Gram was formed"))
        assert solve_pseudoinverse(op, g).tobytes() == fresh.tobytes()


BAD_LAMBDAS = [math.nan, math.inf, -math.inf, 10**400, -0.1]
BAD_TOLERANCES = [math.nan, math.inf, -1e-3]
# FISTA's two entry points that check its arguments: the solver, and the FistaParams it builds
FISTA_ENTRIES = [lambda lam, **kwargs: solve_fista(np.eye(2), np.ones(2), lam, **kwargs), FistaParams]


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

    def test_empty_h_runs(self):
        # no columns: the estimate is empty and the objective stays 0.5 ||g||^2
        u, trace = solve_fista(np.zeros((2, 0)), np.array([1.0, 1.0j]), 0.1, max_iter=5, tol=0.0)
        assert u.shape == (0,) and len(trace) == 5
        assert np.all(trace.column("objective") == 1.0)

    def test_trace_iterations_and_stop(self, rng):
        h = rand_complex(rng, 4, 4)
        g = rand_complex(rng, 4)
        _, trace = solve_fista(h, g, 0.1, max_iter=50, tol=0.0)
        assert len(trace) == 50
        _, trace_tol = solve_fista(h, g, 0.1, max_iter=5000, tol=1e-6)
        assert len(trace_tol) < 5000

    def test_on_iteration_receives_the_trace_in_order(self, rng):
        h = rand_complex(rng, 5, 9)
        g = rand_complex(rng, 5)
        for max_iter, tol in ((40, 0.0), (5000, 1e-6)):
            seen = []
            _, trace = solve_fista(h, g, 0.2, max_iter=max_iter, tol=tol, on_iteration=seen.append)
            assert len(seen) == len(trace)
            assert all(got is record for got, record in zip(seen, trace))
            assert [r.k for r in seen] == list(range(len(trace)))

    def test_step_norm_past_the_float_range_is_finite(self):
        # ||x_1 - x_0||^2 = 1e616 overflows; the estimate and its step do not
        u, trace = solve_fista([[1.0]], [1e308], 0.0)
        assert trace.stop_reason == "converged"
        assert np.all(np.isfinite(u))
        assert trace[0].primal_residual == abs(u[0])
        assert np.all(np.isfinite(trace.column("primal_residual")))

    def test_non_finite_objective_raises(self):
        # lam * |x| = 2e308 overflows on the first iterate
        with pytest.raises(DivergenceError, match="iteration 0"):
            solve_fista([[1.0]], [1e308], 2.0)

    @pytest.mark.parametrize("h, norm", [([[1e200]], "inf"), ([[1e200, 0.0], [0.0, 1e200]], "inf"),
                                         (np.full((3, 5), 1e200), "inf"), ([[1.0, np.nan]], "nan"),
                                         (np.full((3, 5), 1e160 + 1e160j), "inf")],
                             ids=["h0", "h1", "h2", "h3", "h4"])
    def test_non_finite_lipschitz_constant_raises(self, h, norm):
        # a finite H whose Gram overflows has ||H||^2 = inf: the second's Gram holds inf + nan j, the
        # third's is all inf, on which an eigenvalue solver need not converge, and the last's may be all
        # nan; an H holding a NaN has no norm
        with pytest.raises(DivergenceError, match=rf"^\|\|H\|\|\^2 is not finite: {norm}$"):
            solve_fista(h, np.ones(len(h)), 0.1)

    def test_subnormal_lipschitz_constant_is_floored_and_certified_without_a_warning(self, rng):
        # ||H||^2 is subnormal, so the step's divide by it, a product with 1 / ||H||^2, would overflow;
        # the set-up floors it at the least L whose reciprocal is finite, and the run then certifies
        with np.errstate(over="ignore"):
            assert np.isfinite(1.0 / LIPSCHITZ_FLOOR) and np.isinf(1.0 / np.nextafter(LIPSCHITZ_FLOOR, 0.0))
        h = 1e-160 * rand_complex(rng, 6, 20)
        assert 0.0 < SensingOperator(h).norm_squared() < LIPSCHITZ_FLOOR
        g = rand_complex(rng, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, trace = solve_fista(h, g, 0.1)
            assert trace.stop_reason == "converged"
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(trace.column("objective")))
            assert check_lasso_kkt(h, g, 0.1, u, 1e-2 * 0.1).passed

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            solve_fista(rand_complex(rng, 3, 4), rand_complex(rng, 4), 0.1)

    # each argument check below is made through both entry points in FISTA_ENTRIES
    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_lambda_not_finite_and_nonnegative_raises_value_error(self, lam):
        # a bad argument, not a solver failure: no DivergenceError
        for entry in FISTA_ENTRIES:
            with pytest.raises(ValueError, match="lam must be finite and >= 0"):
                entry(lam)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_budget_below_one_raises_value_error(self, max_iter):
        for entry in FISTA_ENTRIES:
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                entry(0.1, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True])
    def test_budget_that_is_not_an_integer_raises_value_error(self, max_iter):
        for entry in FISTA_ENTRIES:
            with pytest.raises(ValueError, match="max_iter must be >= 1 and an integer"):
                entry(0.1, max_iter=max_iter)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_tolerance_not_finite_and_nonnegative_raises_value_error(self, tol):
        for entry in FISTA_ENTRIES:
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                entry(0.1, tol=tol)


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

    def test_overflowing_certificate_is_non_finite_without_a_warning(self):
        # H, g and v are finite, but ||H v - g||^2 and H^H (H v - g) overflow: the caller reports it
        report = check_lasso_kkt([[1e200], [1e200]], [1e200, -1e200], 0.1, [1.0], 0.0)
        assert not math.isfinite(report.objective) and not math.isfinite(report.violation)
        assert not report.passed

    def test_violation_is_nan_when_one_residual_is(self):
        # H^H g takes 1e350 - 1e350 = inf - inf in its first entry; the objective stays finite
        report = check_lasso_kkt([[1e200, 1], [-1e200, 1]], [1e150, 1e150], 0.5, [0.0, 0.0], 0.0)
        assert math.isnan(report.max_inactive_excess) and math.isfinite(report.objective)
        assert math.isnan(report.violation)
        assert not report.passed

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            check_lasso_kkt(rand_complex(rng, 3, 4), rand_complex(rng, 3), 1.0, rand_complex(rng, 5), 1e-4)

    @pytest.mark.parametrize("lam", BAD_LAMBDAS)
    def test_lambda_not_finite_and_nonnegative_raises_value_error(self, lam):
        # lam = inf would pass every inactive entry, lam = nan report a nan excess
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            check_lasso_kkt(np.eye(2), np.ones(2), lam, np.zeros(2), 1e-4)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_tolerance_not_finite_and_nonnegative_raises_value_error(self, tol):
        # a NaN or negative tolerance would fail every point, an infinite one pass it
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_lasso_kkt(np.eye(2), np.ones(2), 0.1, np.zeros(2), tol)


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
