import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import rand_complex
from cradmm import (
    AdmmParams,
    ConsensusLassoSolver,
    SensingMatrix,
    check_lasso_kkt,
    evaluate_objective,
    linop,
    solve_consensus_lasso,
    solve_fista,
    solve_pseudoinverse,
)
from cradmm.admm import precompute_block_solver, prox_step, soft_threshold_support
from cradmm.linop import (
    GRAM_CHUNK_ENTRIES,
    SPARSE_FRACTION,
    SensingOperator,
    SupportProducts,
    adjoint,
    all_finite,
    as_operator,
    column_norms,
    gram,
    triangular_factor,
)


def rank_deficient(rng, rows, cols, rank):
    return rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)


class TestNormSquared:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rand_complex(rng, 12, 40),  # wide
            lambda rng: rand_complex(rng, 40, 12),  # tall
            lambda rng: rand_complex(rng, 17, 17),  # square
            lambda rng: rank_deficient(rng, 9, 30, 2),
            lambda rng: rank_deficient(rng, 30, 9, 3),
            lambda rng: rand_complex(rng, 1, 25),
            lambda rng: rand_complex(rng, 25, 1),
        ],
        ids=["wide", "tall", "square", "rank2-wide", "rank3-tall", "one-row", "one-column"],
    )
    def test_matches_dense_spectral_norm(self, rng, make):
        h = make(rng)
        expected = np.linalg.norm(h, 2) ** 2
        assert SensingOperator(h).norm_squared() == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix(self):
        assert SensingOperator(np.zeros((4, 9), dtype=complex)).norm_squared() == 0.0
        assert SensingOperator(np.zeros((9, 4), dtype=complex)).norm_squared() == 0.0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        # an empty H has an empty Gram, not a slice width divided by zero rows
        assert SensingOperator(np.zeros(shape)).norm_squared() == 0.0
        assert gram(np.zeros(shape)).shape == (shape[0], shape[0])

    def test_real_input(self, rng):
        h = rng.standard_normal((6, 11))
        assert SensingOperator(h).norm_squared() == pytest.approx(np.linalg.norm(h, 2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, GRAM_CHUNK_ENTRIES + 5), (GRAM_CHUNK_ENTRIES // 2 + 7, 2)])
    def test_gram_accumulates_across_slices(self, rng, shape):
        # more columns (rows) than one slice holds, with a ragged last slice; a tall H's is that of H^T
        h = rand_complex(rng, *shape)
        got, expected = (gram(h), h @ h.conj().T) if shape[0] <= shape[1] else (gram(h.T), h.T @ h.conj())
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


class TestTriangularFactor:
    @pytest.mark.parametrize(
        "shape",
        [(12, 40), (40, 12), (17, 17), (1, 25), (25, 1),
         (3, GRAM_CHUNK_ENTRIES // 3 + 5), (GRAM_CHUNK_ENTRIES // 2 + 7, 2), (400, 900)],
        ids=["wide", "tall", "square", "one-row", "one-column", "wide-sliced", "tall-sliced",
             "slices-shorter-than-r"],
    )
    def test_square_triangular_with_the_gram_of_h(self, rng, shape):
        h = rand_complex(rng, *shape)
        r = triangular_factor(h)
        k = min(shape)
        assert r.shape == (k, k)
        assert np.all(np.tril(r, -1) == 0)
        # H^T = Q R for a wide H, H = Q R for a tall one
        expected = h @ h.conj().T if shape[0] <= shape[1] else h.conj().T @ h
        got = (r.T @ r.conj()) if shape[0] <= shape[1] else r.conj().T @ r
        np.testing.assert_allclose(got, expected, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(np.linalg.svd(r, compute_uv=False), np.linalg.svd(h, compute_uv=False),
                                   rtol=1e-12)

    def test_rank_deficient_singular_values(self, rng):
        h = rank_deficient(rng, 9, 30, 2)
        sing = np.linalg.svd(triangular_factor(h), compute_uv=False)
        assert np.all(sing[2:] <= 1e-12 * sing[0])
        np.testing.assert_allclose(sing[:2], np.linalg.svd(h, compute_uv=False)[:2], rtol=1e-12)

    # 43697 rows of [H g] span more than one slice, with a ragged last one, for any
    # GRAM_CHUNK_ENTRIES up to 1 << 17
    @pytest.mark.parametrize("rows", [40, 43697])
    def test_rhs_column_carries_q_adjoint(self, rng, rows):
        # the factor of [H g] is [[R, Q^H g], [0, rho]] with ||g||^2 = ||Q^H g||^2 + rho^2
        h = rand_complex(rng, rows, 3)
        g = rand_complex(rng, rows)
        aug = triangular_factor(h, g)
        assert aug.shape == (4, 4)
        r, z = aug[:3, :3], aug[:3, 3]
        np.testing.assert_allclose(r.conj().T @ z, h.conj().T @ g, rtol=1e-10)
        assert np.vdot(aug[:, 3], aug[:, 3]).real == pytest.approx(np.vdot(g, g).real, rel=1e-12)

    def test_rhs_needs_a_tall_matrix(self, rng):
        with pytest.raises(ValueError, match="tall"):
            triangular_factor(rand_complex(rng, 3, 5), rand_complex(rng, 3))


class TestProducts:
    def test_adjoint_matches_conjugate_transpose(self, rng):
        h = rand_complex(rng, 7, 30)
        r = rand_complex(rng, 7)
        np.testing.assert_allclose(SensingOperator(h).adjoint(r), h.conj().T @ r, rtol=1e-13)

    def test_forward_matches_matmul(self, rng):
        h = rand_complex(rng, 7, 30)
        x = rand_complex(rng, 30)
        assert SensingOperator(h).forward(x).tobytes() == (h @ x).tobytes()

    def test_adjoint_identity(self, rng):
        # <H x, r> = <x, H^H r>
        op = SensingOperator(rand_complex(rng, 5, 13))
        x, r = rand_complex(rng, 13), rand_complex(rng, 5)
        assert np.vdot(op.forward(x), r) == pytest.approx(np.vdot(x, op.adjoint(r)), rel=1e-12)

    def test_no_copy_of_contiguous_complex_input(self, rng):
        h = rand_complex(rng, 4, 9)
        assert SensingOperator(h).h is h


class TestAllFinite:
    @pytest.mark.parametrize("shape", [(3, GRAM_CHUNK_ENTRIES + 5), (GRAM_CHUNK_ENTRIES // 2 + 7, 4),
                                       (2 * GRAM_CHUNK_ENTRIES + 3,)])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_finds_a_non_finite_entry_in_any_slice(self, rng, shape, bad):
        a = rand_complex(rng, *shape)
        assert all_finite(a)
        for p in (0, a.size // 2, a.size - 1):
            b = a.copy()
            b.flat[p] = bad
            assert not all_finite(b)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (5, 0)])
    def test_empty_is_finite(self, shape):
        assert all_finite(np.zeros(shape, dtype=complex))


class TestSharedOperator:
    """One SensingOperator serves every entry point, and keeps the factors of H alone."""

    @staticmethod
    def _problem(rng):
        h = rand_complex(rng, 12, 480)
        u = np.zeros(480, dtype=complex)
        u[rng.choice(480, 4, replace=False)] = rand_complex(rng, 4)
        g = h @ u + 0.01 * rand_complex(rng, 12)
        return h, g, 0.05 * float(np.max(np.abs(h.conj().T @ g)))

    @staticmethod
    def _results(h, g, lam):
        """Every entry point that takes H, as raw bytes and plain values."""
        params = AdmmParams(lam=lam, rho=1.0, max_iter=80, eps_abs=1e-9, eps_rel=1e-9)
        v, trace, state = ConsensusLassoSolver(h, g, params, 3).run()
        v2, trace2, _ = solve_consensus_lasso(h, g, params, 4)
        x, ftrace = solve_fista(h, g, lam, max_iter=200, tol=0.0)
        kkt = check_lasso_kkt(h, g, lam, x, 1e-3)
        return [
            v.tobytes(), [astuple(r)[:4] for r in trace], state.eps_pri, state.eps_dual,
            trace.sparse_forward_iters, trace.screened_adjoint_iters,
            v2.tobytes(), [astuple(r)[:4] for r in trace2],
            x.tobytes(), [astuple(r)[:4] for r in ftrace], ftrace.screened_adjoint_iters,
            astuple(kkt), evaluate_objective(h, g, x, lam),
            solve_pseudoinverse(h, g, 1e-10).tobytes(),
        ]

    def test_operator_and_array_give_the_same_bytes(self, rng):
        h, g, lam = self._problem(rng)
        expected = self._results(h, g, lam)
        assert expected[5] > 0 and expected[10] > 0  # both solvers screened
        op = SensingOperator(h)
        # a fresh operator, then the same one again with every factor already formed
        assert self._results(op, g, lam) == expected
        assert set(op._factors) == {"gram", "norm_squared", "column_norms",
                                    ("block_gram", ((0, 4), (4, 8), (8, 12))),
                                    ("block_gram", ((0, 3), (3, 6), (6, 9), (9, 12)))}
        assert self._results(op, g, lam) == expected
        assert self._results(SensingMatrix(entries=h), g, lam) == expected

    def test_factors_are_formed_once(self, rng, monkeypatch):
        op = SensingOperator(rand_complex(rng, 5, 40))
        formed = []
        monkeypatch.setattr(linop, "gram", lambda h: formed.append("gram") or gram(h))
        monkeypatch.setattr(linop, "column_norms", lambda h: formed.append("norms") or column_norms(h))
        first = (op.gram(), op.norm_squared(), op.column_norms(), op.block_gram(((0, 2), (2, 5))))
        assert formed == ["gram", "norms", "gram", "gram"]  # the Gram of H, read by the norm; one per block
        again = (op.gram(), op.norm_squared(), op.column_norms(), op.block_gram(((0, 2), (2, 5))))
        assert formed == ["gram", "norms", "gram", "gram"]
        assert all(a is b for a, b in zip(first, again))
        assert op.block_gram(((0, 5),)) is not first[3]

    @pytest.mark.parametrize("factor, form", [("gram", "gram"), ("norm_squared", "_largest_eigenvalue"),
                                              ("column_norms", "column_norms"), ("block_gram", "_block_gram")])
    def test_a_factor_whose_form_raises_is_retried_then_kept(self, rng, monkeypatch, factor, form):
        op = SensingOperator(rand_complex(rng, 5, 40))
        args = (((0, 2), (2, 5)),) if factor == "block_gram" else ()
        calls = []
        real = getattr(linop, form)

        def fails_once(*form_args):
            calls.append(form)
            if len(calls) == 1:
                raise MemoryError("no room for the factor")
            return real(*form_args)

        monkeypatch.setattr(linop, form, fails_once)
        with pytest.raises(MemoryError):
            getattr(op, factor)(*args)
        kept = getattr(op, factor)(*args)
        assert getattr(op, factor)(*args) is kept and len(calls) == 2

    def test_factors_of_an_h_that_overflows_raise_no_warning(self, rng):
        op = SensingOperator(1e200 * rand_complex(rng, 5, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = (op.gram(), op.norm_squared(), op.column_norms(), op.block_gram(((0, 2), (2, 5))))
        assert not any(np.isfinite(f).all() for f in factors)

    def test_as_operator_wraps_once(self, rng):
        op = SensingOperator(rand_complex(rng, 3, 4))
        assert as_operator(op) is op
        assert isinstance(as_operator(op.h), SensingOperator) and as_operator(op.h).h is op.h


class TestBlockFactors:
    def test_solver_assembles_block_gram_and_woodbury(self, rng):
        h = rand_complex(rng, 7, 12)
        rho = 0.7
        engine = ConsensusLassoSolver(h, rand_complex(rng, 7), AdmmParams(lam=0.1, rho=rho), 3)
        assert engine.blocks == ((0, 3), (3, 5), (5, 7))
        mask = np.zeros((7, 7), dtype=bool)
        for a, b in engine.blocks:
            mask[a:b, a:b] = True
            np.testing.assert_allclose(engine.gram[a:b, a:b], h[a:b] @ h[a:b].conj().T, rtol=1e-12)
        assert np.all(engine.gram[~mask] == 0) and np.all(engine.woodbury[~mask] == 0)
        np.testing.assert_allclose(engine.woodbury @ (np.eye(7) + engine.gram / rho), np.eye(7), atol=1e-12)

    @pytest.mark.parametrize("form, of_gram", [
        (lambda h: SensingOperator(h).block_gram(((0, 4),)), lambda gram: gram),
        (lambda h: precompute_block_solver(h, np.ones(4), 0.5).small_inverse,
         lambda gram: np.linalg.inv(np.eye(4) + gram / 0.5)),
    ], ids=["operator", "block-solver"])
    def test_gram_of_a_wide_block_holds_one_slice_at_a_time(self, rng, form, of_gram):
        # 4 rows over 8 Gram slices: one conjugated slice is an eighth of H, against a whole copy unsliced
        h = rand_complex(rng, 4, 2 * GRAM_CHUNK_ENTRIES)
        expected = of_gram(h @ h.conj().T)
        tracemalloc.start()
        try:
            got = form(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes / 4, peak
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestSupportForward:
    """The forward product of SupportProducts against the dense one, its column cache and its memory."""

    @staticmethod
    def sparse_vector(rng, n, width):
        support = np.sort(rng.choice(n, width, replace=False))
        x = np.zeros(n, dtype=complex)
        x[support] = rand_complex(rng, width)
        return x, support

    def test_matches_dense_product_on_random_supports(self, rng):
        h = rand_complex(rng, 9, 320)
        products = SupportProducts(h)
        for width in (1, 3, 7, 19, 20, 2, 20, 11):
            x, support = self.sparse_vector(rng, 320, width)
            got, dense = products.forward(x, support), h @ x
            assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense), width
        assert products.sparse_forward_calls == 8

    def test_empty_support_of_the_all_zero_iterate(self, rng):
        # at lam >= max|H^H g| the prox maps H^H g to zero
        h, g = rand_complex(rng, 6, 64), rand_complex(rng, 6)
        hg = h.conj().T @ g
        x, support = soft_threshold_support(hg, float(np.max(np.abs(hg))))
        assert support.size == 0 and not np.any(x)
        products = SupportProducts(h)
        got = products.forward(x, support)
        assert got.shape == (6,) and not np.any(got)
        assert products.sparse_forward_calls == 1

    def test_crossover_width(self, rng):
        n = 16 * SPARSE_FRACTION
        h = rand_complex(rng, 5, n)
        products = SupportProducts(h)
        x, support = self.sparse_vector(rng, n, n // SPARSE_FRACTION)  # at the crossover
        got = products.forward(x, support)
        assert products.sparse_forward_calls == 1 and products.cols is support
        assert np.linalg.norm(got - h @ x) <= 1e-14 * np.linalg.norm(h @ x)
        x, support = self.sparse_vector(rng, n, n // SPARSE_FRACTION + 1)  # just past it
        assert products.forward(x, support).tobytes() == (h @ x).tobytes()
        assert products.sparse_forward_calls == 1

    def test_support_inside_the_cached_columns_reuses_them(self, rng):
        h = rand_complex(rng, 4, 160)
        products = SupportProducts(h)
        x, support = self.sparse_vector(rng, 160, 10)
        products.forward(x, support)
        cols = products.cols
        inner = support[::3]
        y = np.zeros_like(x)
        y[inner] = x[inner]
        got = products.forward(y, inner)
        assert products.cols is cols
        assert np.linalg.norm(got - h @ y) <= 1e-14 * np.linalg.norm(h @ y)
        new = np.union1d(inner, [int(np.setdiff1d(np.arange(160), support)[0])])
        y[new] = 1.0
        got = products.forward(y, new)
        assert products.cols is new
        assert np.linalg.norm(got - h @ y) <= 1e-14 * np.linalg.norm(h @ y)

    def test_cache_holds_at_most_the_crossover_width(self, rng):
        m, n = 16, 32000
        h = rand_complex(rng, m, n)
        # two full-width gathers in a row, a narrow one, and a dense product
        vectors = [self.sparse_vector(rng, n, width) for width in (n // SPARSE_FRACTION, n // SPARSE_FRACTION,
                                                                    100, 3000)]
        tracemalloc.start()
        try:
            products = SupportProducts(h)
            for x, support in vectors:
                products.forward(x, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cache = 16 * m * n // SPARSE_FRACTION
        assert peak <= 1.2 * cache, (peak, cache)


class TestSupportAdjoint:
    """The screened adjoint of SupportProducts: the anchor, the crossover, and the rule's safety."""

    NONE = (np.zeros(0, dtype=np.intp),)

    def test_first_call_is_the_dense_anchor(self, rng):
        h, r = rand_complex(rng, 6, 200), rand_complex(rng, 6)
        products = SupportProducts(h)
        assert products.adjoint(r, self.NONE, 0.5).tobytes() == adjoint(h, r).tobytes()
        assert products.screened_adjoint_calls == 0
        # the operator forms the column norms on the first screening, not before
        assert "column_norms" not in products.operator._factors

    def test_screened_entries_are_zeros_and_the_rest_match_dense(self, rng):
        m, n = 8, 640
        h = rand_complex(rng, m, n)
        r_a = rand_complex(rng, m)
        threshold = 0.9 * float(np.max(np.abs(adjoint(h, r_a))))
        support = np.sort(rng.choice(n, 5, replace=False))
        products = SupportProducts(h)
        products.adjoint(r_a, (support,), threshold)
        r = r_a + 1e-3 * rand_complex(rng, m)
        got, dense = products.adjoint(r, (support,), threshold), adjoint(h, r)
        assert products.screened_adjoint_calls == 1
        computed = got != 0
        assert np.all(computed[support])
        assert 0 < np.count_nonzero(computed) <= n // SPARSE_FRACTION
        np.testing.assert_allclose(got[computed], dense[computed], rtol=1e-13)
        assert np.all(np.abs(dense[~computed]) <= threshold)

    def test_support_given_as_a_tuple_is_their_union(self, rng):
        h, r = rand_complex(rng, 5, 320), rand_complex(rng, 5)
        threshold = 2.0 * float(np.max(np.abs(adjoint(h, r))))  # screens every entry off the supports
        first, second = np.array([3, 17]), np.array([17, 200, 311])
        products = SupportProducts(h)
        products.adjoint(r, self.NONE, threshold)
        got = products.adjoint(r, (first, second), threshold)
        np.testing.assert_array_equal(np.flatnonzero(got), [3, 17, 200, 311])
        np.testing.assert_allclose(got[[3, 17, 200, 311]], adjoint(h, r)[[3, 17, 200, 311]], rtol=1e-13)

    def test_too_many_unscreened_columns_take_the_dense_product_and_reanchor(self, rng):
        h = rand_complex(rng, 6, 320)
        r_a, r = rand_complex(rng, 6), rand_complex(rng, 6)
        threshold = float(np.sort(np.abs(adjoint(h, r)))[-6])  # five entries of H^H r pass it
        products = SupportProducts(h)
        products.adjoint(r_a, self.NONE, threshold)
        # an unrelated residual: the bound proves too little
        assert products.adjoint(r, self.NONE, threshold).tobytes() == adjoint(h, r).tobytes()
        assert products.screened_adjoint_calls == 0
        assert products._anchor[0].tobytes() == r.tobytes()
        # against the new anchor the same residual screens every entry below the threshold; the
        # rounding slack keeps the one exactly at it
        got = products.adjoint(r, self.NONE, threshold)
        assert products.screened_adjoint_calls == 1
        dense = adjoint(h, r)
        np.testing.assert_array_equal(np.flatnonzero(got), np.flatnonzero(np.abs(dense) >= threshold))

    @pytest.mark.parametrize("case", ["wide-support", "zero-threshold"])
    def test_dense_without_screening(self, rng, case):
        n = 16 * SPARSE_FRACTION
        h, r = rand_complex(rng, 5, n), rand_complex(rng, 5)
        wide = np.arange(n // SPARSE_FRACTION + 1)
        supports, threshold = ((wide,), 1e9) if case == "wide-support" else (self.NONE, 0.0)
        products = SupportProducts(h)
        for _ in range(3):
            assert products.adjoint(r, supports, threshold).tobytes() == adjoint(h, r).tobytes()
        assert products.screened_adjoint_calls == 0
        assert products._anchor is None and "column_norms" not in products.operator._factors

    def test_non_finite_residual_is_never_screened(self, rng):
        h, r = rand_complex(rng, 4, 160), rand_complex(rng, 4)
        products = SupportProducts(h)
        products.adjoint(r, self.NONE, 1e9)
        for bad in (np.inf, np.nan):
            r_bad = r.copy()
            r_bad[1] = bad
            assert not np.any(~products._unscreened(r_bad, 1e9))

    def test_column_norms_bound_the_exact_norms(self, rng):
        h = rand_complex(rng, 7, 50)
        np.testing.assert_allclose(column_norms(h), np.linalg.norm(h, axis=0), rtol=1e-14)
        # squares of 1e-170 underflow to zero: the floor keeps every norm above its exact value
        tiny = 1e-170 * h
        exact = 1e-170 * np.linalg.norm(h, axis=0)
        assert np.all(column_norms(tiny) >= exact) and np.all(column_norms(tiny) < 1e-150)

    def test_column_norms_hold_no_h_sized_temporary(self, rng):
        h = rand_complex(rng, 64, 20000)
        tracemalloc.start()
        try:
            column_norms(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * h.shape[1], peak  # a few n-float rows, against 16 M n bytes of H


@st.composite
def screening_cases(draw):
    """A random H, residual and anchor, and a threshold that may sit exactly on a computed |(H^H r)_p|."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rand_complex(rng, m, n) * draw(st.sampled_from([1e-170, 1e-3, 1.0, 1e3]))
    r = rand_complex(rng, m) * draw(st.sampled_from([1e-3, 1.0, 1e3, 1e150]))
    anchor = draw(st.sampled_from(["same", "near", "far", "zero"]))
    r_a = {
        "same": r.copy(),
        "near": r + draw(st.sampled_from([1e-15, 1e-8, 1e-3])) * np.linalg.norm(r) * rand_complex(rng, m),
        "far": rand_complex(rng, m) * np.linalg.norm(r),
        "zero": np.zeros(m, dtype=complex),
    }[anchor]
    magnitudes = np.abs(adjoint(h, r))
    p = draw(st.integers(0, n - 1))
    target = draw(st.sampled_from(["at", "below", "above", "max", "twice-max"]))
    threshold = {
        "at": magnitudes[p],
        "below": np.nextafter(magnitudes[p], 0.0),
        "above": np.nextafter(magnitudes[p], np.inf),
        "max": magnitudes.max(),
        "twice-max": 2.0 * magnitudes.max(),
    }[target]
    return h, r, r_a, float(threshold), draw(st.sampled_from([1, 3, 31])), draw(st.sampled_from([0.1, 1.0, 7.0]))


class LevelSpy:
    """The run's SupportProducts, recording the screening level each adjoint is asked for."""

    def __init__(self, h):
        self.products = SupportProducts(h)
        self.levels = []

    def adjoint(self, r, supports, threshold):
        self.levels.append(threshold)
        return self.products.adjoint(r, supports, threshold)

    def forward(self, x, support):
        return self.products.forward(x, support)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(screening_cases())
def test_every_screened_entry_is_zeroed_by_the_dense_prox(case):
    h, r, r_a, target, n_blocks, scale = case
    assume(target > 0)
    dense = adjoint(h, r)  # the kernel a dense iteration runs
    zero, empty = np.zeros(h.shape[1], dtype=complex), (np.zeros(0, dtype=np.intp),)
    lam, rho, lips = target * scale, scale, scale * n_blocks
    # ADMM: the prox of v + H^H c / N at lam / (rho N); FISTA: the prox of y + H^H (g - H y) / L at lam / L
    for divisor, kappa in ((n_blocks, lam / (rho * n_blocks)), (lips, target / lips)):
        spy = LevelSpy(h)
        prox_step(spy, zero, empty, r_a, divisor, kappa)  # no anchor yet: dense, and r_a becomes it
        screened = ~spy.products._unscreened(r, spy.levels[0])  # from r_a, before r may replace it
        x = prox_step(spy, zero, empty, r, divisor, kappa)[0]
        assert spy.levels[1] == spy.levels[0]
        dense_prox = soft_threshold_support(dense / divisor, kappa)[0]
        assert not np.any(dense_prox[screened])
        assert not np.any(x[screened])
