import numpy as np
import pytest

from conftest import rand_complex
from cradmm import AdmmParams, ConsensusLassoSolver
from cradmm.linop import GRAM_CHUNK_ENTRIES, SensingOperator, block_diagonal, gram, triangular_factor


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

    def test_real_input(self, rng):
        h = rng.standard_normal((6, 11))
        assert SensingOperator(h).norm_squared() == pytest.approx(np.linalg.norm(h, 2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, GRAM_CHUNK_ENTRIES + 5), (GRAM_CHUNK_ENTRIES // 2 + 7, 2)])
    def test_gram_accumulates_across_slices(self, rng, shape):
        # more columns (rows) than one slice holds, with a ragged last slice
        h = rand_complex(rng, *shape)
        expected = h @ h.conj().T if shape[0] <= shape[1] else h.conj().T @ h
        np.testing.assert_allclose(gram(h), expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


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

    @pytest.mark.parametrize("rows", [40, GRAM_CHUNK_ENTRIES // 3 + 7])
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


class TestBlockFactors:
    def test_solver_assembles_block_gram_and_woodbury(self, rng):
        h = rand_complex(rng, 7, 12)
        rho = 0.7
        engine = ConsensusLassoSolver(h, rand_complex(rng, 7), AdmmParams(lam=0.1, rho=rho), 3)
        assert engine.partition.blocks == ((0, 3), (3, 5), (5, 7))
        mask = np.zeros((7, 7), dtype=bool)
        for a, b in engine.partition.blocks:
            mask[a:b, a:b] = True
            np.testing.assert_allclose(engine.gram[a:b, a:b], h[a:b] @ h[a:b].conj().T, rtol=1e-12)
        assert np.all(engine.gram[~mask] == 0) and np.all(engine.woodbury[~mask] == 0)
        np.testing.assert_allclose(engine.woodbury @ (np.eye(7) + engine.gram / rho), np.eye(7), atol=1e-12)

    def test_block_diagonal_layout(self):
        out = block_diagonal(((0, 1), (1, 3)), [np.array([[2.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])])
        np.testing.assert_array_equal(out, [[2, 0, 0], [0, 1, 2], [0, 3, 4]])
