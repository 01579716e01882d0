"""Row-partitioned consensus ADMM for the complex-valued lasso.

Solves min_u 0.5 ||H u - g||^2 + lam ||u||_1 by giving each row block
(H_i, g_i) its own local unknown u_i tied to a shared consensus variable v:
every iteration runs the N block solves (ridge-regularized least squares,
reduced to an m_i x m_i solve by the matrix inversion lemma), soft-thresholds
the block average into v, and lets the scaled duals s_i absorb the remaining
disagreement (Boyd et al. 2011, sections 7.1 and 8.2).

The solver never forms the N local iterates or scaled duals, not even for
its result. From the zero start every scaled dual keeps the form

    s_i = w + H_i^H e_i

with one shared n_p-vector w and one M-vector e (e_i its block-i rows), and
every local iterate is u_i = (v - w) + H_i^H (c_i - e_i). With G and S the
M x M block-diagonal Gram (G_ii = H_i H_i^H) and Woodbury inverse
(S_ii = (I + G_ii / rho)^-1), the block solves give
c = g / rho - S (G g + rho H (v - w) - rho G e) / rho^2, and the identity
S G / rho = I - S reduces that to one product with S:

    d = S ((g - H (v - w)) / rho - e),  c = e + d
    v <- soft(v + H^H c / N, lam / (rho N))
    w <- v_old - v,  e <- c

Carrying H v and G e from one iteration to the next (G c = G e + G d)
makes that at most one adjoint product H^H c and one forward product H v
per iteration; the objective and the stacked primal and dual norms follow
from Gram identities at O(n_p + M^2) cost. Both products and the soft
threshold are one ``linop.prox_step``. The stopping thresholds are formed only
when the stopping rule is on; those of the last iteration are the returned
``AdmmState``. ``linop.run_iterations``, the loop FISTA shares, drives the
iteration and owns its budget, one record and stop verdict per iteration
into a ``linop.ConvergenceTrace`` (a list).
``update_u``, ``update_v`` and ``update_s`` are the same steps written per
block; they are kept as the reference the collapsed form is tested against.

The set-up holds only G and S, both the operator's (``linop.SensingOperator``
``block_gram`` and ``woodbury``): one G per row partition and one S per
(partition, rho), shared by every solver on the operator that reads them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linop import adjoint, lasso_inputs, lasso_objective, prox_step, run_iterations, soft_threshold_support
from .scene import FINITE_GE0, FINITE_GT0, INT_GE1, block_count

# Gram-form squared norms below this fraction of their summed term magnitudes
# have lost too many digits to cancellation and are recomputed block by block.
CANCELLATION_RATIO = 1e-6


def soft_threshold(a, kappa):
    """Shrink magnitudes by kappa, preserving phase; zero wherever |a| <= kappa.

    For real input this is the classic three-branch soft threshold; for complex
    input it is the proximal operator of kappa * ||.||_1 taken with the modulus.
    Works elementwise on arrays.
    """
    return soft_threshold_support(a, kappa)[0]


def partition_rows(n_rows, n_blocks):
    """Split rows [0, n_rows) into n_blocks contiguous (start, stop) ranges differing by at most one row.

    When the split is uneven the earlier blocks receive the extra row.
    Stacking the blocks in order reconstructs (H, g) exactly. There is no
    split of zero rows: an H with no rows is refused by its row count.
    """
    n_rows = INT_GE1.require(n_rows, f"row count must be an integer >= 1, got {n_rows!r}")
    n_blocks = block_count(n_rows).require(
        n_blocks, f"block count must be an integer in [1, {n_rows}], got {n_blocks!r}")
    base, extra = divmod(n_rows, n_blocks)
    blocks = []
    start = 0
    for i in range(n_blocks):
        size = base + (1 if i < extra else 0)
        blocks.append((start, start + size))
        start += size
    return tuple(blocks)


@dataclass(frozen=True)
class AdmmParams:
    """Solver knobs: 1-norm weight, penalty parameter, budget and tolerances.

    Setting eps_abs = eps_rel = 0 disables early stopping, so exactly
    max_iter iterations run.
    """

    lam: float
    rho: float
    max_iter: int = 500
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4

    def __post_init__(self):
        for name, rule, message in (("lam", FINITE_GE0, "lam must be finite and >= 0"),
                                    ("rho", FINITE_GT0, "rho must be finite and > 0"),
                                    ("max_iter", INT_GE1, "max_iter must be >= 1 and an integer"),
                                    ("eps_abs", FINITE_GE0, "tolerances must be finite and >= 0"),
                                    ("eps_rel", FINITE_GE0, "tolerances must be finite and >= 0")):
            object.__setattr__(self, name, rule.require(getattr(self, name), message))


@dataclass(frozen=True)
class BlockSolver:
    """One row block plus the cached small-matrix inverse its updates reuse.

    ``small_inverse`` is (I_m + H_i H_i^H / rho)^-1, m x m with m the block
    row count, a read-only view of the operator's S; its G holds H_i H_i^H.
    The N_p x N_p regularized normal matrix is never formed.
    """

    h_block: np.ndarray
    g_block: np.ndarray
    small_inverse: np.ndarray
    rho: float

    @property
    def hg(self):
        """H_i^H g_i, formed on each call: only the per-block ``update_u`` reads it."""
        return adjoint(self.h_block, self.g_block)

    def apply_inverse(self, b):
        """Return (H_i^H H_i + rho I)^-1 b via the low-rank identity."""
        t = self.small_inverse @ (self.h_block @ b)
        return b / self.rho - adjoint(self.h_block, t) / self.rho**2


def precompute_block_solver(h_i, g_i, rho):
    """The BlockSolver of (h_i, g_i) alone, built and checked as a one-block engine builds it."""
    return ConsensusLassoSolver(h_i, g_i, AdmmParams(lam=0.0, rho=rho), 1).block_solvers[0]


def update_u(solver, v, s_i):
    """Exact minimizer of 0.5 ||H_i u - g_i||^2 + (rho/2) ||u - v + s_i||^2."""
    v = np.asarray(v)
    s_i = np.asarray(s_i)
    n = solver.h_block.shape[1]
    if v.shape != (n,) or s_i.shape != (n,):
        raise ValueError(f"expected length-{n} vectors, got {v.shape} and {s_i.shape}")
    b = solver.hg + solver.rho * (v - s_i)
    return solver.apply_inverse(b)


def update_v(u_bar, s_bar, params, n_blocks):
    """Consensus update: soft-threshold the block average at lam / (rho N)."""
    u_bar = np.asarray(u_bar)
    s_bar = np.asarray(s_bar)
    if u_bar.shape != s_bar.shape:
        raise ValueError(f"mismatched averages: {u_bar.shape} vs {s_bar.shape}")
    return soft_threshold(u_bar + s_bar, params.lam / (params.rho * n_blocks))


def update_s(s_i, u_i, v):
    """Scaled dual ascent: s_i + (u_i - v).

    Grouped so that exact consensus (u_i == v) leaves the dual bit-identical.
    """
    s_i = np.asarray(s_i)
    u_i = np.asarray(u_i)
    v = np.asarray(v)
    if not (s_i.shape == u_i.shape == v.shape):
        raise ValueError(f"mismatched lengths: {s_i.shape}, {u_i.shape}, {v.shape}")
    return s_i + (u_i - v)


@dataclass
class AdmmState:
    """The stopping thresholds of the last iteration, to be read against its primal and dual residuals."""

    eps_pri: float
    eps_dual: float


class ConsensusLassoSolver:
    """Consensus ADMM engine over a fixed row partition, in collapsed form.

    ``blocks`` is the row partition (``partition_rows``), ``gram`` and
    ``woodbury`` are G and S, the operator's read-only M x M block-diagonal
    factors of the collapsed iteration (see the module docstring);
    ``block_solvers`` holds each block with a view of its block of S. A
    non-finite entry in H or g, or an H with no rows, raises ValueError; an
    S that is not finite (G_ii / rho overflows) raises DivergenceError.
    ``workers`` has no effect and is kept only because the benchmark's
    per-layer timings pass it: an iteration is at most two products with H
    and O(n_p + M^2) vector work, with nothing left to spread across threads.
    """

    def __init__(self, h, g, params, n_blocks, workers=1):
        self.operator, self.g, _, _ = lasso_inputs(h, g, params.lam)
        self.params = params
        self.blocks = partition_rows(len(self.g), n_blocks)
        self.gram = self.operator.block_gram(self.blocks)
        if not np.all(np.isfinite(self.g)):
            raise ValueError("block contains non-finite entries")
        self.woodbury = self.operator.woodbury(self.blocks, params.rho)
        if not np.isfinite(self.woodbury).all():
            raise DivergenceError(f"Woodbury inverse (I + G_ii / rho)^-1 is not finite at rho {params.rho!r}")
        self.block_solvers = [
            BlockSolver(h_block=self.operator.h[start:stop], g_block=self.g[start:stop],
                        small_inverse=self.woodbury[start:stop, start:stop], rho=params.rho)
            for start, stop in self.blocks
        ]

    def _stacked_sq_norm(self, a, h_a, x, gram_x):
        """sum_i ||a + H_i^H x_i||^2 from H a and G x, with no product by H.

        Falls back to forming each H_i^H x_i when the Gram form cancels.
        """
        n = len(self.blocks)
        common = n * float(np.real(np.vdot(a, a)))
        cross = 2.0 * float(np.real(np.vdot(h_a, x)))
        quad = float(np.real(np.vdot(x, gram_x)))
        total = common + cross + quad
        if total >= CANCELLATION_RATIO * (common + abs(cross) + quad):
            return total
        rows = (a + adjoint(self.operator.h[start:stop], x[start:stop]) for start, stop in self.blocks)
        return sum(float(np.real(np.vdot(y, y))) for y in rows)

    def run(self, on_iteration=None):
        """Iterate from the zero start, driven by ``run_iterations``; returns (v, trace, state).

        Records the lasso objective at v, the stacked primal residual
        sqrt(sum_i ||u_i - v||^2) and the dual residual rho sqrt(N) ||v - v_prev||;
        the rule holds once both fall below eps_pri and eps_dual, built from
        eps_abs / eps_rel in the usual way. The state holds the last thresholds,
        0.0 and 0.0 when both tolerances are zero. The per-block u_i and s_i
        are never formed.
        """
        params = self.params
        rho = params.rho
        n = len(self.blocks)
        m, n_p = self.operator.shape
        kappa = params.lam / (rho * n)
        scale = math.sqrt(n * n_p) * params.eps_abs
        # zero tolerances mean a fixed budget, even at an exact fixed point
        stopping = params.eps_abs > 0 or params.eps_rel > 0
        eps_pri = eps_dual = 0.0  # what zero tolerances make of them

        def steps(products):
            nonlocal eps_pri, eps_dual
            # v, w (length n_p); H v, H w, e, G e (length M)
            v = w = np.zeros(n_p, dtype=np.complex128)
            h_v = h_w = e = gram_e = np.zeros(m, dtype=np.complex128)
            support = np.zeros(0, dtype=np.intp)  # of v
            while True:
                z, h_z = v - w, h_v - h_w  # u_i = z + H_i^H d_i
                d = self.woodbury @ ((self.g - h_z) / rho - e)
                c = e + d
                v_next, support, h_v_next = prox_step(products, v, (support,), c, n, kappa)
                gram_d = self.gram @ d
                w, h_w = v - v_next, h_v - h_v_next
                v, h_v, e, gram_e = v_next, h_v_next, c, gram_e + gram_d
                primal = math.sqrt(self._stacked_sq_norm(z - v, h_z - h_v, d, gram_d))
                dual = rho * math.sqrt(n) * float(np.linalg.norm(w))
                objective = lasso_objective(h_v - self.g, v, params.lam)
                if stopping:
                    u_norm = math.sqrt(self._stacked_sq_norm(z, h_z, d, gram_d))
                    s_norm = math.sqrt(self._stacked_sq_norm(w, h_w, e, gram_e))
                    eps_pri = scale + params.eps_rel * max(u_norm, math.sqrt(n) * float(np.linalg.norm(v)))
                    eps_dual = scale + params.eps_rel * rho * s_norm
                yield v, objective, primal, dual, stopping and primal <= eps_pri and dual <= eps_dual

        v, trace = run_iterations(self.operator, steps, params.max_iter, on_iteration)
        return v, trace, AdmmState(eps_pri, eps_dual)


def solve_consensus_lasso(h, g, params, n_blocks, on_iteration=None):
    """One-call front end to ConsensusLassoSolver; returns (v, trace, state)."""
    return ConsensusLassoSolver(h, g, params, n_blocks).run(on_iteration)
