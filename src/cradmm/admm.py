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
(S_ii = (I + G_ii / rho)^-1), one iteration is

    c = g / rho - S (G g + rho H (v - w) - rho G e) / rho^2
    v <- soft(v + H^H c / N, lam / (rho N))
    w <- v_old - v,  e <- c

Carrying H v from one iteration to the next makes that one forward and one
adjoint product with H per iteration; the objective and the stacked primal
and dual norms follow from Gram identities at O(n_p + M^2) cost.
``update_u``, ``update_v`` and ``update_s`` are the same steps written per
block; they are kept as the reference the collapsed form is tested against.

Only S depends on rho. ``ConsensusSetup`` holds the rest (the operator, the
partition, the block Grams, G and G g), so the points of a (lam, rho) sweep
share it and each rebuilds only its m_i x m_i Woodbury blocks.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linop import SensingOperator, adjoint, block_diagonal
from .scene import matrix_array, vector_array

# Gram-form squared norms below this fraction of their summed term magnitudes
# have lost too many digits to cancellation and are recomputed block by block.
CANCELLATION_RATIO = 1e-6


def soft_threshold(a, kappa):
    """Shrink magnitudes by kappa, preserving phase; zero wherever |a| <= kappa.

    For real input this is the classic three-branch soft threshold; for complex
    input it is the proximal operator of kappa * ||.||_1 taken with the modulus.
    Works elementwise on arrays.
    """
    if kappa < 0:
        raise ValueError("threshold must be >= 0")
    a = np.asarray(a)
    mag = np.abs(a)
    shrunk = np.maximum(mag - kappa, 0.0)
    return a * (shrunk / np.where(mag > 0.0, mag, 1.0))


@dataclass(frozen=True)
class Partition:
    """Contiguous, balanced split of the measurement rows into solver blocks."""

    blocks: tuple
    n_rows: int

    @property
    def n_blocks(self):
        return len(self.blocks)

    def block_sizes(self):
        return [stop - start for start, stop in self.blocks]


def partition_rows(h, g, n_blocks):
    """Split rows [0, N_t) into n_blocks contiguous ranges differing by at most one row.

    When the split is uneven the earlier blocks receive the extra row.
    Stacking the blocks in order reconstructs (H, g) exactly.
    """
    entries = matrix_array(h)
    gv = vector_array(g)
    n_rows = entries.shape[0]
    if gv.shape[0] != n_rows:
        raise ValueError(f"measurement length {gv.shape[0]} != matrix row count {n_rows}")
    if not isinstance(n_blocks, int) or not 1 <= n_blocks <= n_rows:
        raise ValueError(f"block count must be an integer in [1, {n_rows}], got {n_blocks!r}")
    base, extra = divmod(n_rows, n_blocks)
    blocks = []
    start = 0
    for i in range(n_blocks):
        size = base + (1 if i < extra else 0)
        blocks.append((start, start + size))
        start += size
    return Partition(blocks=tuple(blocks), n_rows=n_rows)


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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.eps_abs < 0 or self.eps_rel < 0:
            raise ValueError("tolerances must be >= 0")


@dataclass(frozen=True)
class BlockSolver:
    """One row block plus the cached small-matrix inverse its updates reuse.

    ``gram`` holds H_i H_i^H and ``small_inverse`` (I_m + gram / rho)^-1,
    both m x m with m the block row count; the N_p x N_p regularized normal
    matrix is never formed.
    """

    h_block: np.ndarray
    g_block: np.ndarray
    small_inverse: np.ndarray
    rho: float
    gram: np.ndarray

    @property
    def hg(self):
        """H_i^H g_i, formed on each call: only the per-block ``update_u`` reads it."""
        return adjoint(self.h_block, self.g_block)

    def apply_inverse(self, b):
        """Return (H_i^H H_i + rho I)^-1 b via the low-rank identity."""
        t = self.small_inverse @ (self.h_block @ b)
        return b / self.rho - adjoint(self.h_block, t) / self.rho**2


def _check_finite(h, g):
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
        raise ValueError("block contains non-finite entries")


def _woodbury_block(gram, rho):
    """(I + gram / rho)^-1 for one block's m x m Gram."""
    small_inverse = np.linalg.inv(np.eye(gram.shape[0], dtype=np.complex128) + gram / rho)
    # the exact inverse is Hermitian; symmetrize away LU round-off
    return 0.5 * (small_inverse + small_inverse.conj().T)


def precompute_block_solver(h_i, g_i, rho):
    """Cache the Gram and the m x m inverse used by every u-update of a block."""
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and > 0")
    h = np.ascontiguousarray(matrix_array(h_i))
    gv = vector_array(g_i)
    if gv.shape[0] != h.shape[0]:
        raise ValueError(f"block has {h.shape[0]} rows but {gv.shape[0]} measurements")
    _check_finite(h, gv)
    gram = h @ h.conj().T
    return BlockSolver(h_block=h, g_block=gv, small_inverse=_woodbury_block(gram, rho),
                       rho=float(rho), gram=gram)


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


@dataclass(frozen=True)
class IterationRecord:
    k: int
    objective: float
    primal_residual: float
    dual_residual: float
    elapsed_seconds: float


class ConvergenceTrace:
    """Per-iteration objective, residual norms, and wall-clock timestamps.

    ``stop_reason`` is set by the solver that produced the trace: "converged"
    when its stopping rule fired (possibly on the last allowed iteration),
    "max_iter" when the budget ran out first, None for a trace read from disk.
    """

    def __init__(self, records=None, stop_reason=None):
        self.records = list(records) if records is not None else []
        self.stop_reason = stop_reason

    def append(self, record):
        self.records.append(record)

    def column(self, name):
        """One trace field as a numpy array, e.g. column('objective')."""
        return np.array([getattr(r, name) for r in self.records])

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@dataclass
class AdmmState:
    """Final consensus iterate ``v``, iteration count ``k``, and stopping thresholds.

    ``eps_pri`` and ``eps_dual`` are the thresholds of the last iteration, to
    be read against its primal and dual residuals.
    """

    v: np.ndarray
    k: int
    eps_pri: float
    eps_dual: float


def lasso_objective(resid, u, lam):
    """0.5 ||resid||^2 + lam * sum_p |u_p|, with resid = H u - g already formed."""
    return 0.5 * float(np.real(np.vdot(resid, resid))) + lam * float(np.abs(u).sum())


def evaluate_objective(h, g, u, lam):
    """Value of 0.5 ||H u - g||^2 + lam * sum_p |u_p| (complex modulus)."""
    op = SensingOperator(h)
    gv = vector_array(g)
    uv = vector_array(u)
    if op.shape != (gv.shape[0], uv.shape[0]):
        raise ValueError(f"shapes do not match: H {op.shape}, g {gv.shape}, u {uv.shape}")
    return lasso_objective(op.forward(uv) - gv, uv, lam)


class ConsensusSetup:
    """The rho-independent part of the consensus solver for one (H, g, N).

    Holds the operator, the row partition, the per-block Grams H_i H_i^H, the
    M x M block-diagonal Gram ``gram`` and ``gram_g`` = G g. Solvers for
    several (lam, rho) points built with ``ConsensusLassoSolver.from_setup``
    share one set-up and compute only their Woodbury blocks; their results
    are bit-identical to those of separately constructed solvers.
    """

    def __init__(self, h, g, n_blocks):
        self.operator = SensingOperator(h)
        self.g = vector_array(g)
        self.partition = partition_rows(self.operator.h, self.g, n_blocks)
        with np.errstate(invalid="ignore", over="ignore"):
            self.block_grams = [self.operator.h[start:stop] @ self.operator.h[start:stop].conj().T
                                for start, stop in self.partition.blocks]
            self.gram = block_diagonal(self.partition.blocks, self.block_grams)
            self.gram_g = self.gram @ self.g
        # a non-finite H_i entry makes diag(H_i H_i^H) non-finite: a finite Gram proves H finite
        if not (np.all(np.isfinite(self.gram)) and np.all(np.isfinite(self.g))):
            _check_finite(self.operator.h, self.g)  # a finite H whose Gram overflows runs on


class ConsensusLassoSolver:
    """Consensus ADMM engine over a fixed row partition, in collapsed form.

    ``block_solvers`` holds the per-block Woodbury factors; ``gram`` and
    ``woodbury`` are the same blocks assembled into M x M block-diagonal
    matrices for the collapsed iteration (see the module docstring).
    ``workers`` is accepted for compatibility and has no effect: an iteration
    is two products with H and O(n_p + M^2) vector work, with nothing left to
    spread across threads, so results are the same for any worker count.
    """

    def __init__(self, h, g, params, n_blocks, workers=1):
        self._bind(ConsensusSetup(h, g, n_blocks), params)

    @classmethod
    def from_setup(cls, setup, params):
        """A solver for ``params`` on a ConsensusSetup shared with other solvers."""
        engine = cls.__new__(cls)
        engine._bind(setup, params)
        return engine

    def _bind(self, setup, params):
        self.operator = setup.operator
        self.entries = setup.operator.h
        self.g = setup.g
        self.params = params
        self.partition = setup.partition
        self.gram = setup.gram
        self.gram_g = setup.gram_g
        self.block_solvers = [
            BlockSolver(h_block=self.entries[start:stop], g_block=self.g[start:stop],
                        small_inverse=_woodbury_block(gram, params.rho), rho=float(params.rho),
                        gram=gram)
            for (start, stop), gram in zip(self.partition.blocks, setup.block_grams)
        ]
        self.woodbury = block_diagonal(self.partition.blocks,
                                       [b.small_inverse for b in self.block_solvers])

    def _stacked_sq_norm(self, a, h_a, x, gram_x):
        """sum_i ||a + H_i^H x_i||^2 from H a and G x, with no product by H.

        Falls back to forming each H_i^H x_i when the Gram form cancels.
        """
        n = self.partition.n_blocks
        common = n * float(np.real(np.vdot(a, a)))
        cross = 2.0 * float(np.real(np.vdot(h_a, x)))
        quad = float(np.real(np.vdot(x, gram_x)))
        total = common + cross + quad
        if total >= CANCELLATION_RATIO * (common + abs(cross) + quad):
            return total
        return sum(float(np.real(np.vdot(y, y))) for y in self._block_rows(a, x))

    def _block_rows(self, common, x):
        """Yield common + H_i^H x_i for each block in turn."""
        for start, stop in self.partition.blocks:
            yield common + adjoint(self.entries[start:stop], x[start:stop])

    def run(self, on_iteration=None):
        """Iterate from the zero start until the stopping rule or max_iter.

        Returns (v, trace, state). Per iteration the trace records the lasso
        objective at v, the stacked primal residual sqrt(sum_i ||u_i - v||^2),
        the dual residual rho * sqrt(N) * ||v - v_prev||, and elapsed seconds.
        Stops early once both residuals fall below their tolerances
        (eps_pri, eps_dual built from eps_abs / eps_rel in the usual way);
        ``trace.stop_reason`` says which way it ended. ``on_iteration``, when
        given, receives each IterationRecord as it completes (e.g. a streaming
        CSV writer). The state holds v, the iteration count and the last
        thresholds; the per-block u_i and s_i are never formed, for any N.
        """
        params = self.params
        rho = params.rho
        n = self.partition.n_blocks
        op, g, gram, gram_g, woodbury = self.operator, self.g, self.gram, self.gram_g, self.woodbury
        m, n_p = op.shape
        kappa = params.lam / (rho * n)
        scale = math.sqrt(n * n_p) * params.eps_abs
        # zero tolerances mean a fixed budget, even at an exact fixed point
        stopping = params.eps_abs > 0 or params.eps_rel > 0
        # v, w (length n_p); H v, H w, e, G e (length M)
        v = w = np.zeros(n_p, dtype=np.complex128)
        h_v = h_w = e = gram_e = np.zeros(m, dtype=np.complex128)
        trace = ConvergenceTrace(stop_reason="max_iter")
        start_time = time.perf_counter()
        for k in range(params.max_iter):
            z, h_z = v - w, h_v - h_w  # u_i = z + H_i^H d_i
            c = g / rho - woodbury @ (gram_g + rho * h_z - rho * gram_e) / rho**2
            d = c - e
            v_next = soft_threshold(v + op.adjoint(c) / n, kappa)
            h_v_next = op.forward(v_next)
            gram_c = gram @ c
            gram_d = gram_c - gram_e
            # an overflow here is reported below as a DivergenceError, not as a warning
            with np.errstate(over="ignore"):
                primal = math.sqrt(self._stacked_sq_norm(z - v_next, h_z - h_v_next, d, gram_d))
                dual = rho * math.sqrt(n) * float(np.linalg.norm(v_next - v))
                objective = lasso_objective(h_v_next - g, v_next, params.lam)
            elapsed = time.perf_counter() - start_time
            if not (math.isfinite(objective) and math.isfinite(primal) and math.isfinite(dual)):
                raise DivergenceError(f"non-finite iterate at iteration {k}")
            record = IterationRecord(k, objective, primal, dual, elapsed)
            trace.append(record)
            if on_iteration is not None:
                on_iteration(record)
            w, h_w = v - v_next, h_v - h_v_next
            v, h_v, e, gram_e = v_next, h_v_next, c, gram_c
            u_norm = math.sqrt(self._stacked_sq_norm(z, h_z, d, gram_d))
            s_norm = math.sqrt(self._stacked_sq_norm(w, h_w, e, gram_e))
            eps_pri = scale + params.eps_rel * max(u_norm, math.sqrt(n) * float(np.linalg.norm(v)))
            eps_dual = scale + params.eps_rel * rho * s_norm
            if stopping and primal <= eps_pri and dual <= eps_dual:
                trace.stop_reason = "converged"
                break
        return v, trace, AdmmState(v=v, k=len(trace), eps_pri=eps_pri, eps_dual=eps_dual)


def solve_consensus_lasso(h, g, params, n_blocks, workers=1, on_iteration=None):
    """One-call front end to ConsensusLassoSolver; returns (v, trace, state).

    ``workers`` has no effect (see ConsensusLassoSolver).
    """
    return ConsensusLassoSolver(h, g, params, n_blocks, workers=workers).run(on_iteration)
