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
threshold are one ``prox_step``. The stopping thresholds are formed only
when the stopping rule is on, or for the final state. ``run_iterations``
drives the loop, one record and stop verdict per iteration.
``update_u``, ``update_v`` and ``update_s`` are the same steps written per
block; they are kept as the reference the collapsed form is tested against.

The set-up holds only G and S, and only S depends on rho. G is the
operator's (``linop.SensingOperator.block_gram``), so the points of a
(lam, rho) sweep on one operator share it and each forms only its S
(``linop.woodbury``).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linop import SupportProducts, adjoint, gram, lasso_inputs, woodbury
from .scene import FINITE_GE0, FINITE_GT0, INT_GE1, block_count, is_real, matrix_array, vector_array

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


def soft_threshold_support(a, kappa):
    """``soft_threshold(a, kappa)`` and the sorted flat indices of its nonzero entries.

    The indices are those where the shrunk magnitude is positive; every
    nonzero entry of the result is among them. Beside |a| and the shrunk
    magnitudes, the result is the one array of a's size made: the shrink
    ratio forms in the shrunk magnitudes, and the safe divisor (1 where |a|
    is 0 or NaN) in |a|.
    """
    if not (is_real(kappa) and kappa >= 0):  # NaN too; +inf zeroes everything
        raise ValueError("threshold must be >= 0")
    a = np.asarray(a)
    mag = np.abs(a).reshape(-1)  # flat, and an array for a 0-d a too
    shrunk = mag - kappa
    np.maximum(shrunk, 0.0, out=shrunk)
    support = np.flatnonzero(shrunk > 0.0)
    np.copyto(mag, 1, where=~(mag > 0.0))
    shrunk /= mag
    return a * shrunk.reshape(a.shape), support


def prox_step(products, base, supports, r, divisor, kappa):
    """x = soft(base + H^H r / divisor, kappa), its sorted support, and H x.

    ``supports`` (an index array or a tuple of them) holds every nonzero entry
    of ``base``; outside it the threshold zeroes entry p exactly when
    |(H^H r)_p| <= kappa * divisor, the level at which ``products`` (the run's
    ``linop.SupportProducts``) skips the columns a safe bound screens.
    """
    h_r = products.adjoint(r, supports, kappa * divisor)  # a new array: the prox argument forms in it
    h_r /= divisor
    np.add(base, h_r, out=h_r)
    x, support = soft_threshold_support(h_r, kappa)
    return x, support, products.forward(x, support)


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
    n_blocks = block_count(n_rows).require(
        n_blocks, f"block count must be an integer in [1, {n_rows}], got {n_blocks!r}")
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
        for name, rule, message in (("lam", FINITE_GE0, "lam must be finite and >= 0"),
                                    ("rho", FINITE_GT0, "rho must be finite and > 0"),
                                    ("max_iter", INT_GE1, "max_iter must be >= 1 and an integer"),
                                    ("eps_abs", FINITE_GE0, "tolerances must be finite and >= 0"),
                                    ("eps_rel", FINITE_GE0, "tolerances must be finite and >= 0")):
            object.__setattr__(self, name, rule.require(getattr(self, name), message))


@dataclass(frozen=True)
class BlockSolver:
    """One row block plus the cached small-matrix inverse its updates reuse.

    ``gram`` holds H_i H_i^H and ``small_inverse`` (I_m + gram / rho)^-1,
    both m x m with m the block row count (in the engine, views of its G and
    S); the N_p x N_p regularized normal matrix is never formed.
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


def precompute_block_solver(h_i, g_i, rho):
    """Cache the Gram and the m x m inverse used by every u-update of a block."""
    rho = FINITE_GT0.require(rho, "rho must be finite and > 0")
    h = np.ascontiguousarray(matrix_array(h_i))
    gv = vector_array(g_i)
    if gv.shape[0] != h.shape[0]:
        raise ValueError(f"block has {h.shape[0]} rows but {gv.shape[0]} measurements")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(gv))):
        raise ValueError("block contains non-finite entries")
    block_gram = gram(h)
    return BlockSolver(h_block=h, g_block=gv, small_inverse=woodbury(block_gram, ((0, h.shape[0]),), rho),
                       rho=rho, gram=block_gram)


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

    ``stop_reason`` ("converged" or "max_iter"), ``sparse_forward_iters`` (the
    iterations whose forward product read only the iterate's support) and
    ``screened_adjoint_iters`` (those whose adjoint product skipped the columns
    a safe bound screened, see ``linop.SupportProducts``) are set by
    ``run_iterations`` for a solver run, and are None for a trace read from disk.
    """

    def __init__(self, records=None, stop_reason=None):
        self.records = list(records) if records is not None else []
        self.stop_reason = stop_reason
        self.sparse_forward_iters = None
        self.screened_adjoint_iters = None

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
    op, gv, uv, lam = lasso_inputs(h, g, lam, u)
    return lasso_objective(op.forward(uv) - gv, uv, lam)


def run_iterations(operator, steps, on_iteration=None):
    """The iteration loop of ADMM and FISTA; returns (estimate, trace).

    ``steps(products)``, given the run's ``linop.SupportProducts`` on
    ``operator``, yields once per iteration the estimate, its record fields
    (objective, primal, dual) and whether its stopping rule holds. Each
    IterationRecord, timed from the start of the run, goes to the trace and
    then to ``on_iteration``, before the verdict is acted on; a non-finite
    field raises DivergenceError first. See ConvergenceTrace for the stop
    reason and counts.
    """
    products = SupportProducts(operator)
    trace = ConvergenceTrace(stop_reason="max_iter")
    start = time.perf_counter()
    for k, (estimate, *fields, stop) in enumerate(steps(products)):
        if not all(map(math.isfinite, fields)):
            raise DivergenceError(f"non-finite iterate at iteration {k}")
        record = IterationRecord(k, *fields, time.perf_counter() - start)
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if stop:
            trace.stop_reason = "converged"
            break
    trace.sparse_forward_iters = products.sparse_forward_calls
    trace.screened_adjoint_iters = products.screened_adjoint_calls
    return estimate, trace


class ConsensusLassoSolver:
    """Consensus ADMM engine over a fixed row partition, in collapsed form.

    ``gram`` (the operator's) and ``woodbury`` are G and S, the M x M
    block-diagonal matrices of the collapsed iteration (see the module
    docstring); ``block_solvers`` holds each block with views of its blocks
    of G and S. A non-finite entry in H or g raises ValueError.
    ``workers`` is accepted for compatibility and has no effect: an iteration
    is at most two products with H and O(n_p + M^2) vector work, with nothing
    left to spread across threads, so results are the same for any worker
    count.
    """

    def __init__(self, h, g, params, n_blocks, workers=1):
        self.operator, self.g, _, _ = lasso_inputs(h, g, params.lam)
        self.entries = self.operator.h
        self.params = params
        self.partition = partition_rows(self.entries, self.g, n_blocks)
        self.gram = self.operator.block_gram(self.partition.blocks)
        if not np.all(np.isfinite(self.g)):
            raise ValueError("block contains non-finite entries")
        self.woodbury = woodbury(self.gram, self.partition.blocks, params.rho)
        self.block_solvers = [
            BlockSolver(h_block=self.entries[start:stop], g_block=self.g[start:stop],
                        small_inverse=self.woodbury[start:stop, start:stop], rho=params.rho,
                        gram=self.gram[start:stop, start:stop])
            for start, stop in self.partition.blocks
        ]

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
        rows = (a + adjoint(self.entries[start:stop], x[start:stop]) for start, stop in self.partition.blocks)
        return sum(float(np.real(np.vdot(y, y))) for y in rows)

    def run(self, on_iteration=None):
        """Iterate from the zero start, driven by ``run_iterations``; returns (v, trace, state).

        Records the lasso objective at v, the stacked primal residual
        sqrt(sum_i ||u_i - v||^2) and the dual residual rho sqrt(N) ||v - v_prev||;
        the rule holds once both fall below eps_pri and eps_dual, built from
        eps_abs / eps_rel in the usual way. The state holds v, the iteration
        count and the last thresholds. The per-block u_i and s_i are never formed.
        """
        params = self.params
        rho = params.rho
        n = self.partition.n_blocks
        m, n_p = self.operator.shape
        kappa = params.lam / (rho * n)
        scale = math.sqrt(n * n_p) * params.eps_abs
        # zero tolerances mean a fixed budget, even at an exact fixed point
        stopping = params.eps_abs > 0 or params.eps_rel > 0
        eps_pri = eps_dual = None

        def steps(products):
            nonlocal eps_pri, eps_dual
            # v, w (length n_p); H v, H w, e, G e (length M)
            v = w = np.zeros(n_p, dtype=np.complex128)
            h_v = h_w = e = gram_e = np.zeros(m, dtype=np.complex128)
            support = np.zeros(0, dtype=np.intp)  # of v
            for k in range(params.max_iter):
                z, h_z = v - w, h_v - h_w  # u_i = z + H_i^H d_i
                d = self.woodbury @ ((self.g - h_z) / rho - e)
                c = e + d
                v_next, support, h_v_next = prox_step(products, v, support, c, n, kappa)
                gram_d = self.gram @ d
                w, h_w = v - v_next, h_v - h_v_next
                v, h_v, e, gram_e = v_next, h_v_next, c, gram_e + gram_d
                # an overflow here is reported as a DivergenceError, not as a warning
                with np.errstate(over="ignore"):
                    primal = math.sqrt(self._stacked_sq_norm(z - v, h_z - h_v, d, gram_d))
                    dual = rho * math.sqrt(n) * float(np.linalg.norm(w))
                    objective = lasso_objective(h_v - self.g, v, params.lam)
                    if stopping or k == params.max_iter - 1:  # only the rule and the final state read them
                        u_norm = math.sqrt(self._stacked_sq_norm(z, h_z, d, gram_d))
                        s_norm = math.sqrt(self._stacked_sq_norm(w, h_w, e, gram_e))
                        eps_pri = scale + params.eps_rel * max(u_norm, math.sqrt(n) * float(np.linalg.norm(v)))
                        eps_dual = scale + params.eps_rel * rho * s_norm
                yield v, objective, primal, dual, stopping and primal <= eps_pri and dual <= eps_dual

        v, trace = run_iterations(self.operator, steps, on_iteration)
        return v, trace, AdmmState(v=v, k=len(trace), eps_pri=eps_pri, eps_dual=eps_dual)


def solve_consensus_lasso(h, g, params, n_blocks, workers=1, on_iteration=None):
    """One-call front end to ConsensusLassoSolver; returns (v, trace, state).

    ``workers`` has no effect (see ConsensusLassoSolver).
    """
    return ConsensusLassoSolver(h, g, params, n_blocks, workers=workers).run(on_iteration)
