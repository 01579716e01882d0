"""The sensing matrix H as a linear operator, shared by every solver.

Every solver, the objective and the KKT check take a ``SensingOperator``
wherever they take H. One operator owns H for a command: the products H x and
H^H r, and every factor derived from H (its smaller Gram, ||H||_2^2, the
column norms, the block Grams of a row partition and their Woodbury inverses,
one per (partition, rho)), each formed once through one cache, under one
floating-point policy (an overflow gives inf or nan, no warning), read-only
and shared by every run. Every Gram, of H or of a row block, comes from
``gram``. The pseudoinverse baseline solves with the smaller Gram of H when H
is well-conditioned; otherwise it takes the SVD of ``triangular_factor``, a
streamed ("tall-skinny") QR factor of H, min(M, n) square, with the singular
values of H, instead of one of H.

``SupportProducts`` holds the products of one solver run, which
``admm.prox_step`` takes: x = soft(base + H^H r / d, kappa), then H x, with
x mostly zeros for a sparse scene. While its support is narrow, H x reads
only the columns in it, and H^H r skips every column whose entry a safe
screening bound proves the threshold will zero (El Ghaoui, Viallon and
Rabbani, Pacific J. Optim. 8(4), 2012; Fercoq, Gramfort and Salmon, ICML
2015). Outside the support of base the prox returns 0 exactly when
|(H^H r)_p| <= t = kappa d. For an anchor residual r_a with q_a = H^H r_a,
Cauchy-Schwarz on column h_p gives

    |(H^H r)_p| <= |q_a,p| + ||h_p|| ||r - r_a||.

The prox reads the computed (H^H r)_p, an inner product of length M within
sqrt(2) gamma_{M+2} ||h_p|| ||r|| of the exact one (gamma_k = k eps / 2
over 1 - k eps / 2, and |h_p|^T |r| <= ||h_p|| ||r||); the stored q_a is as
close to its exact value, with ||r_a||. The computed ||h_p|| and
||r - r_a|| are each within about (M + 1) eps relative, so their product's
error is below (2 M + 3) eps ||h_p|| (||r|| + ||r_a||). Those terms sum to
less than 4 (M + 2) eps ||h_p|| (||r|| + ||r_a||), so

    bound_p = |q_a,p| + ||h_p|| (||r - r_a|| + 2 f + 4 (M + 2) eps (||r|| + ||r_a||))

with computed norms is at least the |(H^H r)_p| the prox would compute, up
to a few roundings relative to bound_p itself. Entry p is screened when

    bound_p <= t (1 - 16 eps) - 4 (M + 2) u.

The 16 eps covers those roundings and the prox's own on the way to its
test |.| <= kappa: forming t, dividing by d (N, or FISTA's Lipschitz
constant), a modulus, and the threshold's quotient. numpy divides a complex
array by a real d as a product with 1 / d, so the division is two roundings,
not one; that makes about 13.5 eps in all, which 16 eps still covers.
The rest covers underflow. u is the smallest subnormal; a product that
underflows loses at most u / 2, so the two inner products lose at most
4 M u between them. A 2-norm of an M-vector loses at most f = sqrt(2 M u) to
its squares that underflow: the column norms carry f and the residual
norms 2 f. A non-finite residual gives a NaN or infinite bound, which is
never screened.

The adjoint is evaluated as (r^H H)^H, which walks the row-major H in place;
neither a conjugate copy nor a transposed copy of H is ever made.
"""

import math

import numpy as np

from .scene import FINITE_GE0, matrix_array, vector_array

# entries per slice when a Gram or a triangular factor is accumulated, or an
# array scanned for non-finite entries (``all_finite``): a slice is 0.5 MB,
# so it and its conjugate copy fit in a core's 2 MB L2. Medians of 21 on a
# 2-vCPU Intel Xeon VM, one OpenBLAS thread: the Gram of a 93 x 25000 H takes
# 41 ms (35-65 ms from one run to the next), its 31 row-block Grams 16 ms, the
# pseudoinverse's Gram route once the Gram is formed 6.9 ms and
# triangular_factor 132 ms; at 93 x 2500, 3.1, 1.2, 2.1 and 11.5 ms.
GRAM_CHUNK_ENTRIES = 1 << 15

# SupportProducts takes the dense H x and H^H r once the support (for H^H r,
# with the unscreened columns) holds more than n / SPARSE_FRACTION columns.
# Measured on a 2-vCPU Intel Xeon VM with one OpenBLAS thread, random 93 x n
# complex H, best of 7: the dense H x takes 0.149 ms at n = 2500 and 1.45 ms
# at n = 25000. At width n / 16 a gather
# H[:, cols] takes 0.018 and 0.70 ms and the gathered product 0.007 and
# 0.087 ms, so even an iteration that gathers costs about half a dense
# product. Gather plus product reaches the dense cost near n / 4 (0.161 ms)
# at n = 2500 and near n / 8 (1.49 ms) at n = 25000; a product on reused
# columns stays cheaper up to n / 2.
SPARSE_FRACTION = 16

# the screening rule's rounding slack (times (M + 2) eps) and margin (times
# eps); the module docstring derives both
SCREEN_SLACK = 4.0
SCREEN_MARGIN = 16.0
EPS = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


def adjoint(h, r):
    """H^H r for a row-major H, without copying H; conjugated in place, so its one n-vector is new."""
    out = np.conj(r) @ h
    return np.conjugate(out, out=out)


def gram(h):
    """H H^H, accumulated over column slices of H.

    Each slice holds at most GRAM_CHUNK_ENTRIES entries (one column at least),
    and only one slice at a time is conjugated. For a tall H, ``gram(h.T)``
    is the smaller Gram: H^T conj(H), the conjugate of H^H H.
    """
    rows, cols = h.shape
    step = max(1, GRAM_CHUNK_ENTRIES // max(1, rows))
    out = np.zeros((rows, rows), dtype=np.complex128)
    for start in range(0, cols, step):
        part = h[:, start:start + step]
        out += part @ part.conj().T
    return out


def triangular_factor(h, rhs=None):
    """Upper-triangular R from a QR factorization streamed over row slices.

    A tall H is factored as H = Q R: R (n x n) has its singular values and
    right singular vectors. A wide H (M <= n) is factored as its transpose,
    H^T = Q R, so H = R^T Q^T: R^T (M x M) has the singular values and the
    left singular vectors of H. Each row slice holds at most
    GRAM_CHUNK_ENTRIES entries (one row at least); only one slice and R are
    held at once, and Q is never formed.

    For a tall H, ``rhs`` (length M) is carried along as one more column:
    the result is then the (n + 1) x (n + 1) factor of [H rhs], whose last
    column holds Q^H rhs above its diagonal.
    """
    if h.shape[0] <= h.shape[1]:
        if rhs is not None:
            raise ValueError("rhs is carried only through the factor of a tall H")
        h = h.T
    rows, cols = h.shape
    step = max(1, GRAM_CHUNK_ENTRIES // cols)
    r = np.zeros((0, cols if rhs is None else cols + 1), dtype=np.complex128)
    for start in range(0, rows, step):
        part = h[start:start + step]
        if rhs is not None:
            part = np.hstack((part, rhs[start:start + step, None]))
        r = np.linalg.qr(np.vstack((r, part)), mode="r")
    return r


class SupportProducts:
    """H x and H^H r for the iterates of one solver run, reading only the columns they need.

    ``forward(x, support)`` takes sorted indices ``support`` that hold every
    nonzero entry of x. While they number at most n / SPARSE_FRACTION, the
    product is taken over the gathered columns ``cols`` when they hold the
    support, and over the support, gathered anew, when they do not. A wider
    support takes the dense H @ x.

    ``adjoint(r, supports, threshold)`` is H^H r for ``admm.prox_step``,
    whose base has its nonzero entries in ``supports``, a tuple of sorted
    index arrays whose union holds them. Outside the support the prox
    zeroes entry p exactly when |(H^H r)_p| <= threshold, and the anchor
    bound of the module docstring proves that for most p without reading
    column p. Those entries are returned as exact zeros; the support and the
    unscreened entries are taken over gathered columns as in ``forward``.
    When there are more than n / SPARSE_FRACTION of them, or no anchor yet,
    the dense adjoint runs and its residual becomes the new anchor. A support
    wider than that, or a zero threshold, takes the dense adjoint without
    screening. Every path returns a new array, which the caller may overwrite.

    ``sparse_forward_calls`` and ``screened_adjoint_calls`` count the
    products taken on the gathered columns. The gathered columns (at most
    M n / SPARSE_FRACTION entries) and the anchor (n floats) belong to this
    object, never to the shared operator: each run creates its own, so its
    results do not depend on what ran before it. Only the column norms, formed
    on the first screening, are the operator's.
    """

    def __init__(self, h):
        self.operator = as_operator(h)
        self.h = self.operator.h
        self.cols = np.zeros(0, dtype=np.intp)
        self.sparse_forward_calls = 0
        self.screened_adjoint_calls = 0
        self._block = self.h[:, self.cols]
        self._cached = np.zeros(self.h.shape[1], dtype=bool)
        self._anchor = None  # (r_a, |H^H r_a|, ||r_a||)

    def _narrow(self, count):
        return count * SPARSE_FRACTION <= self.h.shape[1]

    def _gather(self, cols):
        """Hold the columns ``cols`` (sorted), unless the held ones include them."""
        if not self._cached[cols].all():
            self._cached[self.cols] = False
            self._cached[cols] = True
            self.cols = cols
            del self._block  # the old and the new columns are never held together
            self._block = self.h[:, cols]

    def forward(self, x, support):
        if not self._narrow(len(support)):
            return self.h @ x
        self._gather(support)
        self.sparse_forward_calls += 1
        return self._block @ x[self.cols]

    def adjoint(self, r, supports, threshold):
        if threshold <= 0 or not all(self._narrow(len(s)) for s in supports):
            return adjoint(self.h, r)
        if self._anchor is not None:
            keep = self._unscreened(r, threshold)
            for s in supports:
                keep[s] = True
            cols = np.flatnonzero(keep)
            if self._narrow(len(cols)):
                self._gather(cols)
                self.screened_adjoint_calls += 1
                out = np.zeros(self.h.shape[1], dtype=np.complex128)
                out[self.cols] = np.where(keep[self.cols], adjoint(self._block, r), 0.0)
                return out
        q = adjoint(self.h, r)
        self._anchor = (r.copy(), np.abs(q), _norm(r))
        return q

    def _unscreened(self, r, threshold):
        """Mask of the entries of H^H r that the anchor bound cannot prove <= threshold."""
        m = len(r)
        r_a, abs_q, norm_a = self._anchor
        limit = threshold * (1.0 - SCREEN_MARGIN * EPS) - SCREEN_SLACK * (m + 2) * SUBNORMAL
        # an overflow or a non-finite residual makes a bound infinite or NaN, never screened
        reach = (_norm(r - r_a) + 2.0 * _norm_floor(m)
                 + SCREEN_SLACK * (m + 2) * EPS * (_norm(r) + norm_a))
        return ~(abs_q + self.operator.column_norms() * reach <= limit)


def _norm(a):
    """||a||_2 as sqrt(a^H a): one inner product, no rescaling."""
    return math.sqrt(np.vdot(a, a).real)


def _norm_floor(m):
    """The most a computed 2-norm of an m-vector can lose to squares that underflow.

    Each of its 2 m real squares loses at most half the smallest subnormal.
    """
    return math.sqrt(2 * m * SUBNORMAL)


def column_norms(h):
    """Upper bounds on ||h_p|| for every column of H, accumulated one row at a time.

    Never forms an H-sized temporary. Each norm is the computed one plus
    ``_norm_floor(M)``, which covers squares that fall below the subnormal
    range.
    """
    squares = np.zeros(h.shape[1])
    for row in h:
        squares += row.real**2
        squares += row.imag**2
    return np.sqrt(squares) + _norm_floor(h.shape[0])


def all_finite(a):
    """Whether every entry of the matrix or vector ``a`` is finite.

    Scanned over row slices of at most GRAM_CHUNK_ENTRIES entries (one row at
    least; a vector scans as one column), so no mask as large as ``a`` is made.
    """
    rows = a if a.ndim == 2 else a[:, None]
    step = max(1, GRAM_CHUNK_ENTRIES // max(1, rows.shape[1]))
    return all(np.isfinite(rows[start:start + step]).all() for start in range(0, rows.shape[0], step))


class SensingOperator:
    """A dense complex M x n matrix H with its products and every factor derived from it.

    ``gram()``, ``norm_squared()``, ``column_norms()``, ``block_gram(blocks)``
    and ``woodbury(blocks, rho)`` (one per partition and rho) each come from
    one cache, ``_factor``: formed on first use and kept read-only, and one
    whose computation raises is not kept. Every factor is formed with
    overflow and invalid-operation warnings off; an entry that overflows is
    inf or nan, for the caller to test. ``gram()`` is
    the smaller Gram of H, from which ``norm_squared()`` (FISTA's step) and
    the pseudoinverse's Gram route both read, so a command forms it once.
    Nothing of one solver run (gathered columns, an anchor) is stored here.
    """

    def __init__(self, h):
        self.h = np.ascontiguousarray(matrix_array(h))
        self._factors = {}

    @property
    def shape(self):
        return self.h.shape

    def forward(self, x):
        return self.h @ x

    def adjoint(self, r):
        return adjoint(self.h, r)

    def _factor(self, key, form, *args):
        if key not in self._factors:
            # a finite H whose factor overflows runs on; its callers report a non-finite result
            with np.errstate(invalid="ignore", over="ignore"):
                factor = self._factors[key] = form(*args)
            if isinstance(factor, np.ndarray):
                factor.flags.writeable = False  # shared by every run of the command
        return self._factors[key]

    def gram(self):
        """The smaller Gram: H H^H (M x M) for a wide or square H, H^T conj(H) (n x n) for a tall one."""
        h = self.h
        return self._factor("gram", gram, h if h.shape[0] <= h.shape[1] else h.T)

    def norm_squared(self):
        """Exact ||H||_2^2, the smaller Gram's largest eigenvalue: inf if that overflows, nan if H is not finite."""
        return self._factor("norm_squared", _largest_eigenvalue, self.gram(), self.h)

    def column_norms(self):
        """Upper bounds on every ||h_p||, as ``column_norms`` forms them."""
        return self._factor("column_norms", column_norms, self.h)

    def block_gram(self, blocks):
        """G, the M x M block diagonal of the Grams H_i H_i^H of the row ranges ``blocks``.

        A non-finite entry of H_i makes diag(H_i H_i^H) non-finite, so H is
        scanned (ValueError if it holds one) only when G is not finite.
        """
        return self._factor(("block_gram", blocks), _block_gram, self.h, blocks)

    def woodbury(self, blocks, rho):
        """S, the M x M block diagonal of the inverses (I + G_ii / rho)^-1 of the blocks of ``block_gram(blocks)``."""
        return self._factor(("woodbury", blocks, rho), _woodbury, self.block_gram(blocks), blocks, rho)


def as_operator(h):
    """``h`` when it is a SensingOperator, else a new one on the matrix ``h``."""
    return h if isinstance(h, SensingOperator) else SensingOperator(h)


def lasso_inputs(h, g, lam, x=None):
    """The operator on H, g and x (None when not given) as complex vectors, and lam as a float.

    ValueError unless lam is finite and >= 0, g has one entry per row of H
    and x one per column.
    """
    lam = FINITE_GE0.require(lam, "lam must be finite and >= 0")
    op = as_operator(h)
    gv = vector_array(g)
    xv = None if x is None else vector_array(x)
    if gv.shape[0] != op.shape[0] or (xv is not None and xv.shape[0] != op.shape[1]):
        raise ValueError(f"shapes do not match: H {op.shape}, g {gv.shape}, x {getattr(xv, 'shape', None)}")
    return op, gv, xv, lam


def _largest_eigenvalue(small, h):
    """The largest eigenvalue of the Gram ``small`` of ``h``: if it is not finite, inf for a finite h, else nan."""
    if not np.isfinite(small).all():  # eigvalsh may not converge on it; every |G_ij| <= ||H||^2
        return math.inf if all_finite(h) else math.nan
    return float(np.max(np.linalg.eigvalsh(small), initial=0.0))


def _block_gram(h, blocks):
    full = np.zeros((h.shape[0], h.shape[0]), dtype=np.complex128)
    for start, stop in blocks:
        full[start:stop, start:stop] = gram(h[start:stop])
    if not np.all(np.isfinite(full)) and not all_finite(h):
        raise ValueError("block contains non-finite entries")
    return full


def _woodbury(block_gram, blocks, rho):
    out = np.zeros_like(block_gram)
    for start, stop in blocks:
        block = block_gram[start:stop, start:stop]
        inverse = np.linalg.inv(np.eye(stop - start, dtype=np.complex128) + block / rho)
        # the exact inverse is Hermitian; symmetrize away LU round-off
        out[start:stop, start:stop] = 0.5 * (inverse + inverse.conj().T)
    return out
