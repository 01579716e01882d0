"""Reference solvers for the lasso.

These exist to benchmark the consensus solver: a truncated-SVD pseudoinverse
(the classic non-sparse reconstruction, taken from the Gram of a
well-conditioned wide H, else from a streamed QR factor of H, never from an
SVD of H itself) and an accelerated proximal-gradient (Nesterov/FISTA-style)
lasso solver, which takes its loop, records, objective and prox step from
``linop`` as ADMM does. The first-order KKT test that certifies a result of
either solver without running one is ``linop.check_lasso_kkt``.

FISTA's settings are one validated ``FistaParams``, as ADMM's are one
``admm.AdmmParams``; ``fista_setup`` takes them and floors the Lipschitz
constant at LIPSCHITZ_FLOOR, so that its step 1 / L is finite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linop import EPS, lasso_inputs, lasso_objective, prox_step, run_iterations, triangular_factor
from .scene import FINITE_GE0, IN_UNIT, INT_GE1


# The Gram route of a wide H runs only while cond(H) = sqrt(w_max / w_min) <= GRAM_COND_LIMIT.
# Solving with the eigendecomposition of G = H H^H is backward stable for G, so the first
# estimate H^H y carries a relative error of about c eps cond^2, c a modest multiple of M.
# One refinement step, with its residual g - H (H^H y) taken through H, leaves about
# eps cond (the residual's own rounding, which the QR route also carries) plus
# (c eps cond^2)^2. The second term stays below the first while c^2 eps cond^3 <= 1: at
# cond = 100 that holds for c up to 6.7e4, so for M in the tens of thousands.
GRAM_COND_LIMIT = 100.0
# The route also needs w_min > (tol (1 + TRUNCATION_MARGIN))^2 w_max, so that it keeps every
# singular value and truncates none. The computed ratio w_min / w_max is within about
# M eps GRAM_COND_LIMIT^2 (2.2e-12 M) of the exact one, so a margin of 1e-6 decides as an
# exact SVD would for M up to about 1e6; a value nearer the threshold takes the QR route.
TRUNCATION_MARGIN = 1e-6
# Every eigenvalue w, and so 1 / w, must lie in [TINY / EPS, EPS / TINY] = [2^-970, 2^970]:
# 1 / w then neither overflows nor falls to a subnormal, and a Gram entry, a sum of n
# products each losing at most TINY EPS / 2 to underflow, is off by less than EPS w_min
# for any n < 1 / EPS.
TINY = float(np.finfo(np.float64).tiny)
GRAM_RANGE = (TINY / EPS, EPS / TINY)
# The least L whose reciprocal numpy forms finite (1 / (1 / DBL_MAX) is inf). prox_step divides
# H^H r by L as a product with 1 / L, so a subnormal ||H||^2 below this would make every entry
# inf or nan; FISTA floors L at it once, in set-up, which changes no run that finished without it.
LIPSCHITZ_FLOOR = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))
# singular values below this fraction of the largest are truncated, by default
PINV_TRUNC_REL_TOL = 1e-10


def solve_pseudoinverse(h, g, trunc_rel_tol=PINV_TRUNC_REL_TOL):
    """Minimum-norm least-squares estimate via a truncated SVD.

    Singular values below trunc_rel_tol * sigma_max are discarded; directions
    in the (numerical) null space receive zero weight. Neither a work copy of
    H nor its n-long singular vectors are formed.

    A wide H (M <= n) that passes the guards of ``_gram_route`` (a finite
    Gram, eigenvalues in GRAM_RANGE, cond(H) <= GRAM_COND_LIMIT and every
    singular value kept) takes H^H (H H^H)^-1 g from the eigendecomposition
    of the operator's Gram (``SensingOperator.gram``), refined once. Any
    other H takes the SVD of the min(M, n) square streamed QR factor of H
    (``linop.triangular_factor``): for a wide H the estimate H^H U_k S_k^-2 U_k^H g
    is taken as H^H _solve(U_k, (S_k / s_max)^2, g / s_max) / s_max, the Gram route's
    solve, which no scale of H alone overflows; for a tall H it is
    V_k S_k^-1 U_k^H (Q^H g), with Q^H g carried through the factorization of [H g].
    """
    trunc_rel_tol = IN_UNIT.require(trunc_rel_tol, "trunc_rel_tol must lie in (0, 1)")
    op, b, _, _ = lasso_inputs(h, g, 0.0)
    rows, cols = op.shape
    if min(rows, cols) == 0:
        return np.zeros(cols, dtype=np.complex128)
    if rows <= cols:
        estimate = _gram_route(op, b, trunc_rel_tol)
        if estimate is not None:
            return estimate
        u_r, sing, _ = np.linalg.svd(triangular_factor(op.h).T)
    else:
        factor = triangular_factor(op.h, b)
        u_r, sing, vh_r = np.linalg.svd(factor[:cols, :cols])
    if sing[0] == 0.0:
        return np.zeros(cols, dtype=np.complex128)
    keep = sing > trunc_rel_tol * sing[0]
    u_k, sing = u_r[:, keep], sing[keep]
    if rows <= cols:  # w = (sigma / sigma_max)^2 lies in (tol^2, 1] at any scale of H
        return op.adjoint(_solve(u_k, (sing / sing[0]) ** 2, b / sing[0])) / sing[0]
    return vh_r[keep].conj().T @ ((u_k.conj().T @ factor[:cols, cols]) / sing)


def _gram_route(op, b, tol):
    """H^H y with H H^H y = b, from the eigendecomposition G = U diag(w) U^H of the Gram.

    y = U diag(1 / w) U^H b is refined once, y += U diag(1 / w) U^H (b - H H^H y), which
    takes three passes over H with the final H^H y. None when a guard fails.
    """
    gram = op.gram()  # formed with overflow warnings off: a scaled H whose Gram overflows takes the QR route
    if not np.isfinite(gram).all():
        return None
    w, u = np.linalg.eigh(gram)
    low, high = GRAM_RANGE
    if not (low <= w[0] and w[-1] <= high and w[0] > (tol * (1.0 + TRUNCATION_MARGIN)) ** 2 * w[-1]
            and w[0] * GRAM_COND_LIMIT**2 >= w[-1]):
        return None
    y = _solve(u, w, b)
    y += _solve(u, w, b - op.forward(op.adjoint(y)))
    return op.adjoint(y)


def _solve(u, w, r):
    """U diag(1 / w) U^H r, the minimum-norm solve of both wide routes."""
    return u @ ((u.conj().T @ r) / w)


@dataclass(frozen=True)
class FistaParams:
    """FISTA's knobs: 1-norm weight, budget and the relative objective change that stops it.

    Setting tol = 0 disables early stopping, so exactly max_iter iterations run.
    """

    lam: float
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        for name, rule, message in (("lam", FINITE_GE0, "lam must be finite and >= 0"),
                                    ("max_iter", INT_GE1, "max_iter must be >= 1 and an integer"),
                                    ("tol", FINITE_GE0, "tol must be finite and >= 0")):
            object.__setattr__(self, name, rule.require(getattr(self, name), message))


def solve_fista(h, g, lam, max_iter=FistaParams.max_iter, tol=FistaParams.tol, on_iteration=None):
    """Accelerated proximal gradient, driven by ``linop.run_iterations``; returns (u, trace).

    The arguments are checked as one FistaParams. The step is 1 / L with
    L = ||H||_2^2, computed exactly from the smaller Gram of H (1.0 for
    H = 0) and floored at LIPSCHITZ_FLOOR. Records the objective and the
    step norm; the rule holds once the relative objective change drops below
    tol. H x is carried along with x and H y extrapolated from it as y is,
    so an iteration is one ``linop.prox_step`` of y on g - H y and the
    supports of x and the last x (their union holds y's), equal to
    y - grad / L but for the sign of a zero.
    """
    return fista_setup(h, g, FistaParams(lam, max_iter, tol))(on_iteration)


def fista_setup(h, g, params):
    """``solve_fista``'s run with the FistaParams ``params``, set up.

    Returns a callable that takes ``on_iteration`` and returns (u, trace).
    Every refusal of ``solve_fista`` is raised by its FistaParams or here,
    before any iteration.
    """
    op, b, _, lam = lasso_inputs(h, g, params.lam)
    lips = max(op.norm_squared() or 1.0, LIPSCHITZ_FLOOR)
    if not math.isfinite(lips):
        raise DivergenceError(f"||H||^2 is not finite: {lips}")

    def steps(products):
        x = y = np.zeros(op.shape[1], dtype=np.complex128)
        h_x = h_y = np.zeros(op.shape[0], dtype=np.complex128)
        x_support = np.zeros(0, dtype=np.intp)
        y_supports = (x_support,)  # index arrays whose union holds supp(y)
        t = 1.0
        prev_obj = None
        while True:
            x_new, support, h_x_new = prox_step(products, y, y_supports, b - h_y, lips, lam / lips)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            dx = x_new - x
            step = _norm(dx)
            obj = lasso_objective(h_x_new - b, x_new, lam)
            y = np.add(x_new, np.multiply(beta, dx, out=dx), out=dx)  # x_new + beta (x_new - x), in dx
            h_y = h_x_new + beta * (h_x_new - h_x)
            y_supports = (support, x_support)
            x, h_x, t, x_support = x_new, h_x_new, t_new, support
            yield x, obj, step, 0.0, (prev_obj is not None
                                      and abs(prev_obj - obj) < params.tol * max(abs(prev_obj), 1e-300))
            prev_obj = obj

    return lambda on_iteration: run_iterations(op, steps, params.max_iter, on_iteration)


def _norm(a):
    """||a||_2, rescaled by max|a_p| when the plain sum of squares overflows."""
    norm = float(np.linalg.norm(a))
    if math.isfinite(norm):
        return norm
    magnitudes = np.abs(a)
    scale = float(magnitudes.max())
    return scale * float(np.linalg.norm(magnitudes / scale))
