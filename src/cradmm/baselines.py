"""Reference solvers and an independent optimality check for the lasso.

These exist to benchmark the consensus solver: a truncated-SVD pseudoinverse
(the classic non-sparse reconstruction, taken from the Gram of a
well-conditioned wide H, else from a streamed QR factor of H, never from an
SVD of H itself), an accelerated proximal-gradient
(Nesterov/FISTA-style) lasso solver, and a first-order KKT test that certifies
a candidate solution without running any solver at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from .admm import lasso_objective, prox_step, run_iterations
from .errors import DivergenceError
from .linop import EPS, lasso_inputs, triangular_factor
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


def solve_pseudoinverse(h, g, trunc_rel_tol=1e-10):
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


def solve_fista(h, g, lam, max_iter=500, tol=1e-10, on_iteration=None):
    """Accelerated proximal gradient, driven by ``admm.run_iterations``; returns (u, trace).

    The step is 1 / L with L = ||H||_2^2, computed exactly from the smaller
    Gram of H. Records the objective and the step norm; the rule holds once
    the relative objective change drops below tol. H x is carried along with
    x and H y extrapolated from it as y is, so an iteration is one
    ``admm.prox_step`` of y on g - H y and the supports of x and the last x
    (their union holds y's), equal to y - grad / L but for the sign of a zero.
    """
    op, b, _, lam = lasso_inputs(h, g, lam)
    max_iter = INT_GE1.require(max_iter, "max_iter must be >= 1 and an integer")
    tol = FINITE_GE0.require(tol, "tol must be finite and >= 0")
    lips = op.norm_squared() or 1.0
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
                                      and abs(prev_obj - obj) < tol * max(abs(prev_obj), 1e-300))
            prev_obj = obj

    return run_iterations(op, steps, max_iter, on_iteration)


def _norm(a):
    """||a||_2, rescaled by max|a_p| when the plain sum of squares overflows."""
    norm = float(np.linalg.norm(a))
    if math.isfinite(norm):
        return norm
    magnitudes = np.abs(a)
    scale = float(magnitudes.max())
    return scale * float(np.linalg.norm(magnitudes / scale))


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals of the lasso at a candidate point, and its objective.

    ``passed`` says whether both residuals are within the ``tol`` the check was given.
    """

    max_active_violation: float
    max_inactive_excess: float
    passed: bool
    objective: float  # the lasso objective at v, from the same H v - g (evaluate_objective's value)
    violation: float  # the larger of the two residuals, NaN if either is


def check_lasso_kkt(h, g, lam, v, tol):
    """Check lasso stationarity at v without solving anything.

    With r = H^H (H v - g): active entries (v_p != 0) must satisfy
    r_p + lam * v_p / |v_p| = 0, inactive ones |r_p| <= lam. Entries with
    |v_p| <= 1e-12 * max|v| (absolute 1e-14 when v = 0) count as inactive.
    With lam = 0 both conditions collapse to ||r||_inf <= tol.
    """
    op, b, vv, lam = lasso_inputs(h, g, lam, v)
    tol = FINITE_GE0.require(tol, "tol must be finite and >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports a non-finite certificate
        resid = op.forward(vv) - b
        grad = op.adjoint(resid)
    objective = lasso_objective(resid, vv, lam)
    mag = np.abs(vv)
    vmax = float(np.max(mag, initial=0.0))
    cutoff = 1e-12 * vmax if vmax > 0.0 else 1e-14
    active = mag > cutoff
    # r_p + (lam v_p) / |v_p| into grad on the active entries, its term formed only there
    term = np.multiply(lam, vv, out=np.empty_like(grad), where=active)
    np.divide(term, mag, out=term, where=active)
    np.add(grad, term, out=grad, where=active)
    np.abs(grad, out=mag)
    max_active = float(np.max(mag, where=active, initial=0.0))
    max_inactive = max(float(np.max(mag, where=~active, initial=0.0)) - lam, 0.0)
    return KktReport(
        max_active_violation=max_active,
        max_inactive_excess=max_inactive,
        passed=max_active <= tol and max_inactive <= tol,
        objective=objective,
        violation=float(np.maximum(max_active, max_inactive)),
    )
