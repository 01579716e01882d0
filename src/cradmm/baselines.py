"""Reference solvers and an independent optimality check for the lasso.

These exist to benchmark the consensus solver: a truncated-SVD pseudoinverse
(the classic non-sparse reconstruction, taken from a streamed QR factor of H
rather than from an SVD of H itself), an accelerated proximal-gradient
(Nesterov/FISTA-style) lasso solver, and a first-order KKT test that certifies
a candidate solution without running any solver at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from .admm import lasso_objective, prox_step, run_iterations
from .errors import DivergenceError
from .linop import adjoint, lasso_inputs, triangular_factor
from .scene import FINITE_GE0, IN_UNIT, INT_GE1


def solve_pseudoinverse(h, g, trunc_rel_tol=1e-10):
    """Minimum-norm least-squares estimate via a truncated SVD.

    Singular values below trunc_rel_tol * sigma_max are discarded; directions
    in the (numerical) null space receive zero weight. The SVD is that of the
    min(M, n) square streamed QR factor of H (``linop.triangular_factor``),
    so neither a work copy of H nor its n-long singular vectors are formed:
    for a wide H the estimate is H^H U_k S_k^-2 U_k^H g, one product with
    H^H; for a tall H it is V_k S_k^-1 U_k^H (Q^H g), with Q^H g carried
    through the factorization of [H g].
    """
    trunc_rel_tol = IN_UNIT.require(trunc_rel_tol, "trunc_rel_tol must lie in (0, 1)")
    op, b, _, _ = lasso_inputs(h, g, 0.0)
    rows, cols = op.shape
    if min(rows, cols) == 0:
        return np.zeros(cols, dtype=np.complex128)
    if rows <= cols:
        u_r, sing, _ = np.linalg.svd(triangular_factor(op.h).T)
    else:
        factor = triangular_factor(op.h, b)
        u_r, sing, vh_r = np.linalg.svd(factor[:cols, :cols])
    if sing[0] == 0.0:
        return np.zeros(cols, dtype=np.complex128)
    keep = sing > trunc_rel_tol * sing[0]
    u_k, sing = u_r[:, keep], sing[keep]
    if rows <= cols:
        # divided by sing twice: sing**2 overflows or underflows for a finite H scaled by 1e200 or 1e-170
        return adjoint(op.h, u_k @ ((u_k.conj().T @ b) / sing / sing))
    return vh_r[keep].conj().T @ ((u_k.conj().T @ factor[:cols, cols]) / sing)


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
            # an overflow here ends as a rescaled step or a DivergenceError, not as a warning
            with np.errstate(over="ignore"):
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
    """||a||_2, rescaled by max|a_p| when the plain sum of squares overflows.

    Call it with overflow warnings off.
    """
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
