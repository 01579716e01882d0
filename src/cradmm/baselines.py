"""Reference solvers and an independent optimality check for the lasso.

These exist to benchmark the consensus solver: a truncated-SVD pseudoinverse
(the classic non-sparse reconstruction, taken from a streamed QR factor of H
rather than from an SVD of H itself), an accelerated proximal-gradient
(Nesterov/FISTA-style) lasso solver, and a first-order KKT test that certifies
a candidate solution without running any solver at all.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .admm import ConvergenceTrace, IterationRecord, lasso_objective, soft_threshold
from .linop import SensingOperator, adjoint, triangular_factor
from .scene import matrix_array, vector_array


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
    if not 0.0 < trunc_rel_tol < 1.0:
        raise ValueError("trunc_rel_tol must lie in (0, 1)")
    a = matrix_array(h)
    b = vector_array(g)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"matrix has {a.shape[0]} rows but measurement has {b.shape[0]}")
    rows, cols = a.shape
    if min(rows, cols) == 0:
        return np.zeros(cols, dtype=np.complex128)
    if rows <= cols:
        u_r, sing, _ = np.linalg.svd(triangular_factor(a).T)
    else:
        factor = triangular_factor(a, b)
        u_r, sing, vh_r = np.linalg.svd(factor[:cols, :cols])
    if sing[0] == 0.0:
        return np.zeros(cols, dtype=np.complex128)
    keep = sing > trunc_rel_tol * sing[0]
    u_k, sing = u_r[:, keep], sing[keep]
    if rows <= cols:
        return adjoint(a, u_k @ ((u_k.conj().T @ b) / sing**2))
    return vh_r[keep].conj().T @ ((u_k.conj().T @ factor[:cols, cols]) / sing)


def solve_fista(h, g, lam, max_iter=500, tol=1e-10):
    """Accelerated proximal gradient for the complex lasso; returns (u, trace).

    The step is 1 / L with L = ||H||_2^2, computed exactly from the smaller
    Gram of H. The trace records the objective and the step norm per
    iteration; iteration stops once the relative objective change drops
    below tol (``trace.stop_reason`` "converged"), or at max_iter
    ("max_iter"). H x is carried along with x, and H y is formed from it by
    the same extrapolation as y, so an iteration costs one product with H and
    one with H^H.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    op = SensingOperator(h)
    b = vector_array(g)
    if op.shape[0] != b.shape[0]:
        raise ValueError(f"matrix has {op.shape[0]} rows but measurement has {b.shape[0]}")
    lips = op.norm_squared() or 1.0
    x = np.zeros(op.shape[1], dtype=np.complex128)
    h_x = np.zeros(op.shape[0], dtype=np.complex128)
    y, h_y = x, h_x
    t = 1.0
    trace = ConvergenceTrace(stop_reason="max_iter")
    prev_obj = None
    start = time.perf_counter()
    for k in range(max_iter):
        grad = op.adjoint(h_y - b)
        x_new = soft_threshold(y - grad / lips, lam / lips)
        h_x_new = op.forward(x_new)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y = x_new + beta * (x_new - x)
        h_y = h_x_new + beta * (h_x_new - h_x)
        step = float(np.linalg.norm(x_new - x))
        x, h_x, t = x_new, h_x_new, t_new
        obj = lasso_objective(h_x - b, x, lam)
        trace.append(IterationRecord(k, obj, step, 0.0, time.perf_counter() - start))
        if prev_obj is not None and abs(prev_obj - obj) < tol * max(abs(prev_obj), 1e-300):
            trace.stop_reason = "converged"
            break
        prev_obj = obj
    return x, trace


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals of the lasso at a candidate point."""

    max_active_violation: float
    max_inactive_excess: float
    tolerance: float
    passed: bool


def check_lasso_kkt(h, g, lam, v, tol):
    """Check lasso stationarity at v without solving anything.

    With r = H^H (H v - g): active entries (v_p != 0) must satisfy
    r_p + lam * v_p / |v_p| = 0, inactive ones |r_p| <= lam. Entries with
    |v_p| <= 1e-12 * max|v| (absolute 1e-14 when v = 0) count as inactive.
    With lam = 0 both conditions collapse to ||r||_inf <= tol.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    op = SensingOperator(h)
    b = vector_array(g)
    vv = vector_array(v)
    if op.shape != (b.shape[0], vv.shape[0]):
        raise ValueError(f"shapes do not match: H {op.shape}, g {b.shape}, v {vv.shape}")
    grad = op.adjoint(op.forward(vv) - b)
    vmax = float(np.max(np.abs(vv))) if vv.size else 0.0
    cutoff = 1e-12 * vmax if vmax > 0.0 else 1e-14
    active = np.abs(vv) > cutoff
    if np.any(active):
        av = vv[active]
        max_active = float(np.max(np.abs(grad[active] + lam * av / np.abs(av))))
    else:
        max_active = 0.0
    if np.any(~active):
        max_inactive = max(float(np.max(np.abs(grad[~active]))) - lam, 0.0)
    else:
        max_inactive = 0.0
    return KktReport(
        max_active_violation=max_active,
        max_inactive_excess=max_inactive,
        tolerance=float(tol),
        passed=max_active <= tol and max_inactive <= tol,
    )
