"""Reconstruction quality metrics and axis-aligned maximum-intensity projections."""

import math
from dataclasses import dataclass

import numpy as np

from .scene import IN_UNIT, vector_array


def nmse(u_est, u_true):
    """||u_est - u_true||^2 / ||u_true||^2, +inf where that overflows, never NaN for finite inputs.

    A sum of squares that overflows (an overflowing complex ``vdot`` reads nan) is taken
    again on both vectors times one power of two that brings their largest part below 1,
    which leaves the ratio as it is.
    """
    est = vector_array(u_est)
    true = vector_array(u_true)
    if est.shape != true.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {true.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = _sum_squares(true)
        if denom == 0.0:
            raise ValueError("nmse is undefined for a zero reference vector")
        num = _sum_squares(est - true)
        if not (math.isfinite(num) and math.isfinite(denom)):
            peak = max(float(np.max(np.abs(part))) for part in (est.real, est.imag, true.real, true.imag))
            scale = 2.0 ** -math.frexp(peak)[1]
            num, denom = _sum_squares(est * scale - true * scale), _sum_squares(true * scale)
    return num / denom if denom else math.inf  # denom is 0 here only if true's scaled squares underflow


def _sum_squares(a):
    return float(np.real(np.vdot(a, a)))


def support_metrics(u_est, u_true, rel_threshold):
    """(precision, recall) of the estimated support.

    A voxel counts as detected when its magnitude reaches rel_threshold times
    the estimate's peak (nothing is detected when the estimate is zero); the
    reference support is the exact nonzero set. An empty detected set scores
    precision 1 against an empty reference and 0 otherwise; recall against an
    empty reference is 1.
    """
    rel_threshold = IN_UNIT.require(rel_threshold, "rel_threshold must lie in (0, 1)")
    est = vector_array(u_est)
    true = vector_array(u_true)
    if est.shape != true.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {true.shape}")
    peak = float(np.max(np.abs(est))) if est.size else 0.0
    detected = np.abs(est) >= rel_threshold * peak if peak > 0.0 else np.zeros(est.shape, dtype=bool)
    truth = true != 0
    n_detected = int(detected.sum())
    n_truth = int(truth.sum())
    n_hit = int((detected & truth).sum())
    if n_detected == 0:
        precision = 1.0 if n_truth == 0 else 0.0
    else:
        precision = n_hit / n_detected
    recall = 1.0 if n_truth == 0 else n_hit / n_truth
    return float(precision), float(recall)


@dataclass(frozen=True)
class VolumeViews:
    """Maximum-intensity projections: top along z (ny x nx), front along y (nz x nx), side along x (nz x ny)."""

    top: np.ndarray
    front: np.ndarray
    side: np.ndarray


def project_views(u, grid):
    """Project |u| onto the three axis planes; voxel order is x fastest, then y, then z."""
    nx, ny, nz = grid
    vec = vector_array(u)
    if vec.shape[0] != nx * ny * nz:
        raise ValueError(f"vector of length {vec.shape[0]} does not fill a {nx}x{ny}x{nz} grid")
    vol = np.abs(vec).reshape(nz, ny, nx)
    return VolumeViews(top=vol.max(axis=0), front=vol.max(axis=1), side=vol.max(axis=2))
