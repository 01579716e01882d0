"""The sensing matrix H as a linear operator, shared by every solver.

ADMM, FISTA, the lasso objective and the KKT certificate all touch H only
through this layer: the forward product H x, the adjoint H^H r and the exact
spectral norm ||H||_2^2. ``block_diagonal`` assembles per-block m_i x m_i
factors (the consensus solver's Grams and Woodbury inverses) into one M x M
matrix. ``triangular_factor`` is a streamed ("tall-skinny") QR factor of H,
min(M, n) square, with the singular values of H; the pseudoinverse baseline
takes its SVD instead of one of H.

The adjoint is evaluated as (r^H H)^H, which walks the row-major H in place;
neither a conjugate copy nor a transposed copy of H is ever made.
"""

import numpy as np

from .scene import matrix_array

# entries per slice when a Gram or a triangular factor is accumulated; bounds
# the per-slice temporaries (~2 MB)
GRAM_CHUNK_ENTRIES = 1 << 17


def adjoint(h, r):
    """H^H r for a row-major H, without copying H."""
    return (np.conj(r) @ h).conj()


def block_diagonal(blocks, mats):
    """Dense M x M matrix holding mats[i] on the diagonal rows/columns blocks[i]."""
    size = blocks[-1][1]
    out = np.zeros((size, size), dtype=np.complex128)
    for (start, stop), mat in zip(blocks, mats):
        out[start:stop, start:stop] = mat
    return out


def gram(h):
    """The smaller Gram of H: H H^H when H is wide, H^H H when it is tall.

    Accumulated over column (or row) slices so that only one slice at a time
    is conjugated.
    """
    rows, cols = h.shape
    if rows <= cols:
        step = max(1, GRAM_CHUNK_ENTRIES // rows)
        out = np.zeros((rows, rows), dtype=np.complex128)
        for start in range(0, cols, step):
            part = h[:, start:start + step]
            out += part @ part.conj().T
    else:
        step = max(1, GRAM_CHUNK_ENTRIES // cols)
        out = np.zeros((cols, cols), dtype=np.complex128)
        for start in range(0, rows, step):
            part = h[start:start + step]
            out += part.conj().T @ part
    return out


def triangular_factor(h, rhs=None):
    """Upper-triangular R from a QR factorization streamed over slices of H.

    A wide H (M <= n) is factored as H^T = Q R one column slice of H at a
    time, so H = R^T Q^T: R^T (M x M) has the singular values and the left
    singular vectors of H. A tall H is factored as H = Q R one row slice at a
    time: R (n x n) has its singular values and right singular vectors. Slices
    are sized as in ``gram``; only one slice and R are held at once, and Q is
    never formed.

    For a tall H, ``rhs`` (length M) is carried along as one more column:
    the result is then the (n + 1) x (n + 1) factor of [H rhs], whose last
    column holds Q^H rhs above its diagonal.
    """
    rows, cols = h.shape
    if rows <= cols:
        if rhs is not None:
            raise ValueError("rhs is carried only through the factor of a tall H")
        step = max(1, GRAM_CHUNK_ENTRIES // rows)
        slices = (h[:, start:start + step].T for start in range(0, cols, step))
        width = rows
    else:
        step = max(1, GRAM_CHUNK_ENTRIES // cols)
        slices = (
            h[start:start + step] if rhs is None
            else np.hstack((h[start:start + step], rhs[start:start + step, None]))
            for start in range(0, rows, step)
        )
        width = cols if rhs is None else cols + 1
    r = np.zeros((0, width), dtype=np.complex128)
    for part in slices:
        r = np.linalg.qr(np.vstack((r, part)), mode="r")
    return r


class SensingOperator:
    """A dense complex M x n matrix with the products the solvers need."""

    def __init__(self, h):
        self.h = np.ascontiguousarray(matrix_array(h))

    @property
    def shape(self):
        return self.h.shape

    def forward(self, x):
        return self.h @ x

    def adjoint(self, r):
        return adjoint(self.h, r)

    def norm_squared(self):
        """Exact ||H||_2^2: the largest eigenvalue of the smaller Gram."""
        return max(float(np.linalg.eigvalsh(gram(self.h))[-1]), 0.0)
