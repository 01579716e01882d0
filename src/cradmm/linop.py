"""The sensing matrix H as a linear operator, shared by every solver.

ADMM, FISTA, the lasso objective and the KKT certificate all touch H only
through this layer: the forward product H x, the adjoint H^H r and the exact
spectral norm ||H||_2^2. ``block_diagonal`` assembles per-block m_i x m_i
factors (the consensus solver's Grams and Woodbury inverses) into one M x M
matrix.

The adjoint is evaluated as (r^H H)^H, which walks the row-major H in place;
neither a conjugate copy nor a transposed copy of H is ever made.
"""

import numpy as np

from .scene import matrix_array

# entries per slice when a Gram is accumulated; bounds the conjugated temporary (~2 MB)
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
