"""Complex 2x2 and small dense real linear algebra primitives.

The package's one set of 2x2 kernels lives here: a 2x2 matrix is the tuple of
its entries (m00, m01, m10, m11), Python complex or arrays over a stack, and
``_norm4`` and ``_form`` take either.  Besides them: a numerically stable
quadratic-formula eigensolver, row-reduction rank over the reals, and the
eigenvalues of a Hermitian 2x2 matrix.  ``as_mat2``, ``eigenvalues2``,
``inverse2`` and ``real_rank`` reject NaN/Inf, ``as_mat2`` by ``cmath.isfinite``
on its four entries as Python complex; the kernels do not check.

numpy is imported inside the functions that build or read arrays, so the
scalar kernels load without it.
"""
from __future__ import annotations

import cmath
import math
import sys

from .errors import InvalidInput, SingularMatrix

EPS = sys.float_info.epsilon

#: Relative determinant floor (vs ||A||_F^2) below which inverse2 refuses.
TOL_SINGULAR = 1e-12


def as_mat2(A) -> np.ndarray:
    """Validate and return a 2x2 complex128 copy of ``A``."""
    import numpy as np

    M = np.array(A, dtype=np.complex128)
    if M.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 matrix, got shape {M.shape}")
    if not all(map(cmath.isfinite, M.ravel().tolist())):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return M


def _check_scalar(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInput(f"{name} is not finite")
    return z


def _norm4(m00, m01, m10, m11):
    """Frobenius norm of the 2x2 matrix with entries m00, m01, m10, m11.

    Scalars (Python numbers, and numpy's float64 and complex128 scalars, which
    subclass them) go through math.hypot, which squares no entry; arrays keep
    the square root of the sum of squares that classify_many's bytes rest on."""
    if isinstance(m00, (complex, float, int)):
        return math.hypot(abs(m00), abs(m01), abs(m10), abs(m11))
    import numpy as np

    return np.sqrt(abs(m00) ** 2 + abs(m01) ** 2 + abs(m10) ** 2 + abs(m11) ** 2)


def _form(a, b, c, d, x, y):
    """x* A y for A = [[a, b], [c, d]] and 2-vectors x = (x0, x1), y = (y0, y1)."""
    x0, x1 = x[0].conjugate(), x[1].conjugate()
    return (x0 * a + x1 * c) * y[0] + (x0 * b + x1 * d) * y[1]


# eigenvalues2, inverse2 and their helpers: unused since 0.4.0, kept as the benchmark traces them by name.
def eigenvalues2(A) -> tuple[complex, complex]:
    """Both roots of det(A - xI) = 0.

    Uses the quadratic formula with the stable branch: the larger-magnitude
    root is computed first and the other recovered as det/root when possible.
    Returned sorted by (|.| desc, Re desc, Im desc).
    """
    A = as_mat2(A)
    a, b, c, d = complex(A[0, 0]), complex(A[0, 1]), complex(A[1, 0]), complex(A[1, 1])
    return _eig2_scalars(a, b, c, d)


def _eig2_scalars(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    import numpy as np

    tr = a + d
    det = a * d - b * c
    # (a+d)^2 - 4(ad-bc) written as (a-d)^2 + 4bc to avoid one cancellation
    disc = (a - d) * (a - d) + 4.0 * b * c
    sq = np.sqrt(complex(disc))
    if (tr.real * sq.real + tr.imag * sq.imag) < 0.0:
        sq = -sq
    r1 = (tr + sq) / 2.0
    r2 = det / r1 if r1 != 0 else (tr - sq) / 2.0
    return _sort_eig_pair(complex(r1), complex(r2))


def _sort_eig_pair(p: complex, q: complex) -> tuple[complex, complex]:
    kp = (-abs(p), -p.real, -p.imag)
    kq = (-abs(q), -q.real, -q.imag)
    return (p, q) if kp <= kq else (q, p)


def inverse2(A) -> np.ndarray:
    """Closed-form 2x2 inverse; refuses when |det| <= TOL_SINGULAR * ||A||_F^2."""
    import numpy as np

    A = as_mat2(A)
    det = complex(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    nrm2 = float(np.linalg.norm(A)) ** 2
    if abs(det) <= TOL_SINGULAR * nrm2:
        raise SingularMatrix(f"|det| = {abs(det):.3e} <= {TOL_SINGULAR:.0e} * ||A||^2")
    inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=np.complex128)
    return inv / det


def real_rank(M) -> int:
    """Rank over R by row reduction with partial pivoting.

    A pivot counts iff its magnitude exceeds 1e-10 times the largest entry
    magnitude of the initial matrix, so the result is scale-free.
    """
    import numpy as np

    W = np.array(M, dtype=np.float64, copy=True)
    if W.ndim != 2:
        raise InvalidInput("expected a 2-d real matrix")
    if not np.all(np.isfinite(W)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    rows, cols = W.shape
    threshold = 1e-10 * (np.max(np.abs(W)) if W.size else 0.0)
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(W[row:, col])))
        if abs(W[pivot, col]) <= threshold:
            continue
        if pivot != row:
            W[[row, pivot]] = W[[pivot, row]]
        W[row + 1:] -= np.outer(W[row + 1:, col] / W[row, col], W[row])
        rank += 1
        row += 1
    return rank


def hermitian_eigenvalues(h00: float, h11: float, h01: complex) -> tuple[float, float]:
    """Eigenvalues, ascending, of the Hermitian matrix [[h00, h01], [conj(h01), h11]]."""
    mid = (h00 + h11) / 2.0
    rad = math.hypot((h00 - h11) / 2.0, abs(h01))
    return mid - rad, mid + rad
