"""Complex 2x2 and small dense real linear algebra primitives.

The package's one set of 2x2 kernels lives here: a 2x2 matrix is the tuple of
its entries (m00, m01, m10, m11), Python complex or arrays over a stack, and
``_norm4`` and ``_form`` take either.  Besides them: a numerically stable
quadratic-formula eigensolver, row-reduction rank over the reals, and the
eigenvalues of a Hermitian 2x2 matrix.  ``as_mat2``, ``eigenvalues2``,
``inverse2`` and ``real_rank`` reject NaN/Inf, ``as_mat2`` by ``cmath.isfinite``
on its four entries as Python complex; the kernels do not check.
``_mat2_entries``, classify's reader, takes two rows of Python floats or
complex numbers without numpy, with the same check, and hands any other input
to ``as_mat2``.  ``real_rank`` eliminates in pure Python; it reads rows of
Python floats the same way and converts any other input with numpy.

numpy is imported inside the functions that build or read arrays, so the
scalar kernels and the rank load without it.
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


def _mat2_entries(A) -> list[complex]:
    """The entries [m00, m01, m10, m11] of the 2x2 matrix ``A`` as Python complex.

    Two rows of two Python floats or complex numbers are read as they are,
    which equals numpy's conversion bit for bit; any other input goes through
    as_mat2 and so fails with its messages."""
    if type(A) in (list, tuple) and len(A) == 2 and all(type(row) in (list, tuple) and len(row) == 2 for row in A):
        entries = [*A[0], *A[1]]
        if all(type(z) in (float, complex) for z in entries):
            entries = [complex(z) for z in entries]
            if not all(map(cmath.isfinite, entries)):
                raise InvalidInput("matrix contains NaN or Inf entries")
            return entries
    return as_mat2(A).ravel().tolist()


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
    magnitude of the initial matrix, so the result is scale-free.  The pivot
    is the first entry of largest magnitude in its column, and the update
    w - (w_col / p) * t of an entry rounds the quotient, the product and the
    difference once each.  Rows of Python floats are read as they are; any
    other input goes through numpy's conversion and its checks.
    """
    if _float_rows(M):
        W = [list(row) for row in M]
        if not all(math.isfinite(w) for row in W for w in row):
            raise InvalidInput("matrix contains NaN or Inf entries")
    else:
        import numpy as np

        A = np.array(M, dtype=np.float64)
        if A.ndim != 2:
            raise InvalidInput("expected a 2-d real matrix")
        if not np.all(np.isfinite(A)):
            raise InvalidInput("matrix contains NaN or Inf entries")
        W = A.tolist()
    rows, cols = len(W), len(W[0]) if W else 0
    threshold = 1e-10 * max((abs(w) for row in W for w in row), default=0.0)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = max(range(rank, rows), key=lambda i: abs(W[i][col]))
        top = W[pivot]
        p = top[col]
        if abs(p) <= threshold:
            continue
        W[pivot], W[rank] = W[rank], top
        for i in range(rank + 1, rows):
            f = W[i][col] / p
            W[i] = [w - f * t for w, t in zip(W[i], top)]
        rank += 1
    return rank


def _float_rows(M) -> bool:
    """True iff ``M`` is a non-empty list or tuple of equally long rows of Python floats."""
    return (type(M) in (list, tuple) and len(M) > 0
            and all(type(row) in (list, tuple) and len(row) == len(M[0]) for row in M)
            and all(type(w) is float for row in M for w in row))


def hermitian_eigenvalues(h00: float, h11: float, h01: complex) -> tuple[float, float]:
    """Eigenvalues, ascending, of the Hermitian matrix [[h00, h01], [conj(h01), h11]]."""
    mid = (h00 + h11) / 2.0
    rad = math.hypot((h00 - h11) / 2.0, abs(h01))
    return mid - rad, mid + rad
