"""Complex 2x2 and small dense real linear algebra primitives.

The package's one set of 2x2 kernels lives here: a 2x2 matrix is the tuple of
its entries (m00, m01, m10, m11), Python complex or arrays over a stack, and
``_norm4`` and ``_form`` take either.  Besides them: a numerically stable
quadratic-formula eigensolver, the exact rank of a real matrix, and the
eigenvalues of a Hermitian 2x2 matrix.  ``as_mat2``, ``eigenvalues2``,
``inverse2`` and ``real_rank`` reject NaN/Inf, ``as_mat2`` by ``cmath.isfinite``
on its four entries as Python complex; the kernels do not check.
``_mat2_entries``, classify's reader, takes two rows of Python floats or
complex numbers without numpy, with the same check, and hands any other input
to ``as_mat2``.  ``real_rank`` is exact, on integers; it reads rows of Python
ints or floats the same way and converts any other input with numpy.

numpy is imported inside the functions that build or read arrays, so the
scalar kernels and the rank load without it.
"""
from __future__ import annotations

import cmath
import math
import sys

from .errors import InvalidInput, SingularMatrix

EPS = sys.float_info.epsilon
_ROW, _SCALAR = (list, tuple), (float, complex)  # the exact types _mat2_entries reads itself

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
    if type(A) in _ROW and len(A) == 2 and type(A[0]) in _ROW and type(A[1]) in _ROW and len(A[0]) == len(A[1]) == 2:
        (a, b), (c, d) = A
        if type(a) in _SCALAR and type(b) in _SCALAR and type(c) in _SCALAR and type(d) in _SCALAR:
            if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
                raise InvalidInput("matrix contains NaN or Inf entries")
            return [complex(a), complex(b), complex(c), complex(d)]
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
    """Exact rank of a real matrix of finite doubles, with no tolerance.

    The doubles times one power of two are integers (``_dyadic``), reduced by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968): the pivot is
    the first nonzero entry of its column, and each update divides exactly by
    the previous pivot.  The cost grows with the spread of the exponents.
    Rows of Python ints or floats are read as they are, others through numpy.
    """
    if not (type(M) in (list, tuple) and M and all(type(row) in (list, tuple) and len(row) == len(M[0]) for row in M)
            and all(type(w) in (int, float) for row in M for w in row)):
        import numpy as np

        A = np.array(M, dtype=np.float64)
        if A.ndim != 2:
            raise InvalidInput("expected a 2-d real matrix")
        M = A.tolist()
    try:
        W = _dyadic(M)
    except (ValueError, OverflowError):  # as_integer_ratio of NaN, Inf
        raise InvalidInput("matrix contains NaN or Inf entries") from None
    rank, prev = 0, 1
    while W and W[0]:  # W holds the rows not yet pivoted, from the current column on
        k = next((i for i, row in enumerate(W) if row[0]), None)
        if k is None:
            W = [row[1:] for row in W]
            continue
        top = W.pop(k)
        p, tail = top[0], top[1:]
        W = [[(p * w - row[0] * t) // prev for w, t in zip(row[1:], tail)] for row in W]
        prev, rank = p, rank + 1
    return rank


def _dyadic(rows) -> list[list[int]]:
    """The finite ints or floats of ``rows`` times one common power of two, as exact ints."""
    ratios = [[w.as_integer_ratio() for w in row] for row in rows]  # n / d, d a power of two
    e = max((d for row in ratios for _, d in row), default=1).bit_length()
    return [[n << (e - d.bit_length()) for n, d in row] for row in ratios]


def hermitian_eigenvalues(h00: float, h11: float, h01: complex) -> tuple[float, float]:
    """Eigenvalues, ascending, of the Hermitian matrix [[h00, h01], [conj(h01), h11]]."""
    mid = (h00 + h11) / 2.0
    rad = math.hypot((h00 - h11) / 2.0, abs(h01))
    return mid - rad, mid + rad
