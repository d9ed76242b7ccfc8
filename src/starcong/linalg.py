"""Complex 2x2 and small dense real linear algebra primitives.

Everything here is exact-intent: closed-form 2x2 arithmetic, a numerically
stable quadratic-formula eigensolver, row-reduction rank over the reals, and
the eigenvalues of the Hermitian part of a 2x2 matrix.  All entry points
reject NaN/Inf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput, SingularMatrix

EPS = float(np.finfo(np.float64).eps)

#: Relative determinant floor (vs ||A||_F^2) below which inverse2 refuses.
TOL_SINGULAR = 1e-12


def as_mat2(A) -> np.ndarray:
    """Validate and return a 2x2 complex128 copy of ``A``."""
    M = np.asarray(A, dtype=np.complex128)
    if M.shape != (2, 2):
        raise InvalidInput(f"expected a 2x2 matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(np.float64))):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return M.copy()


def _check_scalar(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInput(f"{name} is not finite")
    return z


def frob(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=np.complex128)))


def det2(A) -> complex:
    A = np.asarray(A, dtype=np.complex128)
    return complex(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])


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
    A = as_mat2(A)
    det = det2(A)
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


def hermitian_part_eigenvalues(H) -> tuple[float, float]:
    """Eigenvalues, ascending, of the Hermitian part (H + H*) / 2 of a 2x2 matrix."""
    Hs = (H + H.conj().T) / 2.0
    h11 = float(Hs[0, 0].real)
    h22 = float(Hs[1, 1].real)
    mid = (h11 + h22) / 2.0
    rad = float(np.hypot((h11 - h22) / 2.0, abs(Hs[0, 1])))
    return mid - rad, mid + rad
