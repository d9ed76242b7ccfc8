"""Reference answers computed without the package under test.

Expected forms are plain tuples:

    ("zero",)  ("udz", l)  ("pair", m, n)  ("hyp", s)  ("delta", t)

The representatives, the codimension table and the form comparison follow
the five-family table of the paper (codim 8 / 5 / 2, or 4 when n = +-m /
2 / 2), written out with numpy and the standard library only, so a defect in
the package cannot hide itself by also breaking its own reference.
"""

from __future__ import annotations

import math

import numpy as np

DELTA2 = np.array([[0.0, 1.0], [1.0, 1.0j]], dtype=np.complex128)


def unit(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


def representative(ref: tuple) -> np.ndarray:
    kind = ref[0]
    if kind == "zero":
        return np.zeros((2, 2), dtype=np.complex128)
    if kind == "udz":
        return np.array([[ref[1], 0.0], [0.0, 0.0]], dtype=np.complex128)
    if kind == "pair":
        return np.array([[ref[1], 0.0], [0.0, ref[2]]], dtype=np.complex128)
    if kind == "hyp":
        return np.array([[0.0, 1.0], [ref[1], 0.0]], dtype=np.complex128)
    if kind == "delta":
        return ref[1] * DELTA2
    raise ValueError(f"unknown family {kind!r}")


def codim(ref: tuple) -> int:
    """Real codimension of the class, from the paper's table."""
    kind = ref[0]
    if kind == "pair":
        m, n = ref[1], ref[2]
        return 4 if (n == m or n == -m) else 2
    return {"zero": 8, "udz": 5, "hyp": 2, "delta": 2}[kind]


def as_ref(form) -> tuple:
    """The tuple form of a package canonical form, read from its fields."""
    kind = form.family
    if kind == "zero":
        return ("zero",)
    if kind == "udz":
        return ("udz", form.lam)
    if kind == "pair":
        return ("pair", form.mu, form.nu)
    if kind == "hyp":
        return ("hyp", form.sigma)
    return ("delta", form.tau)


def matches(expected: tuple, got: tuple, tol: float) -> bool:
    """Same family, parameters within ``tol`` (a pair compared as a set)."""
    if expected[0] != got[0]:
        return False
    if expected[0] == "pair":
        (m, n), (a, b) = expected[1:], got[1:]
        return min(max(abs(m - a), abs(n - b)), max(abs(m - b), abs(n - a))) <= tol
    return all(abs(x - y) <= tol for x, y in zip(expected[1:], got[1:]))


def haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-distributed 2x2 unitaries (QR of a Ginibre matrix, phase-fixed)."""
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def format_complex(z: complex) -> str:
    """17 significant digits in the CLI's ``a+bi`` grammar."""
    return f"{z.real + 0.0:.17g}{z.imag + 0.0:+.17g}i"


def format_matrix(A: np.ndarray) -> str:
    return ";".join(",".join(format_complex(complex(A[i, j])) for j in range(2)) for i in range(2))


def ball_perturbations(rng: np.random.Generator, n: int, delta: float) -> np.ndarray:
    """``n`` points uniform in the Frobenius delta-ball of 2x2 complex matrices."""
    g = rng.standard_normal((n, 8))
    g /= np.linalg.norm(g, axis=1)[:, None]
    g *= delta * rng.uniform(size=(n, 1)) ** (1.0 / 8.0)
    return (g[:, 0::2] + 1j * g[:, 1::2]).reshape(n, 2, 2)
