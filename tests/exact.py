"""Exact family oracle for 2x2 complex matrices under *congruence.

Decides, in rational arithmetic and with no eigenvalue solve, the family of
the matrix whose entries are exactly the given doubles (Horn & Sergeichuk,
"Canonical forms for complex matrix congruence and *congruence", LAA 416,
2006, through the cosquare K = A^{-*} A).  With

    s = tr(adj(A)* A) = 2 Re(conj(a) d) - |b|^2 - |c|^2     (real)
    R = adj(A)* A - (s/2) I,    det R = (4 |det A|^2 - s^2) / 4

the family is

    det A = 0           zero if A = 0; udz if vec A and vec A* are
                        proportional; hyp(0) otherwise
    s^2 > 4 |det A|^2   hyp(sigma), sigma != 0
    s^2 < 4 |det A|^2   pair with distinct entries
    s^2 = 4 |det A|^2   pair(l, +-l) if R = 0, delta otherwise

The judge is one-sided: a rounded member of a degenerate class lands in an
open exact class, a distinct pair or hyp(sigma != 0).

Run as a script, it reports the confidently wrong answers of ``classify`` on
rounded members S* R S of the seven subfamilies, S = U diag(1, 1/c) V with
Haar unitaries U, V:

    PYTHONPATH=src python tests/exact.py
"""

import math
import sys
from fractions import Fraction

import numpy as np

from starcong import (
    AmbiguousClassification,
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    classify,
    realize,
)

#: The families rounding lands in; the others are zero, udz, hyp(0), pair(l,+-l) and delta.
OPEN = ("hyp", "pair")


def _mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def _conj(p):
    return p[0], -p[1]


def _abs2(p):
    return p[0] * p[0] + p[1] * p[1]


def invariants(A):
    """(entries, s, |det A|^2, R) of A; complex values as (re, im) Fractions."""
    entries = tuple((Fraction(z.real), Fraction(z.imag)) for z in np.asarray(A, dtype=complex).ravel().tolist())
    a, b, c, d = entries
    det = _sub(_mul(a, d), _mul(b, c))
    s = 2 * _mul(_conj(a), d)[0] - _abs2(b) - _abs2(c)
    # adj(A)* = [[conj d, -conj c], [-conj b, conj a]]
    half = (s / 2, 0)
    R = (
        _sub(_sub(_mul(_conj(d), a), _mul(_conj(c), c)), half),
        _sub(_mul(_conj(d), b), _mul(_conj(c), d)),
        _sub(_mul(_conj(a), c), _mul(_conj(b), a)),
        _sub(_sub(_mul(_conj(a), d), _mul(_conj(b), b)), half),
    )
    return entries, s, _abs2(det), R


def family(A) -> str:
    """The family of the class of A's exact entries."""
    entries, s, absdet2, R = invariants(A)
    if absdet2 == 0:
        if not any(re or im for re, im in entries):
            return "zero"
        a, b, c, d = entries
        star = (_conj(a), _conj(c), _conj(b), _conj(d))  # vec A*
        proportional = all(_mul(entries[i], star[j]) == _mul(entries[j], star[i])
                           for i in range(4) for j in range(i + 1, 4))
        return "udz" if proportional else "hyp(0)"
    gap = s * s - 4 * absdet2
    if gap > 0:
        return "hyp"
    if gap < 0:
        return "pair"
    return "pair(l,+-l)" if not any(re or im for re, im in R) else "delta"


def family_of(form) -> str:
    """The family of a canonical form, named as ``family`` names it."""
    if isinstance(form, Hyperbolic):
        return "hyp(0)" if form.sigma == 0 else "hyp"
    if isinstance(form, UnitPair):
        return "pair(l,+-l)" if form.nu in (form.mu, -form.mu) else "pair"
    return {Zero: "zero", UnitDirectZero: "udz", DeltaTau: "delta"}[type(form)]


def separation(A) -> float:
    """sqrt|det R| / |det A|, half the distance between K's eigenvalues (det A != 0)."""
    _, s, absdet2, _ = invariants(A)
    return math.sqrt(float(abs(s * s - 4 * absdet2) / (4 * absdet2)))


#: An answer is confidently wrong when the exact family is open, classify
#: answers another family without refusing, and the separation exceeds
#: MULTIPLE * tol * cond(A): the input is far from every boundary it could
#: have been rounded across.
MULTIPLE = 10.0


def confidently_wrong(A, tol=1e-9):
    """None if classify refuses A; otherwise whether its answer is confidently wrong."""
    try:
        got = family_of(classify(A, tol).form)
    except AmbiguousClassification:
        return None
    want = family(A)
    return bool(want in OPEN and got != want
                and separation(A) > MULTIPLE * tol * np.linalg.cond(A))


def _haar(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def subfamily_members(rng, c, n):
    """n rounded members S* R S, S = U diag(1, 1/c) V, of the seven subfamilies in turn."""
    for i in range(n):
        m, v = (complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(2))
        form = (Zero(), UnitDirectZero(m), UnitPair(m, v), UnitPair(m, m), UnitPair(m, -m),
                Hyperbolic(0.9 * rng.uniform() * m), DeltaTau(m))[i % 7]
        S = _haar(rng) @ np.diag([1.0, 1.0 / c]) @ _haar(rng)
        yield S.conj().T @ realize(form) @ S


def main(n=700, seed=1):
    rng = np.random.default_rng(seed)
    print(f"c       inputs  refused  confidently_wrong  (tol 1e-9, multiple {MULTIPLE:g}, seed {seed})")
    for c in (1e1, 1e2, 1e3, 1e4):
        verdicts = [confidently_wrong(A) for A in subfamily_members(rng, c, n)]
        print(f"{c:<7g} {n:<7d} {verdicts.count(None):<8d} {verdicts.count(True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
