"""Classification of 2x2 complex matrices up to *congruence.

The tree reads the cosquare K = A^{-*} A through its invariants (Horn &
Sergeichuk, LAA 416, 2006).  With ||A||_F = 1, s = 2 Re(conj(a) d) - |b|^2 -
|c|^2 and h = s / 2:  P = adj(A)* A = conj(det A) K,  R = P - h I  and
rho2 = -det R = h^2 - |det A|^2, which is real.  K's eigenvalues are
(h +- sqrt(rho2)) / conj(det A); their distance sep = 2 sqrt|rho2| / |det A|.

    1. exactly zero                            -> zero
    2. rank 1: A* proportional to A            -> udz(phase of trace)
              otherwise                        -> hyp(0)
    3. sep above tol, relative to the larger eigenvalue modulus:
       3a. rho2 > 0 (off the unit circle)      -> hyp(det A / (h + sign(h) sqrt(rho2)))
       3b. rho2 < 0 (unimodular)               -> pair(mu, nu), +-mu, +-nu the square roots
                                                  of the eigenvalues, each sign that of
                                                  x* A x at the null vector x of R -+ sqrt(rho2) I
    4. sep at most tol, l^2 = h / conj(det A):
       4a. ||R|| <= tol |det A| (K scalar)     -> pair(l, +-l) by the inertia of conj(l) A
       4b. otherwise (K a Jordan block)        -> delta(+-l), the sign of Im(conj(l) tr A)

Every threshold is tol plus the rounding bound of its statistic, derived from
the unit roundoff below.  Each comparison records its normalized slack, and a
sign test (2, 3b, 4, 4a, 4b) that sits within its rounding bound of zero records
slack 0.  The report's ``margin`` is the smallest slack; an input whose margin
falls below half the tolerance raises AmbiguousClassification, naming the
branches of that comparison, instead of being assigned a class.

Inside this module a 2x2 matrix is the tuple of its entries (m00, m01, m10,
m11): Python complex scalars in classify, arrays over the stack in
classify_many.  Both run the one decision tree, ``_tree``; the norm and the
form x* A y come from ``linalg``.  classify and classify_many reject NaN/Inf.

classify reads two rows of Python floats or complex numbers, as ``starcong
classify`` passes them, without numpy.  numpy and ``rng`` are imported only
inside the functions that use them, so a ``classify`` process loads neither.
"""

from __future__ import annotations

import cmath
import math

from .errors import AmbiguousClassification, InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, _entries, _Record
from .linalg import EPS, _form, _mat2_entries, _norm4, hermitian_eigenvalues

#: Ambiguity cutoff as a fraction of the requested tolerance.  Exact
#: canonical representatives sit at slack ~ tol on the rank test, so the
#: cutoff must be strictly below 1.
AMBIG_FRACTION = 0.5

FAMILY_CODES = ("zero", "udz", "pair", "hyp", "delta", "boundary")

_BOUNDARIES = (("rank<=1", "nonsingular"), ("udz", "hyp(0)"), ("coincident spectrum", "distinct spectrum"),
               ("pair(l,+-l)", "delta"), ("definite", "indefinite"), ("pair", "delta"), ("delta(l)", "delta(-l)"))
# the (branch, contender) of each slack, and its index: the tree's four tests, then the leaves' three
_RANK, _RESIDUAL, _COINCIDENCE, _DEPARTURE, _INERTIA, _PAIR_SIGN, _DELTA_SIGN = range(7)

# Rounding noise (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., 3.1 and 3.6), u = 2^-53: a complex sum rounds by <= u, a complex
# product by <= sqrt(2) gamma_2 = 2.83u + O(u^2).  A scaled entry carries u
# from its own rounding to a double and u from the quotient by the norm (the
# norm's error is one factor shared by every entry, which no sign or ratio
# below sees).  An entry of P, and det A, is a difference of two products
# x y whose |x| |y| sum to at most ||A||_F^2 = 1, so it lies within
# (1 + 2u)^2 (1 + sqrt(2) gamma_2)(1 + u) - 1 = 7.83u + O(u^2) of its value
# for the exact entries; h = Re(p00 + p11) / 2 within 4.4u, |det A| within
# 4.9u (abs adds u).  _E bounds all of them.
_U = EPS / 2.0
_E = 8.0 * _U


class ClassificationReport(_Record):
    __match_args__ = ("form", "margin", "scale")

    def __init__(self, form: CanonicalForm, margin: float, scale: float):
        d = self.__dict__
        d["form"], d["margin"], d["scale"] = form, margin, scale
        d["_key"] = (form, margin, scale)


def classify(A, tol: float = 1e-9) -> ClassificationReport:
    """Canonical form of ``A`` with a decision margin.

    ``tol`` controls every relative threshold in the tree (rank test,
    eigenvalue-coincidence test, scalar-cosquare test) and must lie in (0, 0.5):
    the normalized |det A| is at most 1/2, so a larger ``tol`` would send
    every matrix to the rank <= 1 branch.  Raises AmbiguousClassification
    when the input is closer than ``tol / 2`` to a decision boundary, or a
    sign test sits within its rounding bound of zero, naming that comparison.
    """
    entries = _mat2_entries(A)
    if not 0.0 < tol < 0.5:
        raise InvalidInput("tol must lie in (0, 0.5)")
    scale = _norm4(*entries)
    if scale == 0.0:
        return ClassificationReport(Zero(), math.inf, 0.0)
    entries = _prescale(entries)
    norm = _norm4(*entries)
    a, b, c, d = (m / norm for m in entries)
    code, slacks, nonsingular, inv, t = _tree(a, b, c, d, tol)
    form = (_classify_nonsingular(a, b, c, d, code, slacks, inv, t) if nonsingular
            else _classify_rank1(a, b, c, d, code, slacks))

    margin, worst = min(slacks)  # on a tie the earlier comparison, which has the lower index
    if margin < AMBIG_FRACTION * tol:
        branch, contender = _BOUNDARIES[worst]
        raise AmbiguousClassification(f"margin {margin:.3e} below {AMBIG_FRACTION * tol:.3e}: contending branches "
                                      f"{branch!r} vs {contender!r}", _BOUNDARIES[worst], margin)
    return ClassificationReport(form, margin, scale)


def _classify_rank1(a, b, c, d, code, slacks):
    if code == 3:
        return Hyperbolic(0.0)
    tr = a + d
    if abs(tr) < 0.5:  # a proportional rank-1 matrix has |tr| == ||A||_F exactly
        slacks.append((0.0, _RESIDUAL))
        return None
    return UnitDirectZero(tr / abs(tr))


# --- kernels ------------------------------------------------------------------
# Down to _tree, the decision tree of classify and classify_many, they take
# complex scalars or ndarrays alike.  The leaves after it serve classify alone;
# a sign test within its rounding bound appends slack 0 to the tree's list.


def _prescale(entries):
    """The entries times 2^-e, e the binary exponent of their largest real or
    imaginary part: a list of four Python complex, or a contiguous (n, 2, 2)
    stack scaled matrix by matrix and returned as its four entry columns.
    Exact outside the subnormal range; afterwards every modulus is below
    sqrt(2) and the largest at least 1/2, so no square overflows and none that
    matters underflows."""
    if isinstance(entries, list):
        (a, b, c, d), ldexp = entries, math.ldexp
        k = -math.frexp(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
                            abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))[1]  # k = -e
        return [complex(ldexp(a.real, k), ldexp(a.imag, k)), complex(ldexp(b.real, k), ldexp(b.imag, k)),
                complex(ldexp(c.real, k), ldexp(c.imag, k)), complex(ldexp(d.real, k), ldexp(d.imag, k))]
    import numpy as np

    parts = entries.view(np.float64).reshape(len(entries), 8)
    # the row maximum as column-wise maxima: a reduction over the 8 parts of a
    # row costs many times the same comparisons made across the stack
    absparts = np.abs(parts)
    largest = absparts[:, 0].copy()
    for j in range(1, 8):
        np.maximum(largest, absparts[:, j], out=largest)
    e = np.frexp(largest)[1]
    return tuple(np.ldexp(parts, -e[:, None]).view(np.complex128).T)


def _rank1_residual(a, b, c, d):
    """||A* - w A|| for the least-squares factor w of a rank-1 A with A* ~ w A.
    w lies within 9u, an entry such as conj(a) - w a within 14u |a|: the norm within 2E."""
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    w = ac * ac + 2.0 * bc * cc + dc * dc
    return _norm4(ac - w * a, cc - w * b, bc - w * c, dc - w * d)


def _invariants(a, b, c, d):
    """(det A, |det A|, h, R, ||R||, rho2, noise of rho2) of the normalized
    entries; rho2 = -det R = (h - |det A|)(h + |det A|), as det P = |det A|^2."""
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    p00, p11 = dc * a - cc * c, ac * d - bc * b
    h = (p00 + p11).real / 2.0
    r = (p00 - h, dc * b - cc * d, ac * c - bc * a, p11 - h)
    nr = _norm4(*r)
    det = a * d - b * c
    absdet = abs(det)
    # Two roundings of rho2.  R's diagonal lies within 2E, its other entries
    # within E, so -det R lies within 2E sum|r_ij| + 5E^2 + 2u ||R||^2
    # <= n1 = 5E (||R|| + E) (sum|r_ij| <= 2 ||R||, ||R|| <= ||P|| <= 1).  The
    # factors h -+ |det A| lie within 2E plus u of themselves, so their product
    # lies within 4E (|h| + |det A|) + 4E^2 + 3u |rho2| <= n2 = 5E (|h| + |det A| + E).
    # n1 is the smaller near a scalar K (R small), n2 near a lopsided Jordan
    # block (R far larger than its eigenvalues).  The mean of the two weighted
    # by the other's bound lies within 2 n1 n2 / (n1 + n2) <= 2 min(n1, n2);
    # its own rounding, 3u |rho2|, fits in what n1 and n2 leave over
    # (0.75E ||R|| >= 3u ||R||^2 / 2 and 0.6E (|h| + |det A|) >= 3u |rho2|).
    rho2_r, n1 = (r[1] * r[2] - r[0] * r[3]).real, 5.0 * _E * (nr + _E)
    rho2_h, n2 = (h - absdet) * (h + absdet), 5.0 * _E * (abs(h) + absdet + _E)
    rho2 = (rho2_r * n2 + rho2_h * n1) / (n1 + n2)
    return det, absdet, h, r, nr, rho2, 2.0 * n1 * n2 / (n1 + n2)


def _coincidence(h, rho2, n_rho2, tol):
    """(t, rel, threshold, slack) of K's spectrum (h +- t) / conj(det A), t = sqrt|rho2|:
    rel = 2t / (|h| + t) is its distance relative to the larger modulus, exact
    for rho2 >= 0 and within a factor sqrt(2) for rho2 < 0, where that is 1."""
    t = abs(rho2) ** 0.5
    big = abs(h) + t
    rel = 2.0 * t / big
    # |t^ - t| <= sqrt(n_rho2) and |h| errs by E, so rel errs by at most
    # (2 sqrt(n_rho2) + E rel) / (|h| + t), plus 4u rel of its own rounding
    threshold = tol + (2.0 * n_rho2 ** 0.5 + _E * rel) / big + 4.0 * _U * rel
    return t, rel, threshold, abs(rel - threshold)


def _departure(absdet, h, nr, tol):
    """(threshold, slack) of the scalar-cosquare test ||R|| <= tol |det A|, the slack
    relative to ||P||, within a factor sqrt(2) of ||R|| + |h|."""
    # ||dR||_F <= sqrt(4 + 1 + 1 + 4) E; the subtractions and the norm add 3u ||R||
    threshold = tol * absdet + 3.2 * _E + 3.0 * _U * nr
    return threshold, abs(nr - threshold) / (nr + abs(h))


def _where(cond, x, y):
    """x where cond holds, else y: the conditional expression on a Python bool, np.where on a mask."""
    if cond.__class__ is bool:
        return x if cond else y
    import numpy as np
    return np.where(cond, x, y)


def _any(cond):
    return cond if cond.__class__ is bool else cond.any()


def _tree(a, b, c, d, tol):
    """The decision tree on normalized entries, each branch computed if a lane takes it, then
    selected: the family code (never boundary), the (slack, boundary index) of each comparison in
    order (inf on array lanes that skip it), the nonsingular lanes, the invariants, t (or None)."""
    inv = det, absdet, h, r, nr, rho2, n_rho2 = _invariants(a, b, c, d)
    slacks = [(abs(absdet - tol - _E), _RANK)]
    singular = absdet <= tol + _E
    nonsingular = _where(singular, False, True)
    code, t = 0, None
    if _any(singular):
        resid = _rank1_residual(a, b, c, d)
        slacks.append((_where(singular, abs(resid - tol - 2.0 * _E), math.inf), _RESIDUAL))
        code = _where(resid <= tol + 2.0 * _E, 1, 3)  # the nonsingular lanes' select overwrites them
    if _any(nonsingular):
        t, rel, threshold, slack = _coincidence(h, rho2, n_rho2, tol)
        slacks.append((_where(nonsingular, slack, math.inf), _COINCIDENCE))
        # rel > threshold puts |rho2| above its noise, so its sign is exact
        code = _where(nonsingular, _where(rho2 > 0.0, 3, 2), code)
        coincident = _where(rel > threshold, False, nonsingular)
        if _any(coincident):
            threshold, slack = _departure(absdet, h, nr, tol)
            slacks.append((_where(coincident, slack, math.inf), _DEPARTURE))
            code = _where(coincident, _where(nr <= threshold, 2, 4), code)
    return code, slacks, nonsingular, inv, t


def _classify_nonsingular(a, b, c, d, code, slacks, inv, t):
    det, absdet, h, r, _, _, n_rho2 = inv
    if code == 3:
        return Hyperbolic(det / (h + math.copysign(t, h)))
    if slacks[-1][1] == _COINCIDENCE:  # a distinct spectrum on the unit circle
        root = 1j * t
        n_t = n_rho2 / t  # |t^ - t| = |rho2^ - rho2| / (t^ + t)
        # an eigenvalue (h +- root) / conj(det A) has modulus 1 and errs by
        # (2E + n_t) / |det A|; its square root and the normalization add 3u
        n_lam = (2.0 * _E + n_t) / absdet + 3.0 * _U
        n_m = 3.2 * _E + 1.5 * n_t  # ||R -+ root I - (exact)||_F
        mu = _pair_entry(a, b, c, d, r, root, (h + root) / det.conjugate(), n_m, n_lam, slacks)
        nu = _pair_entry(a, b, c, d, r, -root, det / (h + root), n_m, n_lam, slacks)
        return UnitPair(mu, nu)
    if abs(h) <= _E:  # l^2 = h / conj(det A) has no phase above its rounding
        slacks.append((0.0, _PAIR_SIGN))
        return None
    xi = h / det.conjugate()
    lam = cmath.sqrt(xi / abs(xi))
    # xi = h / conj(det A) is unimodular up to rounding and errs by E / |h| +
    # E / |det A| + u relative; the root halves that, normalizing adds 2u
    n_lam = _E / abs(h) + _E / absdet + 3.0 * _U
    if code == 2:
        return _branch_scalar(a, b, c, d, lam, n_lam, slacks)
    # K is a Jordan block: A = S* tau [[0, 1], [1, i]] S with tau = +-l, so
    # (conj(tau) A - tau A*) / 2i = S* diag(0, 1) S is positive semidefinite
    # and its trace Im(conj(l) tr A) has the sign of tau / l.  That trace errs
    # by |tr A| n_lam from l, and by 7.1u <= E from the entries (2u |a| + 2u |d|),
    # their sum (u |tr A|) and the product (2u |tr A|), as |tr A| <= sqrt(2).
    tr = a + d
    stat = (lam.conjugate() * tr).imag
    if abs(stat) <= abs(tr) * n_lam + _E:
        slacks.append((0.0, _DELTA_SIGN))
    return DeltaTau(lam if stat > 0.0 else -lam)


def _pair_entry(a, b, c, d, r, root, eig, n_m, n_lam, slacks):
    """The pair entry whose square is the cosquare eigenvalue ``eig`` = (h + root) / conj(det A)."""
    m00, m01, m10, m11 = r[0] - root, r[1], r[2], r[3] - root
    n1, n2 = _norm4(m01, m00, 0.0, 0.0), _norm4(m11, m10, 0.0, 0.0)
    x0, x1, row = (m01 / n1, -m00 / n1, n1) if n1 >= n2 else (m11 / n2, -m10 / n2, n2)  # R x = root x
    ax0, ax1 = a * x0 + b * x1, c * x0 + d * x1
    v = x0.conjugate() * ax0 + x1.conjugate() * ax1  # x* A x
    w = cmath.sqrt(eig / abs(eig))
    # v = +-|v| w at the exact null vector x', where A x' = eig A* x'.  The row
    # errs by n_m, so x = x' + e, ||e|| <= dx = n_m / (row - n_m) (or 2), and
    # v - x'* A x' = (A* x')* e + e* A x' + e* A e lies within 2 |A x| dx + 3 dx^2
    # (||A||_2 <= 1); the form rounds by 12u (10u as in perturb._residual, 2u
    # the entries'), and w errs by n_lam.
    dx = min(n_m / (row - n_m), 2.0) if row > n_m else 2.0
    stat = (w.conjugate() * v).real
    if abs(stat) <= (2.0 * _norm4(ax0, ax1, 0.0, 0.0) + 3.0 * dx) * dx + 12.0 * _U + abs(v) * n_lam:
        slacks.append((0.0, _PAIR_SIGN))
    return w if stat > 0.0 else -w


def _branch_scalar(a, b, c, d, lam, n_lam, slacks):
    h00, h01, h10, h11 = (lam.conjugate() * m for m in (a, b, c, d))  # H = conj(l) A
    off = (h01 - h10.conjugate()) / 2.0
    anti = _norm4(h00.imag, off, off, h11.imag)  # ||(H - H*) / 2||_F
    eig_lo, eig_hi = hermitian_eigenvalues(h00.real, h11.real, (h01 + h10.conjugate()) / 2.0)  # of (H + H*) / 2
    # The inertia is that of the Hermitian part.  Rounding H and the formula
    # for its eigenvalues moves them by <= 12u (||A||_F = 1).  A phase error
    # phi <= n_lam of l turns H into e^{-i phi} H, whose Hermitian part moves
    # by <= phi ||(H - H*) / 2|| + phi^2 ||H||.
    noise = 12.0 * _U + n_lam * (anti + n_lam)
    slacks.append((max(min(abs(eig_lo), abs(eig_hi)) - noise, 0.0), _INERTIA))
    if eig_lo > 0.0:
        return UnitPair(lam, lam)
    if eig_hi < 0.0:
        return UnitPair(-lam, -lam)
    return UnitPair(lam, -lam)


# --- bulk family-level classification (used by the neighborhood sampler) ----

def classify_many(As: np.ndarray) -> dict:
    """Family-level classification of a stack of matrices at tol = 1e-9.

    Runs the decision tree of :func:`classify` on every matrix at once but
    extracts no parameters.  Returns family codes (indices into FAMILY_CODES,
    with sub-tolerance margins mapped to "boundary"), margins, and the
    cosquare eigenvalues, the larger modulus first (NaN if singular).  The
    eigenvalues are formed after the tree, from its invariants
    (``_cosquare_roots``); the neighborhood sampler, whose report reads them
    only around a source with a spectrum, runs the tree alone
    (``_classify_stack``) around the others.
    """
    import numpy as np

    As = np.ascontiguousarray(As, dtype=np.complex128)
    if As.ndim != 3 or As.shape[1:] != (2, 2):
        raise InvalidInput("expected an (n, 2, 2) array")
    family, margin, tree = _classify_stack(As)
    p, q = _cosquare_roots(*tree)
    return {"family": family, "margin": margin, "p": p, "q": q}


def _classify_stack(As):
    """(family codes, margins, (nonsingular lanes, invariants, t)) of a contiguous
    complex128 (n, 2, 2) stack, as classify_many returns them and passes them on."""
    import numpy as np

    if not np.all(np.isfinite(As.view(np.float64))):
        raise InvalidInput("matrix stack contains NaN or Inf")
    tol = 1e-9  # classify's default
    entries = _prescale(As)
    scale = _norm4(*entries)
    nonzero = scale > 0.0
    # zero rows divide by 1 and every output masks them; a select that every
    # lane agrees on is skipped
    every = nonzero.all()
    a, b, c, d = (m / (scale if every else np.where(nonzero, scale, 1.0)) for m in entries)
    # the lanes a branch's select discards may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        code, slacks, nonsingular, inv, t = _tree(a, b, c, d, tol)
    margin = slacks[0][0]
    for slack, _ in slacks[1:]:
        margin = np.minimum(margin, slack)
    if not every:
        margin, code = np.where(nonzero, margin, np.inf), np.where(nonzero, code, 0)
    return np.where(margin < AMBIG_FRACTION * tol, 5, code), margin, (nonsingular, inv, t)


def _cosquare_roots(nonsingular, inv, t):
    """The cosquare eigenvalues (p, q) of ``_classify_stack``'s lanes, the larger
    modulus first; NaN on the singular lanes."""
    import numpy as np

    if not nonsingular.any():
        return np.full((2, len(nonsingular)), np.nan, dtype=np.complex128)
    # the smaller root as det A / (h + root), which does not cancel; off the
    # circle the larger is 1 / conj(q), as hyp(sigma) has it
    det, _, h, _, _, rho2, _ = inv
    hyp = rho2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h_root = h + np.where(hyp, np.copysign(t, h), 1j * t)
        q = det / h_root
        p = np.where(hyp, 1.0 / q.conjugate(), h_root / det.conjugate())
    if nonsingular.all():
        return p, q
    return np.where(nonsingular, p, np.nan), np.where(nonsingular, q, np.nan)


# --- sampling and comparison -------------------------------------------------

def _cond2(s00, s01, s10, s11) -> float:
    """Condition number of S = [[s00, s01], [s10, s11]] from the eigenvalues of S* S."""
    g00, g11 = abs(s00) ** 2 + abs(s10) ** 2, abs(s01) ** 2 + abs(s11) ** 2
    s_min, s_max = hermitian_eigenvalues(g00, g11, s00.conjugate() * s01 + s10.conjugate() * s11)
    return math.sqrt(s_max / s_min) if s_min > 0.0 else math.inf


def random_congruence(form: CanonicalForm, seed: int):
    """A random member of the class of ``form``.

    Returns (S, S* realize(form) S), each as two rows of two Python complex
    numbers, where S has entries drawn uniformly from the complex unit square,
    resampled until cond(S) <= 20.  Deterministic per seed, which must lie in
    [0, 2^64).
    """
    from .rng import seeded_rng

    if not 0 <= seed < 2**64:  # the generator reads the seed modulo 2^64
        raise InvalidInput("seed must lie in [0, 2^64)")
    rng = seeded_rng(seed)
    while True:
        entries = [complex(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)) for _ in range(4)]
        if _cond2(*entries) <= 20.0:
            break
    r = _entries(form)
    cols = (entries[0], entries[2]), (entries[1], entries[3])
    return [entries[:2], entries[2:]], [[_form(*r, x, y) for y in cols] for x in cols]
