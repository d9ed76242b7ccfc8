"""Classification of 2x2 complex matrices up to *congruence.

The decision tree is cosquare-based:

    1. exactly zero                            -> zero
    2. rank 1: A* proportional to A            -> udz(phase of trace)
              otherwise                        -> hyp(0)
    3. nonsingular, K = (A^{-1})* A:
       3a. an eigenvalue of K off the unit
           circle                              -> hyp(sigma), sigma the
                                                  eigenvalue inside the circle
       3b. distinct unimodular eigenvalues     -> pair(mu, nu), each canonical
                                                  entry = phase(x* A x) at the
                                                  matching eigenvector x
       3c. K scalar (= xi I)                   -> pair(l, +-l) with l^2 = xi,
                                                  resolved by the inertia of
                                                  conj(l) A
       3d. K a single Jordan block             -> delta(tau), tau recovered
                                                  from phase(x* A y) with y a
                                                  generalized eigenvector

Every threshold comparison contributes a normalized slack; the report's
``margin`` is the smallest slack, and inputs whose margin falls below half
the requested tolerance are refused with AmbiguousClassification instead of
being silently assigned a class.  Thresholds carry explicit floating-point
noise floors for nearly singular inputs.

Inside this module a 2x2 matrix is the tuple of its entries (m00, m01, m10,
m11): Python complex scalars in classify, arrays over the stack in
classify_many.  The kernels the two share take either; the norm and the
form x* A y come from ``linalg``.  classify and classify_many reject NaN/Inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassification, InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, realize
from .linalg import EPS, _form, _norm4, as_mat2, hermitian_eigenvalues
from .rng import seeded_rng

#: Ambiguity cutoff as a fraction of the requested tolerance.  Exact
#: canonical representatives sit at slack == tol on the rank test, so the
#: cutoff must be strictly below 1.
AMBIG_FRACTION = 0.5

FAMILY_CODES = ("zero", "udz", "pair", "hyp", "delta", "boundary")


@dataclass(frozen=True)
class ClassificationReport:
    form: CanonicalForm
    margin: float
    scale: float


def classify(A, tol: float = 1e-9) -> ClassificationReport:
    """Canonical form of ``A`` with a decision margin.

    ``tol`` controls every relative threshold in the tree (rank test,
    unit-circle test, eigenvalue-coincidence test).  Raises
    AmbiguousClassification when the input is closer than ``tol / 2`` to a
    decision boundary.
    """
    A = as_mat2(A)
    if not tol > 0:
        raise InvalidInput("tol must be positive")
    entries = A.ravel().tolist()
    scale = _norm4(*entries)
    if scale == 0.0:
        return ClassificationReport(Zero(), math.inf, 0.0)
    norm = scale
    if scale == math.inf:  # finite entries, overflowing norm: quarters are exact, their norm finite
        entries = [m / 4.0 for m in entries]
        norm = _norm4(*entries)
    # true division: numpy's complex / real multiplies by 1 / scale, which
    # overflows for a subnormal scale
    a, b, c, d = (m / norm for m in entries)

    slacks: list[tuple[float, str, str]] = []
    det = a * d - b * c
    absdet = abs(det)
    slacks.append((abs(absdet - tol), "rank<=1", "nonsingular"))

    if absdet <= tol:
        form = _classify_rank1(a, b, c, d, tol, slacks)
    else:
        form = _classify_nonsingular(a, b, c, d, det, absdet, tol, slacks)

    margin = float(min(s for s, _, _ in slacks))
    if margin < AMBIG_FRACTION * tol:
        worst = min(slacks, key=lambda t: t[0])
        raise AmbiguousClassification(
            f"margin {margin:.3e} below {AMBIG_FRACTION * tol:.3e}: "
            f"contending branches {worst[1]!r} vs {worst[2]!r}",
            (worst[1], worst[2]),
            margin,
        )
    return ClassificationReport(form, margin, scale)


def _classify_rank1(a, b, c, d, tol, slacks):
    resid = _rank1_residual(a, b, c, d)
    slacks.append((abs(resid - tol), "udz", "hyp(0)"))
    if resid <= tol:
        tr = a + d
        if abs(tr) < 0.5:
            # a proportional rank-1 matrix has |tr| == ||A||_F exactly
            raise AmbiguousClassification(
                "rank-1 proportional matrix with inconsistent trace",
                ("udz", "hyp(0)"), abs(tr))
        return UnitDirectZero(tr / abs(tr))
    return Hyperbolic(0.0)


# --- kernels ------------------------------------------------------------------
#
# Down to _jordan_test they take complex scalars or ndarrays alike, for classify
# and classify_many; the tests among them return statistic, threshold and
# normalized slack, and the caller compares with its own control flow (if/else
# or masks).  From _null_vector on they take Python complex, for classify alone.


def _maximum(x, y):
    # np.maximum on scalars costs about a microsecond, max does not
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.maximum(x, y)
    return max(x, y)


def _rank1_residual(a, b, c, d):
    """||A* - w A|| for the least-squares factor w of a rank-1 A with A* ~ w A."""
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    w = ac * ac + 2.0 * bc * cc + dc * dc
    return _norm4(ac - w * a, cc - w * b, bc - w * c, dc - w * d)


def _cosquare(a, b, c, d, det, absdet):
    """Entries (k00, k01, k10, k11) of the cosquare K = A^{-*} A of the
    normalized matrix, and an entrywise bound on their rounding noise."""
    kappa_det = (abs(a * d) + abs(b * c)) / absdet
    m = np.conj(det)
    # rows of A^{-*} = adj(A)^* / conj(det)
    b00, b01 = np.conj(d) / m, -np.conj(c) / m
    b10, b11 = -np.conj(b) / m, np.conj(a) / m
    k = (b00 * a + b01 * c, b00 * b + b01 * d, b10 * a + b11 * c, b10 * b + b11 * d)
    amp = EPS * (4.0 + 2.0 * kappa_det)
    noise = (
        amp * (abs(b00) * abs(a) + abs(b01) * abs(c)),
        amp * (abs(b00) * abs(b) + abs(b01) * abs(d)),
        amp * (abs(b10) * abs(a) + abs(b11) * abs(c)),
        amp * (abs(b10) * abs(b) + abs(b11) * abs(d)),
    )
    return k, noise


def _spectrum(k, noise, det_k, tol):
    """Eigenvalues p, q of K from its trace and the exactly unimodular det_k,
    with the coincidence test on their separation.

    Returns (tr, p, q, n_tr, n_disc, sep, sep_threshold, slack).
    """
    tr = k[0] + k[3]
    n_tr = noise[0] + noise[3]
    disc = tr * tr - 4.0 * det_k
    n_disc = 2.0 * abs(tr) * n_tr + n_tr * n_tr + 16.0 * EPS
    sq = np.sqrt(disc)
    flip = (tr.real * sq.real + tr.imag * sq.imag) < 0.0
    sq = np.where(flip, -sq, sq) if isinstance(flip, np.ndarray) else (-sq if flip else sq)
    # p is the larger root and p * q = det_k is unimodular, so |p| >= 1
    p = (tr + sq) / 2.0
    q = det_k / p
    sep = abs(p - q)
    maxmod = _maximum(_maximum(abs(p), abs(q)), 1.0)
    sep_threshold = _maximum(tol, np.sqrt(30.0 * n_disc)) * maxmod
    return tr, p, q, n_tr, n_disc, sep, sep_threshold, abs(sep - sep_threshold) / maxmod


def _circle_test(p, q, sep, n_tr, n_disc, tol):
    """Distance of distinct eigenvalues from the unit circle.

    Returns (circle_dev, threshold, slack, n_eig), n_eig the eigenvalue noise.
    """
    circle_dev = _maximum(abs(abs(p) - 1.0), abs(abs(q) - 1.0))
    n_eig = 0.5 * (n_tr + n_disc / (2.0 * sep))
    threshold = _maximum(tol, 10.0 * n_eig)
    return circle_dev, threshold, abs(circle_dev - threshold), n_eig


def _jordan_test(k, noise, xi, tol):
    """Threshold on j = ||K - xi I|| below which a coincident K is scalar.

    Returns (j, threshold, slack, ||K||, ||noise||).
    """
    j_stat = _norm4(k[0] - xi, k[1], k[2], k[3] - xi)
    frob_k = _norm4(*k)
    noise_norm = _norm4(*noise)
    threshold = _maximum(tol * frob_k, 30.0 * noise_norm)
    return j_stat, threshold, abs(j_stat - threshold) / _maximum(frob_k, 1.0), frob_k, noise_norm


def _null_vector(m00, m01, m10, m11):
    """Unit kernel vector (x0, x1) of a (numerically) singular 2x2 matrix."""
    n1 = _norm4(m01, m00, 0.0, 0.0)
    n2 = _norm4(m11, m10, 0.0, 0.0)
    x0, x1, nrm = (m01, -m00, n1) if n1 >= n2 else (m11, -m10, n2)
    if nrm == 0.0:
        # matrix is (numerically) zero: any direction is a kernel vector
        return 1.0, 0.0
    return x0 / nrm, x1 / nrm


def _classify_nonsingular(a, b, c, d, det, absdet, tol, slacks):
    k, noise = _cosquare(a, b, c, d, det, absdet)
    # numpy scalars inside _cosquare (for its division rounding), Python complex after
    k, noise = tuple(map(complex, k)), tuple(map(float, noise))
    tr, p, q, n_tr, n_disc, sep, sep_threshold, slack = _spectrum(k, noise, det / np.conj(det), tol)
    slacks.append((slack, "coincident spectrum", "distinct spectrum"))
    if sep > sep_threshold:
        circle_dev, circle_threshold, slack, n_eig = _circle_test(p, q, sep, n_tr, n_disc, tol)
        slacks.append((slack, "pair", "hyp"))
        if circle_dev > circle_threshold:
            return Hyperbolic(p if abs(p) < 1.0 else q)
        mu = _pair_entry(a, b, c, d, k, complex(p), n_eig, slacks)
        nu = _pair_entry(a, b, c, d, k, complex(q), n_eig, slacks)
        return UnitPair(mu, nu)

    xi = tr / 2.0
    j_stat, j_threshold, slack, frob_k, noise_norm = _jordan_test(k, noise, xi, tol)
    slacks.append((slack, "pair(l,+-l)", "delta"))
    lam = complex(np.sqrt(xi / abs(xi)))
    if j_stat <= j_threshold:
        return _branch_scalar(a, b, c, d, lam, absdet, tol, noise_norm, frob_k, slacks)
    return _branch_jordan(a, b, c, d, (k[0] - xi, k[1], k[2], k[3] - xi), lam, slacks)


def _pair_entry(a, b, c, d, k, eig, n_eig, slacks):
    x = _null_vector(k[0] - eig, k[1], k[2], k[3] - eig)
    v = _form(a, b, c, d, x, x)
    # the legitimate value shrinks like 1/cond(S)^2 for lopsided class
    # members, so the degeneracy floor is the rounding noise of the form,
    # not an absolute cutoff
    if abs(v) < 30.0 * EPS:
        raise AmbiguousClassification(
            "vanishing quadratic form on a cosquare eigenvector",
            ("pair", "delta"), abs(v))
    entry = v / abs(v)
    consistency = abs(entry * entry - eig / abs(eig))
    threshold = max(1e-6, 100.0 * n_eig)
    slacks.append((max(threshold - consistency, 0.0), "pair", "inconsistent pair entry"))
    return entry


def _branch_scalar(a, b, c, d, lam, absdet, tol, noise_norm, frob_k, slacks):
    h00, h01, h10, h11 = (lam.conjugate() * m for m in (a, b, c, d))  # H = conj(l) A
    # ||H - H*||: the diagonal of H - H* is 2i Im(h00), 2i Im(h11)
    herm_resid = _norm4(2.0 * h00.imag, h01 - h10.conjugate(), h10 - h01.conjugate(), 2.0 * h11.imag)
    herm_threshold = max(10.0 * tol, 30.0 * noise_norm / max(frob_k, 1.0) + 1e3 * EPS)
    slacks.append((max(herm_threshold - herm_resid, 0.0), "pair(l,+-l)", "non-Hermitian residual"))
    if herm_resid > herm_threshold:
        raise AmbiguousClassification(
            "scalar cosquare but conj(l) A is not Hermitian",
            ("pair(l,+-l)", "delta"), herm_resid)
    eig_lo, eig_hi = hermitian_eigenvalues(h00.real, h11.real, (h01 + h10.conjugate()) / 2.0)  # of (H + H*) / 2
    # H is nonsingular here: |eig_lo * eig_hi| = |det H| ~ absdet, so a cut at
    # a quarter of it cleanly separates true eigenvalues from zero
    cut = 0.25 * absdet
    n_plus = (eig_lo > cut) + (eig_hi > cut)
    n_minus = (eig_lo < -cut) + (eig_hi < -cut)
    slacks.append(((min(abs(eig_lo), abs(eig_hi)) - cut), "definite", "indefinite"))
    if n_plus + n_minus != 2:
        raise AmbiguousClassification(
            "inertia of the scaled matrix could not be resolved",
            ("pair(l,l)", "pair(l,-l)"), min(abs(eig_lo), abs(eig_hi)))
    if n_plus == 2:
        return UnitPair(lam, lam)
    if n_minus == 2:
        return UnitPair(-lam, -lam)
    return UnitPair(lam, -lam)


def _branch_jordan(a, b, c, d, r, root, slacks):
    x = _null_vector(*r)
    y = tuple(map(complex, np.linalg.lstsq([r[:2], r[2:]], x, rcond=None)[0]))
    w = _form(a, b, c, d, x, y)
    # only the phase of w is consumed; it is meaningful as long as w sits
    # above the rounding noise of the bilinear form, which scales with ||y||
    if abs(w) < 30.0 * EPS * max(1.0, _norm4(*y, 0.0, 0.0)):
        raise AmbiguousClassification(
            "degenerate generalized eigenvector pairing",
            ("delta", "pair(l,+-l)"), abs(w))
    tau_est = (1j * w / abs(w)).conjugate()
    tau = root if abs(tau_est - root) <= abs(tau_est + root) else -root
    consistency = abs(tau_est - tau)
    slacks.append((max(0.1 - consistency, 0.0), "delta", "inconsistent tau"))
    if consistency > 0.1:
        raise AmbiguousClassification(
            "generalized eigenvector phase disagrees with the spectrum",
            ("delta", "pair(l,+-l)"), consistency)
    return DeltaTau(tau)


# --- bulk family-level classification (used by the neighborhood sampler) ----

def classify_many(As: np.ndarray) -> dict:
    """Family-level classification of a stack of matrices at tol = 1e-9.

    Shares the threshold formulas of :func:`classify` but extracts no
    parameters, so it vectorizes.  Returns family codes (indices into
    FAMILY_CODES, with sub-tolerance margins mapped to "boundary"), margins,
    and the cosquare eigenvalue pair (NaN for singular samples).
    """
    As = np.asarray(As, dtype=np.complex128)
    if As.ndim != 3 or As.shape[1:] != (2, 2):
        raise InvalidInput("expected an (n, 2, 2) array")
    if not np.all(np.isfinite(As.view(np.float64))):
        raise InvalidInput("matrix stack contains NaN or Inf")
    n = As.shape[0]
    tol = 1e-9  # classify's default
    fam = np.zeros(n, dtype=np.int64)
    margin = np.full(n, np.inf)
    p_out = np.full(n, np.nan, dtype=np.complex128)
    q_out = np.full(n, np.nan, dtype=np.complex128)

    scale = np.sqrt(np.sum(np.abs(As) ** 2, axis=(1, 2)))
    nonzero = scale > 0.0
    if not np.any(nonzero):
        return {"family": fam, "margin": margin, "p": p_out, "q": q_out}

    An = np.where(nonzero[:, None, None], As / np.where(nonzero, scale, 1.0)[:, None, None], 0.0)
    a, b = An[:, 0, 0], An[:, 0, 1]
    c, d = An[:, 1, 0], An[:, 1, 1]
    det = a * d - b * c
    absdet = np.abs(det)
    margin = np.minimum(margin, np.where(nonzero, np.abs(absdet - tol), np.inf))

    singular = nonzero & (absdet <= tol)
    if np.any(singular):
        resid = _rank1_residual(a, b, c, d)
        margin = np.where(singular, np.minimum(margin, np.abs(resid - tol)), margin)
        fam = np.where(singular & (resid <= tol), 1, fam)
        fam = np.where(singular & (resid > tol), 3, fam)

    nonsing = nonzero & (absdet > tol)
    if np.any(nonsing):
        # masked-out entries get det = 1, which keeps every formula finite
        det_s = np.where(nonsing, det, 1.0)
        k, noise = _cosquare(a, b, c, d, det_s, np.where(nonsing, absdet, 1.0))
        tr, p, q, n_tr, n_disc, sep, sep_threshold, sep_slack = _spectrum(k, noise, det_s / np.conj(det_s), tol)
        margin = np.where(nonsing, np.minimum(margin, sep_slack), margin)

        distinct = nonsing & (sep > sep_threshold)
        coincident = nonsing & ~distinct

        sep_safe = np.where(distinct, sep, 1.0)
        circle_dev, circle_threshold, circle_slack, _ = _circle_test(p, q, sep_safe, n_tr, n_disc, tol)
        margin = np.where(distinct, np.minimum(margin, circle_slack), margin)
        fam = np.where(distinct & (circle_dev > circle_threshold), 3, fam)
        fam = np.where(distinct & (circle_dev <= circle_threshold), 2, fam)

        if np.any(coincident):
            j_stat, j_threshold, j_slack, frob_k, noise_norm = _jordan_test(k, noise, tr / 2.0, tol)
            margin = np.where(coincident, np.minimum(margin, j_slack), margin)
            fam = np.where(coincident & (j_stat <= j_threshold), 2, fam)
            fam = np.where(coincident & (j_stat > j_threshold), 4, fam)

        p_out = np.where(nonsing, p, p_out)
        q_out = np.where(nonsing, q, q_out)

    fam = np.where(nonzero & (margin < AMBIG_FRACTION * tol), 5, fam)
    return {"family": fam, "margin": margin, "p": p_out, "q": q_out}


# --- sampling and comparison -------------------------------------------------

def _cond2(s00, s01, s10, s11) -> float:
    """Condition number of S = [[s00, s01], [s10, s11]] from the eigenvalues of S* S."""
    g00, g11 = abs(s00) ** 2 + abs(s10) ** 2, abs(s01) ** 2 + abs(s11) ** 2
    s_min, s_max = hermitian_eigenvalues(g00, g11, s00.conjugate() * s01 + s10.conjugate() * s11)
    return math.sqrt(s_max / s_min) if s_min > 0.0 else math.inf


def random_congruence(form: CanonicalForm, seed: int):
    """A random member of the class of ``form``.

    Returns (S, S* realize(form) S) where S has entries drawn uniformly from
    the complex unit square, resampled until cond(S) <= 20.
    Deterministic per seed.
    """
    rng = seeded_rng(seed)
    while True:
        entries = [complex(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)) for _ in range(4)]
        if _cond2(*entries) <= 20.0:
            break
    r = realize(form).ravel().tolist()
    cols = (entries[0], entries[2]), (entries[1], entries[3])
    member = [[_form(*r, x, y) for y in cols] for x in cols]
    return np.array([entries[:2], entries[2:]], dtype=np.complex128), np.array(member, dtype=np.complex128)
