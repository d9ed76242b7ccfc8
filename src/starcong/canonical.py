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
noise floors so the tree stays reliable even for the nearly singular
matrices produced by small-delta perturbation witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassification, InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, realize
from .linalg import EPS, as_mat2, frob, hermitian_part_eigenvalues
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
    scale = frob(A)
    if scale == 0.0:
        return ClassificationReport(Zero(), math.inf, 0.0)
    An = A / scale
    a, b, c, d = (complex(An[0, 0]), complex(An[0, 1]), complex(An[1, 0]), complex(An[1, 1]))

    slacks: list[tuple[float, str, str]] = []
    det = a * d - b * c
    absdet = abs(det)
    slacks.append((abs(absdet - tol), "rank<=1", "nonsingular"))

    if absdet <= tol:
        form = _classify_rank1(An, a, b, c, d, tol, slacks)
    else:
        form = _classify_nonsingular(An, a, b, c, d, det, absdet, tol, slacks)

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


def _classify_rank1(An, a, b, c, d, tol, slacks):
    resid = frob(An.conj().T - _proportionality(a, b, c, d) * An)
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


# --- formulas shared by classify and classify_many ---------------------------
#
# Each takes complex scalars or ndarrays alike.  _spectrum, _circle_test and
# _jordan_test return their statistic, threshold and normalized slack; the
# caller makes the comparison with its own control flow (if/else or masks).


def _maximum(x, y):
    # np.maximum on scalars costs about a microsecond, max does not
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.maximum(x, y)
    return max(x, y)


def _proportionality(a, b, c, d):
    """Least-squares factor w of a rank-1 matrix with A* ~ w A."""
    return np.conj(a) ** 2 + 2.0 * np.conj(b) * np.conj(c) + np.conj(d) ** 2


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


def _jordan_test(j_stat, frob_k, noise_norm, tol):
    """Threshold on j_stat = ||K - xi I|| below which a coincident K is scalar.

    Returns (threshold, slack).
    """
    threshold = _maximum(tol * frob_k, 30.0 * noise_norm)
    return threshold, abs(j_stat - threshold) / _maximum(frob_k, 1.0)


def _classify_nonsingular(An, a, b, c, d, det, absdet, tol, slacks):
    k, noise = _cosquare(a, b, c, d, det, absdet)
    tr, p, q, n_tr, n_disc, sep, sep_threshold, slack = _spectrum(k, noise, det / np.conj(det), tol)
    slacks.append((slack, "coincident spectrum", "distinct spectrum"))
    if sep > sep_threshold:
        return _branch_distinct(An, k, p, q, sep, n_tr, n_disc, tol, slacks)
    return _branch_coincident(An, k, noise, tr, absdet, tol, slacks)


def _branch_distinct(An, k, p, q, sep, n_tr, n_disc, tol, slacks):
    circle_dev, circle_threshold, slack, n_eig = _circle_test(p, q, sep, n_tr, n_disc, tol)
    slacks.append((slack, "pair", "hyp"))
    if circle_dev > circle_threshold:
        return Hyperbolic(p if abs(p) < 1.0 else q)
    K = np.array(k, dtype=np.complex128).reshape(2, 2)
    # Python complex: its division rounds differently from numpy's scalar one
    mu = _pair_entry(An, K, complex(p), slacks, n_eig)
    nu = _pair_entry(An, K, complex(q), slacks, n_eig)
    return UnitPair(mu, nu)


def _null_vector(M) -> np.ndarray:
    """Unit kernel vector of a (numerically) singular 2x2 matrix."""
    c1 = np.array([M[0, 1], -M[0, 0]], dtype=np.complex128)
    c2 = np.array([M[1, 1], -M[1, 0]], dtype=np.complex128)
    x = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        # matrix is (numerically) zero: any direction is a kernel vector
        return np.array([1.0, 0.0], dtype=np.complex128)
    return x / nrm


def _pair_entry(An, K, eig, slacks, n_eig):
    x = _null_vector(K - eig * np.eye(2))
    v = complex(x.conj() @ An @ x)
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


def _branch_coincident(An, k, noise, tr, absdet, tol, slacks):
    xi = complex(tr) / 2.0  # Python complex, for the division below
    xi_hat = xi / abs(xi)
    K = np.array(k, dtype=np.complex128).reshape(2, 2)
    R = K - xi * np.eye(2)
    j_stat = frob(R)
    frob_k = frob(K)
    noise_norm = float(np.linalg.norm(noise))
    j_threshold, slack = _jordan_test(j_stat, frob_k, noise_norm, tol)
    slacks.append((slack, "pair(l,+-l)", "delta"))

    if j_stat <= j_threshold:
        return _branch_scalar(An, xi_hat, absdet, tol, noise_norm, frob_k, slacks)
    return _branch_jordan(An, R, xi_hat, slacks)


def _branch_scalar(An, xi_hat, absdet, tol, noise_norm, frob_k, slacks):
    lam = complex(np.sqrt(xi_hat))
    H = np.conj(lam) * An
    herm_resid = frob(H - H.conj().T)
    herm_threshold = max(10.0 * tol, 30.0 * noise_norm / max(frob_k, 1.0) + 1e3 * EPS)
    slacks.append((max(herm_threshold - herm_resid, 0.0), "pair(l,+-l)", "non-Hermitian residual"))
    if herm_resid > herm_threshold:
        raise AmbiguousClassification(
            "scalar cosquare but conj(l) A is not Hermitian",
            ("pair(l,+-l)", "delta"), herm_resid)
    eig_lo, eig_hi = hermitian_part_eigenvalues(H)
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


def _branch_jordan(An, R, xi_hat, slacks):
    x = _null_vector(R)
    y, *_ = np.linalg.lstsq(R, x, rcond=None)
    w = complex(x.conj() @ An @ y)
    # only the phase of w is consumed; it is meaningful as long as w sits
    # above the rounding noise of the bilinear form, which scales with ||y||
    if abs(w) < 30.0 * EPS * max(1.0, float(np.linalg.norm(y))):
        raise AmbiguousClassification(
            "degenerate generalized eigenvector pairing",
            ("delta", "pair(l,+-l)"), abs(w))
    tau_est = np.conj(1j * w / abs(w))
    root = complex(np.sqrt(xi_hat))
    tau = root if abs(tau_est - root) <= abs(tau_est + root) else -root
    consistency = abs(tau_est - tau)
    slacks.append((max(0.1 - consistency, 0.0), "delta", "inconsistent tau"))
    if consistency > 0.1:
        raise AmbiguousClassification(
            "generalized eigenvector phase disagrees with the spectrum",
            ("delta", "pair(l,+-l)"), consistency)
    return DeltaTau(tau)


# --- bulk family-level classification (used by the neighborhood sampler) ----

def classify_many(As: np.ndarray, tol: float = 1e-9) -> dict:
    """Family-level classification of a stack of matrices.

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
        w = _proportionality(a, b, c, d)
        Astar = np.conj(np.swapaxes(An, 1, 2))
        resid = np.sqrt(np.sum(np.abs(Astar - w[:, None, None] * An) ** 2, axis=(1, 2)))
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
            k00, k01, k10, k11 = k
            xi = tr / 2.0
            r00, r11 = k00 - xi, k11 - xi
            j_stat = np.sqrt(np.abs(r00) ** 2 + np.abs(k01) ** 2 + np.abs(k10) ** 2 + np.abs(r11) ** 2)
            frob_k = np.sqrt(np.abs(k00) ** 2 + np.abs(k01) ** 2 + np.abs(k10) ** 2 + np.abs(k11) ** 2)
            n00, n01, n10, n11 = noise
            noise_norm = np.sqrt(n00**2 + n01**2 + n10**2 + n11**2)
            j_threshold, j_slack = _jordan_test(j_stat, frob_k, noise_norm, tol)
            margin = np.where(coincident, np.minimum(margin, j_slack), margin)
            fam = np.where(coincident & (j_stat <= j_threshold), 2, fam)
            fam = np.where(coincident & (j_stat > j_threshold), 4, fam)

        p_out = np.where(nonsing, p, p_out)
        q_out = np.where(nonsing, q, q_out)

    fam = np.where(nonzero & (margin < AMBIG_FRACTION * tol), 5, fam)
    return {"family": fam, "margin": margin, "p": p_out, "q": q_out}


# --- sampling and comparison -------------------------------------------------

def _cond2(S: np.ndarray) -> float:
    g = S.conj().T @ S
    t = float((g[0, 0] + g[1, 1]).real)
    dd = abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    rad = math.sqrt(max((t / 2.0) ** 2 - dd, 0.0))
    s_max = t / 2.0 + rad
    s_min = t / 2.0 - rad
    if s_min <= 0.0:
        return math.inf
    return math.sqrt(s_max / s_min)


def random_congruence(form: CanonicalForm, seed: int, cond_max: float = 20.0):
    """A random member of the class of ``form``.

    Returns (S, S* realize(form) S) where S has entries drawn uniformly from
    the complex unit square, resampled until cond(S) <= cond_max.
    Deterministic per seed.
    """
    if cond_max < 4.0:
        raise InvalidInput("cond_max must be at least 4")
    rng = seeded_rng(seed)
    while True:
        entries = [complex(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)) for _ in range(4)]
        S = np.array([[entries[0], entries[1]], [entries[2], entries[3]]], dtype=np.complex128)
        if _cond2(S) <= cond_max:
            break
    R = realize(form)
    return S, S.conj().T @ R @ S
