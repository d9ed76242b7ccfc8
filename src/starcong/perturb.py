"""Perturbation witnesses, obstruction certificates, neighborhood sampling.

For every arrow of the closure order, :func:`witness` builds a *congruence S
and from it E = S* realize(target) S - realize(source), certified by a rounding
bound to fit ||E||_F <= delta (1 + 1e-12), so realize(source) + E lies in the
target class.  For every non-arrow, :func:`no_arrow_certificate` returns a
named invariant with a positive margin proving the arrow cannot exist.

:func:`sample_neighborhood` probes the defining property empirically: it
classifies a deterministic Monte Carlo sample of the Frobenius delta-ball
around a class representative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .canonical import FAMILY_CODES, classify_many
from .closure import _cone_coefficients, _cone_distance, _cone_shape, reachable
from .errors import (
    ArrowExists,
    CertificateNotFound,
    InvalidInput,
    NoArrow,
    StarcongError,
)
from .forms import (
    CanonicalForm,
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    format_complex,
    format_form,
    realize,
)
from .linalg import _form, _norm4
from .rng import substream_seeds, uniform_step
from .stratify import codimension

CERTIFICATE_KINDS = (
    "CodimMonotonicity",
    "SpectrumGap",
    "ConeMargin",
    "HalfPlaneMargin",
    "DetPhaseGap",
    "HermitianRankGap",
)


@dataclass(frozen=True)
class Witness:
    E: np.ndarray
    S: np.ndarray
    norm_E: float

    def to_json_dict(self) -> dict:
        return {
            "E": [[format_complex(complex(self.E[i, j])) for j in range(2)] for i in range(2)],
            "norm_E": self.norm_E,
            "S": [[format_complex(complex(self.S[i, j])) for j in range(2)] for i in range(2)],
        }


@dataclass(frozen=True)
class ObstructionCertificate:
    kind: str
    margin: float
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "margin": self.margin, "data": dict(self.data)}


@dataclass(frozen=True)
class NeighborhoodReport:
    source: CanonicalForm
    delta: float
    samples: int
    seed: int
    histogram: dict
    spectrum_drift: dict
    max_spectrum_drift: float | None

    def to_json_dict(self) -> dict:
        return {
            "source": format_form(self.source),
            "delta": self.delta,
            "samples": self.samples,
            "seed": self.seed,
            "histogram": dict(self.histogram),
            "spectrum_drift": {k: dict(v) for k, v in self.spectrum_drift.items()},
            "max_spectrum_drift": self.max_spectrum_drift,
        }


# --- witnesses ----------------------------------------------------------------


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 0.1:
        raise InvalidInput("delta must lie in (0, 0.1]")


def witness(source: CanonicalForm, target: CanonicalForm, delta: float) -> Witness:
    """Perturbation E with ||E||_F <= delta (1 + 1e-12) moving ``source`` into class ``target``.

    The arrow's builder gives a congruence S(f) at construction scale f, and
    E = S* realize(target) S - realize(source), so source + E is congruent to
    the target's representative.  From the builder's first scale, f halves
    until E fits the budget (for a udz source a residue |E[0,0]| <= 1e-12 is
    cleared first), or refuses once a halving leaves ||E|| no smaller.  A
    rounding bound then certifies S and E, or refuses; nothing is classified.
    Deterministic.  Raises NoArrow (carrying an obstruction certificate) when
    the move is impossible.
    """
    _check_delta(delta)
    if source == target:
        raise InvalidInput("source and target must differ (the lazy path needs no witness)")
    if not reachable(source, target):
        cert = no_arrow_certificate(source, target)
        raise NoArrow(f"no arrow {format_form(source)} -> {format_form(target)}: "
                      f"{cert.kind} margin {cert.margin:.6g}", cert)

    # reachable() leaves zero sources, udz -> pair, hyp, delta and pair(l, -l) -> delta(+-l)
    N, M = realize(target).ravel().tolist(), realize(source).ravel().tolist()
    if isinstance(source, Zero):
        congruence, f = _congruence_from_zero(N, delta), 1.0
    elif isinstance(source, UnitPair):
        congruence, f = _congruence_pair_delta(source, target, delta), 1.0
    elif isinstance(target, UnitPair):
        congruence, f = _congruence_udz_pair(source, target), min(0.5, delta)
    elif isinstance(target, Hyperbolic):
        congruence, f = _congruence_udz_hyp(source, target), min(0.5, delta)
    else:
        congruence, f = _congruence_udz_delta(source, target, delta), 1.0

    last = math.inf
    for _ in range(200):
        S = congruence(f)
        c0, c1 = (S[0], S[2]), (S[1], S[3])
        E = [_form(*N, x, y) - m for x, y, m in zip((c0, c0, c1, c1), (c0, c1, c0, c1), M)]
        # a udz source's E[0,0] vanishes by construction: clear the rounding residue only
        kept = [0j, *E[1:]] if isinstance(source, UnitDirectZero) and abs(E[0]) <= 1e-12 else E
        norm_e = _norm4(*kept)
        if norm_e <= delta * (1.0 + 1e-12):
            _certify(N, M, S, E, delta)
            return Witness(E=np.array(kept).reshape(2, 2), S=np.array(S, dtype=np.complex128).reshape(2, 2),
                           norm_E=norm_e)
        if norm_e >= last:  # no smaller f fits: E's f-dependent part is below rounding
            break
        last = norm_e
        f /= 2.0
        if f * delta < sys.float_info.min:  # the scale would be lost to rounding
            break
    raise StarcongError("perturbation did not shrink below the budget")


def _certify(N, M, S, E, delta):
    """Raise unless E' = S* N S - M, exact for the float S, has ||E'||_F <= delta (1 + 1e-12) and det S != 0."""
    # Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.) 3.1, 3.6:
    # with u = 2^-53 complex sums round by <= u, products by <= sqrt(2) gamma_2
    # = 2 sqrt(2) u / (1 - 2u).  A term conj(x_k) N_kl y_l of _form meets two
    # products and two sums and M_ij one sum, so |E_ij - E'_ij| <= g (|x|^T |N| |y|
    # + |M_ij|), g = (1 + sqrt(2) gamma_2)^2 (1 + u)^3 - 1 = 8.66u + O(u^2) <= 10u,
    # det S too.  Underflow adds u 2^-1022 a real product, 5.7 u 2^-1022 (1 + |y_0|
    # + |y_1|) an entry (tiny: 32 for 5.7); abs, the sums and hypot add 7u (1 + 8u).
    u = sys.float_info.epsilon / 2.0
    g, tiny = 10.0 * u, sys.float_info.min * (32.0 * u)
    a, (x0, x1) = [abs(v) for v in N], ((abs(S[0]), abs(S[2])), (abs(S[1]), abs(S[3])))
    bound = _norm4(*(abs(e) + g * (_form(*a, x, y) + abs(m)) + tiny * (1.0 + y[0] + y[1])
                     for e, m, x, y in zip(E, M, (x0, x0, x1, x1), (x0, x1, x0, x1))))
    if bound * (1.0 + 8.0 * u) > delta * (1.0 + 1e-12):
        raise StarcongError(f"witness verification failed: rounding bound {bound:.3e} exceeds delta {delta:.3e}")
    if abs(S[0] * S[3] - S[1] * S[2]) <= g * (abs(S[0] * S[3]) + abs(S[1] * S[2])) + tiny:
        raise StarcongError("witness verification failed: det S is within its rounding bound of 0")


def _congruence_from_zero(N, delta):
    scale = delta / _norm4(*N)
    return lambda f: (math.sqrt(f * scale), 0.0, 0.0, math.sqrt(f * scale))


def _congruence_udz_pair(source, target):
    lam, mu, nu = source.lam, target.mu, target.nu
    # read the cone's shape as reachable, which granted the arrow, reads it
    equal, line, det = _cone_shape(mu.real, mu.imag, nu.real, nu.imag)
    if equal:
        a, b = 1.0, 0.0
    elif line:
        a, b = (1.0, 0.0) if abs(lam - mu) <= abs(lam + mu) else (0.0, 1.0)
    else:
        a, b = _cone_coefficients(lam.real, lam.imag, mu.real, mu.imag, nu.real, nu.imag, det)
        a, b = max(a, 0.0), max(b, 0.0)
    x, z = math.sqrt(a), math.sqrt(b)

    def congruence(f):
        # keep S nonsingular: the small column avoids the vanishing sqrt
        y, t = (0.0, f) if a > 0.0 else (f, 0.0)
        return x, y, z, t

    return congruence


def _congruence_udz_hyp(source, target):
    lam, sigma = source.lam, target.sigma
    alpha, beta = sigma.real, sigma.imag
    det = alpha * alpha + beta * beta - 1.0  # nonzero since |sigma| < 1
    u = ((alpha - 1.0) * lam.real + beta * lam.imag) / det
    v = (-beta * lam.real + (1.0 + alpha) * lam.imag) / det
    w = complex(u, v)  # conj(z) x with z = 1
    return lambda f: (w, 0.0, 1.0, f)


def _congruence_udz_delta(source, target, delta):
    lam, tau = source.lam, target.tau
    c = tau.conjugate() * lam
    im_c = max(c.imag, 0.0)  # reachable() guarantees >= -GEOM_TOL

    def congruence(f):
        eta = 0.4 * delta * f
        rho = 0.15 * delta * f
        z = math.sqrt(max(im_c, eta))
        x = complex(c.real / (2.0 * z), 0.0)
        if abs(x) < 0.5:
            # padding the imaginary part keeps S well conditioned; the first
            # construction equation only constrains Re(conj(z) x)
            x += 0.5j
        t = rho / abs(x)
        return x, 0.0, z, t

    return congruence


def _congruence_pair_delta(source, target, delta):
    # S* (tau Delta_2) S = sign tau diag(1, -1) + i tau r^2 [[1, -1], [-1, 1]],
    # sign picking the nearer of +-l, so E also absorbs sign tau - l
    sign = 1.0 if abs(target.tau - source.mu) <= abs(target.tau + source.mu) else -1.0

    def congruence(f):
        r = math.sqrt(0.45 * delta * f)
        return 1.0 / (2.0 * r), 1.0 / (2.0 * r), sign * r, -sign * r

    return congruence


# --- obstruction certificates ---------------------------------------------------


def _cosquare_spectrum(form) -> tuple[complex, complex] | None:
    """Cosquare spectrum, a congruence invariant, read from the parameters:
    {mu^2, nu^2}, {1/conj(sigma), sigma} or {tau^2, tau^2}; None if singular."""
    if isinstance(form, UnitPair):
        return form.mu * form.mu, form.nu * form.nu
    if isinstance(form, Hyperbolic) and form.sigma != 0:
        return 1.0 / form.sigma.conjugate(), form.sigma
    if isinstance(form, DeltaTau):
        return form.tau * form.tau, form.tau * form.tau
    return None


def _spectrum_certificate(gap, spec_m, spec_n) -> ObstructionCertificate:
    # 1/conj(sigma) overflows for |sigma| below about 5.6e-309: the largest
    # float is still a lower bound on the gap
    return ObstructionCertificate("SpectrumGap", margin=min(gap, sys.float_info.max), data={
        "spectrum_source": [format_complex(s) for s in spec_m],
        "spectrum_target": [format_complex(s) for s in spec_n]})


def _spectral_spread(form) -> float:
    """|p - q| > 0 for the cosquare spectrum {mu^2, nu^2} or {sigma, 1/conj(sigma)}."""
    if isinstance(form, UnitPair):
        return abs(form.mu - form.nu) * abs(form.mu + form.nu)
    s = abs(form.sigma)
    return (1.0 - s * s) / s


def no_arrow_certificate(source: CanonicalForm, target: CanonicalForm) -> ObstructionCertificate:
    """First applicable obstruction proving there is no arrow source -> target.

    Past CodimMonotonicity only udz and pair(m, +-m) sources remain.  udz gives
    ConeMargin (-> pair) or HalfPlaneMargin (-> delta).  pair(m, +-m) gives
    SpectrumGap (-> pair(mu, nu != +-mu) or hyp(sigma != 0)), DetPhaseGap
    (-> hyp(0), delta, or determinant phases over 1e-12 apart) or
    HermitianRankGap (-> delta(t) with t^2 within 1e-12 of -m^2).
    """
    if source == target:
        raise InvalidInput("source and target must differ")
    if reachable(source, target):
        raise ArrowExists(f"{format_form(source)} -> {format_form(target)} is reachable")

    cm, cn = codimension(source), codimension(target)
    if cm <= cn:
        return ObstructionCertificate(
            "CodimMonotonicity",
            margin=float(cn - cm + 1),
            data={"codim_source": cm, "codim_target": cn},
        )

    # spectral: the target's spectrum has two distinct points; the source's is
    # the one point m^2 of pair(m, +-m), so the Hausdorff gap is the larger distance
    spec_m, spec_n = _cosquare_spectrum(source), _cosquare_spectrum(target)
    spectral = spec_m is not None and (
        (isinstance(target, UnitPair) and not target.equal_pair and not target.antipodal)
        or (isinstance(target, Hyperbolic) and target.sigma != 0))
    if spectral:
        spec_gap = max(abs(spec_m[0] - s) for s in spec_n)
        if spec_gap > 1e-12:
            return _spectrum_certificate(spec_gap, spec_m, spec_n)

    if isinstance(source, UnitDirectZero) and isinstance(target, UnitPair):
        dist = _cone_distance(source.lam, target.mu, target.nu)
        if dist > 0.0:
            return ObstructionCertificate(
                "ConeMargin", margin=dist,
                data={"lambda": format_complex(source.lam)})

    if isinstance(source, UnitDirectZero) and isinstance(target, DeltaTau):
        gap = -(source.lam * target.tau.conjugate()).imag
        if gap > 0.0:
            return ObstructionCertificate(
                "HalfPlaneMargin", margin=float(gap),
                data={"im_lambda_conj_tau": float(-gap)})

    m, n = realize(source).ravel().tolist(), realize(target).ravel().tolist()
    det_m, det_n = m[0] * m[3] - m[1] * m[2], n[0] * n[3] - n[1] * n[2]
    if abs(det_m) > 0.0:
        if abs(det_n) == 0.0:
            margin = abs(det_m) / _norm4(*m) ** 2
            return ObstructionCertificate(
                "DetPhaseGap", margin=margin,
                data={"det_source": format_complex(det_m), "det_target": "0"})
        phase_gap = abs(det_m / abs(det_m) - det_n / abs(det_n))
        if phase_gap > 1e-12:
            return ObstructionCertificate(
                "DetPhaseGap", margin=phase_gap,
                data={
                    "det_phase_source": format_complex(det_m / abs(det_m)),
                    "det_phase_target": format_complex(det_n / abs(det_n)),
                })

    if spectral:
        # the spectrum is constant on the target class, so any positive gap
        # proves the non-arrow; m^2 is at least half the target's spread away
        # from the farther of its two points, a bound rounding cannot close
        return _spectrum_certificate(max(spec_gap, _spectral_spread(target) / 2.0), spec_m, spec_n)

    if isinstance(source, UnitPair) and source.equal_pair and isinstance(target, DeltaTau):
        # only det phases m^2, -t^2 within 1e-12 get here: c = conj(m) t has
        # |Re c| = |m^2 + t^2| / 2 <= 5e-13, so the Hermitian part [[0, 2 Re c],
        # [2 Re c, -2 Im c]] of c Delta_2 has rank 1, that of conj(m) diag(m, m) 2
        return ObstructionCertificate(
            "HermitianRankGap", margin=1.0, data={"rank_source_sum": 2, "rank_target_sum": 1})

    raise CertificateNotFound(
        f"no obstruction certificate for {format_form(source)} -> {format_form(target)}")


# --- neighborhood sampling -------------------------------------------------------


#: Samples drawn and classified at a time by :func:`sample_neighborhood`.  It
#: bounds the working memory of a call; the report does not depend on it.
SAMPLE_CHUNK = 2**14


def _ball_sample(seed: int, samples: int, delta: float, start: int = 0) -> np.ndarray:
    """Uniform draws from the Frobenius delta-ball, one sub-stream per sample.

    Sample i comes from sub-stream ``start + i`` of ``seed``, so the first k
    draws do not depend on ``samples``.  The four entries are the first four
    coordinates of a uniform point on the unit sphere of C^5, which are
    uniform in the unit ball of C^4 = R^8 (Voelker, Gosmann & Stewart 2017):
    the squared moduli are the first four spacings of four sorted uniforms
    (Dirichlet(1, ..., 1) weights), and each phase is a point of the unit
    disk found by rejection (acceptance pi/4), normalized.  Only + - * / and
    sqrt are used, so the draws are bit-reproducible across platforms.
    """
    states = substream_seeds(seed, samples, start)
    u = np.empty((samples, 4))
    for k in range(4):
        states, u[:, k] = uniform_step(states)
    u.sort(axis=1)
    weights = np.diff(u, axis=1, prepend=0.0)

    re = np.empty((samples, 4))
    im = np.empty((samples, 4))
    for k in range(4):
        pending = np.arange(samples)
        while pending.size:
            active, ux = uniform_step(states[pending])
            active, uy = uniform_step(active)
            states[pending] = active
            x = 2.0 * ux - 1.0
            y = 2.0 * uy - 1.0
            r2 = x * x + y * y
            ok = (r2 > 0.0) & (r2 <= 1.0)
            idx = pending[ok]
            scale = np.sqrt(weights[idx, k]) / np.sqrt(r2[ok])
            re[idx, k] = x[ok] * scale
            im[idx, k] = y[ok] * scale
            pending = pending[~ok]

    E = np.empty((samples, 4), dtype=np.complex128)
    E.real = delta * re
    E.imag = delta * im
    return E.reshape(samples, 2, 2)


def _spectrum_drift(p: np.ndarray, q: np.ndarray, p0: complex, q0: complex) -> np.ndarray:
    """Hausdorff distance of each spectrum {p, q} from {p0, q0}; NaN where p is."""
    d_pp = np.abs(p - p0)
    d_pq = np.abs(p - q0)
    d_qp = np.abs(q - p0)
    d_qq = np.abs(q - q0)
    fwd = np.maximum(np.minimum(d_pp, d_pq), np.minimum(d_qp, d_qq))
    bwd = np.maximum(np.minimum(d_pp, d_qp), np.minimum(d_pq, d_qq))
    return np.maximum(fwd, bwd)


def _drift_stats(values: np.ndarray) -> dict:
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }


def sample_neighborhood(
    source: CanonicalForm, delta: float, samples: int, seed: int = 0
) -> NeighborhoodReport:
    """Empirical class distribution in the delta-ball around realize(source).

    Samples are classified at family level; samples whose decision margin
    falls below the ambiguity cutoff land in a separate "boundary" bucket.
    For nonsingular samples the Hausdorff drift of the cosquare spectrum from
    that of the source representative is aggregated per family.  Samples are
    drawn and classified in chunks of SAMPLE_CHUNK, so memory stays bounded.
    Deterministic per (seed, samples, version); the first k samples do not
    depend on n, the number of samples drawn.
    """
    _check_delta(delta)
    if not 0 <= samples <= 10**7:
        raise InvalidInput("samples must lie in [0, 10^7]")
    R = realize(source)
    fam = np.empty(samples, dtype=np.int8)
    spectrum = _cosquare_spectrum(source)
    drift = np.empty(samples) if spectrum is not None else None
    for lo in range(0, samples, SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, samples)
        res = classify_many(R[None, :, :] + _ball_sample(seed, hi - lo, delta, lo))
        fam[lo:hi] = res["family"]
        if drift is not None:
            drift[lo:hi] = _spectrum_drift(res["p"], res["q"], *spectrum)

    histogram = {name: int(np.count_nonzero(fam == code)) for code, name in enumerate(FAMILY_CODES)}

    drift_by_family: dict[str, dict] = {}
    max_drift = None
    if drift is not None:
        valid = ~np.isnan(drift)
        if np.any(valid):
            max_drift = float(np.nanmax(drift))
            for code, name in enumerate(FAMILY_CODES):
                mask = valid & (fam == code)
                if np.any(mask):
                    drift_by_family[name] = _drift_stats(drift[mask])

    return NeighborhoodReport(
        source=source,
        delta=float(delta),
        samples=int(samples),
        seed=int(seed),
        histogram=histogram,
        spectrum_drift=drift_by_family,
        max_spectrum_drift=max_drift,
    )
