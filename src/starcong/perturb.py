"""Perturbation witnesses, obstruction certificates, neighborhood sampling.

For every arrow of the closure order, :func:`witness` builds an explicit
perturbation E with ||E||_F <= delta such that realize(source) + E lies in
the target class, together with the *congruence S carrying realize(target)
onto it.  For every non-arrow, :func:`no_arrow_certificate` returns a named
invariant with a positive margin proving the arrow cannot exist.

:func:`sample_neighborhood` probes the defining property empirically: it
classifies a deterministic Monte Carlo sample of the Frobenius delta-ball
around a class representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import FAMILY_CODES, classify, classify_many
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
    forms_close,
    realize,
)
from .linalg import det2, frob
from .rng import substream_seeds, uniform_step
from .stratify import codimension

#: Parameter agreement required when verifying a witness by classification.
WITNESS_PARAM_TOL = 1e-6

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
    """Perturbation E with ||E||_F <= delta moving ``source`` into class ``target``.

    The construction is deterministic.  Raises NoArrow (carrying an
    obstruction certificate) when the move is impossible.
    """
    _check_delta(delta)
    if source == target:
        raise InvalidInput("source and target must differ (the lazy path needs no witness)")
    if not reachable(source, target):
        cert = no_arrow_certificate(source, target)
        raise NoArrow(
            f"no arrow {format_form(source)} -> {format_form(target)}: "
            f"{cert.kind} margin {cert.margin:.6g}",
            cert,
        )

    if isinstance(source, Zero):
        E, S = _witness_from_zero(target, delta)
    elif isinstance(source, UnitDirectZero) and isinstance(target, UnitPair):
        E, S = _witness_udz_pair(source, target, delta)
    elif isinstance(source, UnitDirectZero) and isinstance(target, Hyperbolic):
        E, S = _witness_udz_hyp(source, target, delta)
    elif isinstance(source, UnitDirectZero) and isinstance(target, DeltaTau):
        E, S = _witness_udz_delta(source, target, delta)
    elif isinstance(source, UnitPair) and isinstance(target, DeltaTau):
        E, S = _witness_pair_delta(source, target, delta)
    else:  # pragma: no cover - reachable() already excludes everything else
        raise InvalidInput(f"unsupported arrow {format_form(source)} -> {format_form(target)}")

    _verify_witness(source, target, E, S, delta)
    return Witness(E=E, S=S, norm_E=frob(E))


def _verify_witness(source, target, E, S, delta):
    norm_e = frob(E)
    if norm_e > delta * (1.0 + 1e-12):
        raise StarcongError(f"witness construction exceeded budget: {norm_e} > {delta}")
    perturbed = realize(source) + E
    carried = S.conj().T @ realize(target) @ S
    if frob(carried - perturbed) > 1e-10 * max(frob(perturbed), 1.0):
        raise StarcongError("witness congruence identity failed")
    tol = 1e-9
    if _cosquare_spectrum(target) is not None:
        # nearly singular matrices in a nonsingular class: let the rank test
        # see the actual determinant scale
        drel = abs(det2(perturbed)) / frob(perturbed) ** 2
        tol = min(1e-9, max(1e-15, drel / 100.0))
    got = classify(perturbed, tol).form
    if not forms_close(got, target, WITNESS_PARAM_TOL):
        raise StarcongError(
            f"witness verification failed: classified {format_form(got)}, "
            f"wanted {format_form(target)}")


def _witness_from_zero(target, delta):
    R = realize(target)
    scale = delta / frob(R)
    E = scale * R
    S = math.sqrt(scale) * np.eye(2, dtype=np.complex128)
    return E, S


def _shrink(build, delta, start=1.0):
    """Halve the construction scale until the perturbation fits the budget."""
    f = start
    for _ in range(200):
        E, S = build(f)
        if frob(E) <= delta:
            return E, S
        f /= 2.0
    raise StarcongError("perturbation did not shrink below the budget")


def _clamp_corner(E):
    # the first construction equation makes E[0,0] vanish; clear the rounding
    # residue, but keep any genuine mismatch from a tolerance-side boundary
    if abs(E[0, 0]) <= 1e-12:
        E[0, 0] = 0.0
    return E


def _witness_udz_pair(source, target, delta):
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
    R = realize(target)
    M = realize(source)
    x, z = math.sqrt(a), math.sqrt(b)

    def build(f):
        eta = f
        # keep S nonsingular: the small column avoids the vanishing sqrt
        y, t = (0.0, eta) if a > 0.0 else (eta, 0.0)
        S = np.array([[x, y], [z, t]], dtype=np.complex128)
        E = _clamp_corner(S.conj().T @ R @ S - M)
        return E, S

    return _shrink(build, delta, start=min(0.5, delta))


def _witness_udz_hyp(source, target, delta):
    lam, sigma = source.lam, target.sigma
    alpha, beta = sigma.real, sigma.imag
    det = alpha * alpha + beta * beta - 1.0  # nonzero since |sigma| < 1
    u = ((alpha - 1.0) * lam.real + beta * lam.imag) / det
    v = (-beta * lam.real + (1.0 + alpha) * lam.imag) / det
    w = complex(u, v)  # conj(z) x with z = 1
    R = realize(target)
    M = realize(source)

    def build(f):
        S = np.array([[w, 0.0], [1.0, f]], dtype=np.complex128)
        E = _clamp_corner(S.conj().T @ R @ S - M)
        return E, S

    return _shrink(build, delta, start=min(0.5, delta))


def _witness_udz_delta(source, target, delta):
    lam, tau = source.lam, target.tau
    c = np.conj(tau) * lam
    im_c = max(c.imag, 0.0)  # reachable() guarantees >= -GEOM_TOL
    R = realize(target)
    M = realize(source)

    def build(f):
        eta = 0.4 * delta * f
        rho = 0.15 * delta * f
        z = math.sqrt(max(im_c, eta))
        x = complex(c.real / (2.0 * z), 0.0)
        if abs(x) < 0.5:
            # padding the imaginary part keeps S well conditioned; the first
            # construction equation only constrains Re(conj(z) x)
            x += 0.5j
        t = rho / abs(x)
        S = np.array([[x, 0.0], [z, t]], dtype=np.complex128)
        E = S.conj().T @ R @ S - M
        return E, S

    return _shrink(build, delta)


def _witness_pair_delta(source, target, delta):
    lam = source.mu
    sign = 1.0 if abs(target.tau - lam) <= abs(target.tau + lam) else -1.0
    R = realize(target)
    M = realize(source)
    s0_inv = np.array([[0.5, 0.5], [1.0, -1.0]], dtype=np.complex128)
    d1 = np.diag([1.0, -1.0]).astype(np.complex128)

    def build(f):
        eps = 0.45 * delta * f
        E = sign * 1j * eps * lam * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128)
        sd_inv = np.diag([1.0 / math.sqrt(eps), math.sqrt(eps)]).astype(np.complex128)
        S = sd_inv @ s0_inv if sign > 0 else sd_inv @ d1 @ s0_inv
        return E, S

    return _shrink(build, delta)


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
    return ObstructionCertificate("SpectrumGap", margin=gap, data={
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
        gap = -(source.lam * np.conj(target.tau)).imag
        if gap > 0.0:
            return ObstructionCertificate(
                "HalfPlaneMargin", margin=float(gap),
                data={"im_lambda_conj_tau": float(-gap)})

    det_m, det_n = det2(realize(source)), det2(realize(target))
    if abs(det_m) > 0.0:
        if abs(det_n) == 0.0:
            margin = abs(det_m) / frob(realize(source)) ** 2
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
