"""Perturbation witnesses, obstruction certificates, neighborhood sampling.

For every arrow of the closure order, :func:`witness` builds a *congruence S
and from it E = S* realize(target) S - realize(source), certified by a rounding
bound to fit ||E||_F <= delta (1 + 1e-12), so realize(source) + E lies in the
target class.  For every non-arrow, :func:`no_arrow_certificate` returns a
named invariant with a positive margin proving the arrow cannot exist; it
decides the arrow itself, with the predicate :func:`closure.reachable` uses,
and keeps the numbers it refused on, which are formatted only when the
certificate is rendered.

:func:`sample_neighborhood` probes the defining property empirically: it
classifies a deterministic Monte Carlo sample of the Frobenius delta-ball
around a class representative.  Only the sampler loads ``rng``, so witnesses
and certificates never import it.
"""

from __future__ import annotations

import math
import sys

from .closure import _cone_coefficients, _cone_distance, _im_lam_conj_tau, _in_sector, _on_line, _on_ray, reachable
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
    _entries,
    _Record,
    format_complex,
    format_form,
    realize,
)
from .linalg import EPS, _norm4
from .stratify import codimension

_G, _TINY = 5.0 * EPS, sys.float_info.min * (16.0 * EPS)  # g = 10u and tiny, u = EPS / 2, of _residual's bound

CERTIFICATE_KINDS = (
    "CodimMonotonicity",
    "SpectrumGap",
    "ConeMargin",
    "HalfPlaneMargin",
    "DetPhaseGap",
    "HermitianRankGap",
)


class Witness(_Record):
    """Congruence S and perturbation E = S* realize(target) S - realize(source),
    as computed in floats, with ||E||_F.

    ``E_entries`` and ``S_entries`` hold the entries (m00, m01, m10, m11) as
    Python complex, which the CLI formats.  The properties ``E`` and ``S``
    return them as complex128 (2, 2) arrays, built on each access; they are
    the only part of a witness that imports numpy.
    """

    __match_args__ = ("E_entries", "S_entries", "norm_E")

    def __init__(self, E_entries: tuple[complex, complex, complex, complex],
                 S_entries: tuple[complex, complex, complex, complex], norm_E: float):
        d = self.__dict__
        d["E_entries"], d["S_entries"], d["norm_E"] = E_entries, S_entries, norm_E
        d["_key"] = (E_entries, S_entries, norm_E)

    @property
    def E(self) -> np.ndarray:
        import numpy as np

        return np.array(self.E_entries, dtype=np.complex128).reshape(2, 2)

    @property
    def S(self) -> np.ndarray:
        import numpy as np

        return np.array(self.S_entries, dtype=np.complex128).reshape(2, 2)

    def to_json_dict(self) -> dict:
        E, S = ([format_complex(z) for z in m] for m in (self.E_entries, self.S_entries))
        return {"E": [E[:2], E[2:]], "norm_E": self.norm_E, "S": [S[:2], S[2:]]}


class ObstructionCertificate(_Record):
    """A named invariant refusing an arrow: its ``kind`` (one of
    CERTIFICATE_KINDS), a positive ``margin`` and the numbers behind it.

    ``data`` holds Python numbers as the certificate computed them: complex,
    float, int, or a tuple of complex (a cosquare spectrum).  ``to_json_dict``
    renders each complex value, alone or in a tuple, as a ``format_complex``
    string and leaves the others to the JSON renderer.
    """

    __match_args__ = ("kind", "margin", "data")

    def __init__(self, kind: str, margin: float, data: dict | None = None):
        if data is None:
            data = {}
        d = self.__dict__
        d["kind"], d["margin"], d["data"] = kind, margin, data
        d["_key"] = (kind, margin, data)

    def to_json_dict(self) -> dict:
        data = {k: format_complex(v) if isinstance(v, complex)
                else [format_complex(z) for z in v] if isinstance(v, tuple) else v for k, v in self.data.items()}
        return {"kind": self.kind, "margin": self.margin, "data": data}


class NeighborhoodReport(_Record):
    __match_args__ = ("source", "delta", "samples", "seed", "histogram", "spectrum_drift", "max_spectrum_drift")

    def __init__(self, source: CanonicalForm, delta: float, samples: int, seed: int, histogram: dict,
                 spectrum_drift: dict, max_spectrum_drift: float | None):
        d = self.__dict__
        d["source"], d["delta"], d["samples"], d["seed"] = source, delta, samples, seed
        d["histogram"], d["spectrum_drift"], d["max_spectrum_drift"] = histogram, spectrum_drift, max_spectrum_drift
        d["_key"] = (source, delta, samples, seed, histogram, spectrum_drift, max_spectrum_drift)

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

    The arrow's builder gives a congruence S at a closed-form construction
    scale, and E = S* realize(target) S - realize(source), so source + E is
    congruent to the target's representative.  E is built once (a udz
    source's residue |E[0,0]| <= 1e-12 is cleared, save where udz -> delta
    pads its scale), checked once against the budget, and a rounding bound
    certifies S and E; nothing is classified.  Deterministic.  Raises StarcongError naming the budget or
    bound that refuses, and NoArrow (carrying an obstruction certificate) when the move is impossible.
    """
    _check_delta(delta)
    if source == target:
        raise InvalidInput("source and target must differ (the lazy path needs no witness)")
    if not reachable(source, target):
        cert = no_arrow_certificate(source, target)
        raise NoArrow(f"no arrow {format_form(source)} -> {format_form(target)}: "
                      f"{cert.kind} margin {cert.margin:.6g}", cert)

    # reachable() leaves zero sources, udz -> pair, hyp, delta and pair(l, -l) -> delta(+-l)
    N, M = _entries(target), _entries(source)
    if isinstance(source, Zero):
        S = _congruence_from_zero(N, delta)
    elif isinstance(source, UnitPair):
        S = _congruence_pair_delta(source, target, delta)
    elif isinstance(target, UnitPair):
        S = _congruence_udz_pair(source, target, delta)
    elif isinstance(target, Hyperbolic):
        S = _congruence_udz_hyp(source, target, delta)
    else:
        S = _congruence_udz_delta(source, target, delta)

    E, bound = _residual(*S, *N, *M)
    # a udz source's builder makes E[0,0] exactly 0, so a residue is cleared, but udz -> delta
    # padding z^2 = 0.4 delta > c = Im(lam conj tau) leaves E[0,0] = i tau (0.4 delta - c)
    clear = isinstance(source, UnitDirectZero) and abs(E[0]) <= 1e-12 and not (isinstance(target, DeltaTau) and (
        _im_lam_conj_tau(source.lam.real, source.lam.imag, target.tau.real, target.tau.imag) < 0.4 * delta))
    kept = (0j, *E[1:]) if clear else E
    norm_e = _norm4(*kept)
    if norm_e > delta * (1.0 + 1e-12):
        raise StarcongError(f"perturbation ||E||_F {norm_e:.3e} exceeds delta {delta:.3e}")
    if bound * (1.0 + 4.0 * EPS) > delta * (1.0 + 1e-12):
        raise StarcongError(f"witness verification failed: rounding bound {bound:.3e} exceeds delta {delta:.3e}")
    if abs(S[0] * S[3] - S[1] * S[2]) <= _G * (abs(S[0] * S[3]) + abs(S[1] * S[2])) + _TINY:
        raise StarcongError("witness verification failed: det S is within its rounding bound of 0")
    return Witness(kept, (complex(S[0]), complex(S[1]), complex(S[2]), complex(S[3])), norm_e)


def _residual(s00, s01, s10, s11, n00, n01, n10, n11, m00, m01, m10, m11):
    """E = S* N S - M in floats from the rows of S* N, and b, ||E'||_F <= b (1 + 8u) for the exact E'."""
    # Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.) 3.1, 3.6: with u = 2^-53 complex
    # sums round by <= u, products by <= sqrt(2) gamma_2 = 2 sqrt(2) u / (1 - 2u).  A term conj(x_k) N_kl y_l
    # of an entry meets two products and two sums and M_ij one sum, so |E_ij - E'_ij| <= g (|x|^T |N| |y|
    # + |M_ij|), g = (1 + sqrt(2) gamma_2)^2 (1 + u)^3 - 1 = 8.66u + O(u^2) <= 10u, det S too.  Underflow
    # adds u 2^-1022 a real product, 5.7 u 2^-1022 (1 + |y_0| + |y_1|) an entry (tiny: 32 for 5.7); abs,
    # the sums and hypot add 7u (1 + 8u).  Entries sum as linalg._form sums, |x|^T |N| formed once per row.
    x0, x1, y0, y1 = s00.conjugate(), s10.conjugate(), s01.conjugate(), s11.conjugate()
    p0, p1, q0, q1 = x0 * n00 + x1 * n10, x0 * n01 + x1 * n11, y0 * n00 + y1 * n10, y0 * n01 + y1 * n11
    e00, e01 = p0 * s00 + p1 * s10 - m00, p0 * s01 + p1 * s11 - m01
    e10, e11 = q0 * s00 + q1 * s10 - m10, q0 * s01 + q1 * s11 - m11
    a00, a01, a10, a11 = abs(n00), abs(n01), abs(n10), abs(n11)
    x0, x1, y0, y1 = abs(s00), abs(s10), abs(s01), abs(s11)
    p0, p1, q0, q1 = x0 * a00 + x1 * a10, x0 * a01 + x1 * a11, y0 * a00 + y1 * a10, y0 * a01 + y1 * a11
    w0, w1 = _TINY * (1.0 + x0 + x1), _TINY * (1.0 + y0 + y1)
    return (e00, e01, e10, e11), math.hypot(abs(e00) + _G * (p0 * x0 + p1 * x1 + abs(m00)) + w0,
                                            abs(e01) + _G * (p0 * y0 + p1 * y1 + abs(m01)) + w1,
                                            abs(e10) + _G * (q0 * x0 + q1 * x1 + abs(m10)) + w0,
                                            abs(e11) + _G * (q0 * y0 + q1 * y1 + abs(m11)) + w1)


def _congruence_from_zero(N, delta):
    r = math.sqrt(delta / _norm4(*N))
    return r, 0.0, 0.0, r


def _congruence_udz_pair(source, target, delta):
    lam, mu, nu = source.lam, target.mu, target.nu
    # read the cone as reachable, which granted the arrow, reads it
    a, b, det = _cone_coefficients(lam.real, lam.imag, mu.real, mu.imag, nu.real, nu.imag)
    if not _in_sector(a, b, det):  # lam is on a generator's ray
        a, b = (1.0, 0.0) if _on_ray(lam.real, lam.imag, mu.real, mu.imag) else (0.0, 1.0)
    x, z = math.sqrt(a), math.sqrt(b)
    # keep S nonsingular: the small column (0, f), or (f, 0) when a = 0, avoids
    # the vanishing sqrt.  It adds E[0,1] = conj(z) nu f, E[1,0] = nu z f and
    # E[1,1] = nu f^2 (mu and x for nu and z when a = 0), so with |nu| = 1 and
    # f <= 1 its part of ||E|| is f sqrt(2 |z|^2 + f^2) <= f (2 |z| + 1) = delta / 4
    if a > 0.0:
        return x, 0.0, z, delta / (4.0 * (2.0 * z + 1.0))
    return x, delta / (4.0 * (2.0 * x + 1.0)), z, 0.0


def _congruence_udz_hyp(source, target, delta):
    lam, sigma, s = source.lam, target.sigma, abs(target.sigma)
    alpha, beta = sigma.real, sigma.imag
    det = (s - 1.0) * (s + 1.0)  # |sigma|^2 - 1, nonzero since s < 1, as Hyperbolic checks
    u = ((alpha - 1.0) * lam.real + beta * lam.imag) / det
    v = (-beta * lam.real + (1.0 + alpha) * lam.imag) / det
    w = complex(u, v)  # conj(z) x with z = 1
    # the column (0, f) adds E[0,1] = conj(w) f and E[1,0] = sigma w f, so with
    # |sigma| < 1 its part of ||E|| is f |w| sqrt(1 + |sigma|^2) < f (2 |w| + 1) = delta / 4
    return w, 0.0, 1.0, delta / (4.0 * (2.0 * abs(w) + 1.0))


def _congruence_udz_delta(source, target, delta):
    lam, tau = source.lam, target.tau
    c = tau.conjugate() * lam
    im_c = _im_lam_conj_tau(lam.real, lam.imag, tau.real, tau.imag)  # reachable() found it >= 0
    z = math.sqrt(max(im_c, 0.4 * delta))
    if z == 0.0:  # 0.4 delta underflows only at the smallest subnormal delta
        raise StarcongError(f"construction scale 0.4 delta underflows to 0 at delta {delta:.3e}")
    x = complex(c.real / (2.0 * z), 0.0)
    if abs(x) < 0.5:
        # padding the imaginary part keeps S well conditioned; the first
        # construction equation only constrains Re(conj(z) x)
        x += 0.5j
    return x, 0.0, z, 0.15 * delta / abs(x)


def _congruence_pair_delta(source, target, delta):
    # S* (tau Delta_2) S = sign tau diag(1, -1) + i tau r^2 [[1, -1], [-1, 1]],
    # and sign tau = l exactly, as reachable() found tau = +-l
    sign = 1.0 if target.tau == source.mu else -1.0
    r = math.sqrt(0.45 * delta)
    if r == 0.0:  # 0.45 delta underflows only at the smallest subnormal delta
        raise StarcongError(f"construction scale 0.45 delta underflows to 0 at delta {delta:.3e}")
    return 1.0 / (2.0 * r), 1.0 / (2.0 * r), sign * r, -sign * r


# --- obstruction certificates ---------------------------------------------------


def _cosquare_spectrum(form) -> tuple[complex, complex] | None:
    """Cosquare spectrum, a congruence invariant, read from the parameters:
    {mu^2, nu^2}, {1/conj(sigma), sigma} or {tau^2, tau^2}; None if singular.

    1/conj(sigma) has a part beyond half the largest float only for |sigma|
    below about 1.1e-308 (and overflows below 5.6e-309): its parts are clamped
    to +-half of it, so every point, and the distance between any two, is
    finite, and a distance from the clamped point is still a lower bound.
    """
    if isinstance(form, UnitPair):
        return form.mu * form.mu, form.nu * form.nu
    if isinstance(form, Hyperbolic) and form.sigma != 0:
        p = 1.0 / form.sigma.conjugate()
        return complex(_clamp(p.real), _clamp(p.imag)), form.sigma
    if isinstance(form, DeltaTau):
        return form.tau * form.tau, form.tau * form.tau
    return None


def _clamp(x: float) -> float:
    return max(-sys.float_info.max / 2.0, min(x, sys.float_info.max / 2.0))


def _spectral_spread(form) -> float:
    """|p - q| > 0 for the cosquare spectrum {mu^2, nu^2} or {sigma, 1/conj(sigma)}
    of a target with two distinct points, clamped as ``_cosquare_spectrum`` clamps."""
    if isinstance(form, UnitPair):
        return abs(form.mu - form.nu) * abs(form.mu + form.nu)
    s = abs(form.sigma)
    return _clamp((1.0 - s * s) / s)


def no_arrow_certificate(source: CanonicalForm, target: CanonicalForm) -> ObstructionCertificate:
    """First applicable obstruction proving there is no arrow source -> target.

    CodimMonotonicity comes first: every arrow of the closure order goes to a
    class of strictly lower codimension, so codim(source) <= codim(target)
    refuses the pair from the two table entries alone (most pairs of a vertex
    set), and a non-form is refused by ``codimension`` before it is compared
    or formatted.  Past that only zero, udz and pair(m, +-m) sources remain,
    and each branch decides its arrow once, with the predicate ``reachable``
    uses on the same stored doubles: it raises ArrowExists where that holds
    (zero -> anything and udz -> hyp always) and otherwise returns the
    certificate whose margin the refusing numbers give, positive by
    construction.  udz gives ConeMargin (-> pair; the distance to the cone,
    0.0 exactly where ``_in_cone`` holds) or HalfPlaneMargin (-> delta;
    -Im(lam conj(tau)) where that is negative).  pair(m, +-m) gives
    SpectrumGap (-> pair(mu, nu != +-mu) or hyp(sigma != 0)), DetPhaseGap (->
    hyp(0), or delta(t) with t != +-m', where m' = m for pair(m, -m), whose
    arrows go to delta(+-m) by ``_on_line``, and i m for pair(m, m)) or
    HermitianRankGap (pair(m, m) -> delta(+-i m)).
    """
    cm, cn = codimension(source), codimension(target)
    if source == target:
        raise InvalidInput("source and target must differ")
    if cm <= cn:
        return ObstructionCertificate(
            "CodimMonotonicity",
            margin=float(cn - cm + 1),
            data={"codim_source": cm, "codim_target": cn},
        )

    if isinstance(source, Zero):  # zero reaches every class
        raise _arrow_exists(source, target)
    if isinstance(source, UnitDirectZero):
        lam = source.lam
        if isinstance(target, UnitPair):
            margin = _cone_distance(lam, target.mu, target.nu)
            if margin > 0.0:
                return ObstructionCertificate("ConeMargin", margin=margin, data={"lambda": lam})
        elif isinstance(target, DeltaTau):
            im = _im_lam_conj_tau(lam.real, lam.imag, target.tau.real, target.tau.imag)
            if im < 0.0:
                return ObstructionCertificate("HalfPlaneMargin", margin=-im, data={"im_lambda_conj_tau": im})
        raise _arrow_exists(source, target)  # in the cone or half-plane, or a hyp target

    # pair(m, +-m) -> a class of codimension 2: a generic pair, hyp or delta
    if isinstance(target, UnitPair) or (isinstance(target, Hyperbolic) and target.sigma != 0):
        # the target's spectrum has two distinct points and is constant on its
        # class; the source's is the one point m^2, at least half the target's
        # spread from the farther of them, a bound rounding cannot close
        spec_m, spec_n = _cosquare_spectrum(source), _cosquare_spectrum(target)
        gap = max(abs(spec_m[0] - s) for s in spec_n)
        return ObstructionCertificate(
            "SpectrumGap", margin=max(gap, _spectral_spread(target) / 2.0),
            data={"spectrum_source": spec_m, "spectrum_target": spec_n})

    if isinstance(target, Hyperbolic):  # hyp(0), the singular target
        m = _entries(source)
        det_m = m[0] * m[3] - m[1] * m[2]
        return ObstructionCertificate(
            "DetPhaseGap", margin=abs(det_m) / _norm4(*m) ** 2, data={"det_source": det_m, "det_target": 0j})

    if isinstance(target, DeltaTau):
        tau, mu = target.tau, source.mu
        if source.antipodal and _on_line(tau.real, tau.imag, mu.real, mu.imag):
            raise _arrow_exists(source, target)
        # the det phases -t^2 of the target and -m'^2 of the source (its det is
        # +-m^2) differ by |t^2 - m'^2| = |t - m'| |t + m'|, positive exactly
        # when t != +-m'
        mp = mu if source.antipodal else 1j * mu
        margin = abs(tau - mp) * abs(tau + mp)
        if margin > 0.0:
            m, n = _entries(source), _entries(target)
            det_m, det_n = m[0] * m[3] - m[1] * m[2], n[0] * n[3] - n[1] * n[2]
            return ObstructionCertificate(
                "DetPhaseGap", margin=margin,
                data={"det_phase_source": det_m / abs(det_m), "det_phase_target": det_n / abs(det_n)})
        # pair(m, m) -> delta(+-i m): c = conj(m) t = +-i, so the Hermitian part
        # [[0, 2 Re c], [2 Re c, -2 Im c]] of c Delta_2 has rank 1, that of
        # conj(m) diag(m, m) rank 2
        return ObstructionCertificate(
            "HermitianRankGap", margin=1.0, data={"rank_source_sum": 2, "rank_target_sum": 1})

    raise CertificateNotFound(
        f"no obstruction certificate for {format_form(source)} -> {format_form(target)}")


def _arrow_exists(source: CanonicalForm, target: CanonicalForm) -> ArrowExists:
    return ArrowExists(f"{format_form(source)} -> {format_form(target)} is reachable")


# --- neighborhood sampling -------------------------------------------------------


#: Samples drawn and classified at a time by :func:`sample_neighborhood`.  It
#: bounds the working memory of a call; the report does not depend on it.
SAMPLE_CHUNK = 2**14


def _ball_sample(seed: int, samples: int, delta: float, centre, start: int = 0) -> np.ndarray:
    """Uniform draws from the Frobenius delta-ball around ``centre``, the entries
    (m00, m01, m10, m11) of a matrix, one sub-stream per sample.

    Sample i comes from sub-stream ``start + i`` of ``seed``, so the first k
    draws do not depend on ``samples``.  The four entries are the first four
    coordinates of a uniform point on the unit sphere of C^5, which are
    uniform in the unit ball of C^4 = R^8 (Voelker, Gosmann & Stewart 2017):
    the squared moduli are the first four spacings of four sorted uniforms
    (Dirichlet(1, ..., 1) weights), and each phase is a point of the unit
    disk found by rejection (acceptance pi/4), normalized.  Only + - * / and
    sqrt are used, so the draws are bit-reproducible across platforms.

    The work runs on whole-chunk arrays, one per coordinate: a five-comparator
    min/max network sorts the uniforms and three subtractions take the
    spacings, both exact.  Each entry's first disk draw covers the chunk;
    only the rejected samples (about 21.5%) are gathered, redrawn from their
    own sub-streams and scattered back, round after round, so a sample's
    draws are those a loop over its sub-stream alone would make.  Each entry
    is stored as centre + draw, the sum ``centre + E`` would form, so the
    (samples, 2, 2) stack returned is the perturbed matrices themselves.
    """
    import numpy as np

    from .rng import substream_seeds, uniform_step

    states = substream_seeds(seed, samples, start)
    u = []
    for _ in range(4):
        states, uk = uniform_step(states)
        u.append(uk)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        u[i], u[j] = np.minimum(u[i], u[j]), np.maximum(u[i], u[j])
    weights = (u[0], u[1] - u[0], u[2] - u[1], u[3] - u[2])

    A = np.empty((samples, 4), dtype=np.complex128)
    for k, (w, m) in enumerate(zip(weights, centre)):
        states, x, y, r2, rejected = _disk_draw(states)
        pending = np.flatnonzero(rejected)
        while pending.size:
            states[pending], x[pending], y[pending], r2[pending], rejected = _disk_draw(states[pending])
            pending = pending[rejected]
        # delta (x sqrt(w) / sqrt(r2)) + m, in place: a chunk's columns are too
        # small for numpy to reuse the temporaries itself
        scale = np.sqrt(w)
        scale /= np.sqrt(r2, out=r2)
        x *= scale
        x *= delta
        x += m.real
        y *= scale
        y *= delta
        y += m.imag
        A.real[:, k], A.imag[:, k] = x, y
    return A.reshape(samples, 2, 2)


def _disk_draw(states: np.ndarray) -> tuple:
    """One point (x, y) of the square [-1, 1)^2 per state: (new states, x, y,
    r2 = x^2 + y^2, rejected), a point being rejected unless 0 < r2 <= 1."""
    from .rng import uniform_step

    states, x = uniform_step(states)
    states, y = uniform_step(states)
    x *= 2.0  # 2u - 1, in place
    x -= 1.0
    y *= 2.0
    y -= 1.0
    r2 = x * x
    r2 += y * y
    return states, x, y, r2, ~((r2 > 0.0) & (r2 <= 1.0))


def _spectrum_drift(p: np.ndarray, q: np.ndarray, p0: complex, q0: complex) -> np.ndarray:
    """Hausdorff distance of each spectrum {p, q} from {p0, q0}; NaN where p is."""
    import numpy as np

    d_pp = np.abs(p - p0)
    d_qp = np.abs(q - p0)
    if p0 == q0:  # a one-point spectrum (pair(l, +-l), delta): the formula below reduces to this
        return np.maximum(d_pp, d_qp)
    d_pq = np.abs(p - q0)
    d_qq = np.abs(q - q0)
    fwd = np.maximum(np.minimum(d_pp, d_pq), np.minimum(d_qp, d_qq))
    bwd = np.maximum(np.minimum(d_pp, d_qp), np.minimum(d_pq, d_qq))
    return np.maximum(fwd, bwd)


def _drift_stats(values: np.ndarray) -> dict:
    import numpy as np

    with np.errstate(over="ignore"):
        mean = np.mean(values)
    if mean == np.inf:  # drifts near the largest float, from a clamped spectrum, overflow their sum
        mean = np.sum(values / values.size)
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(mean),
    }


def sample_neighborhood(
    source: CanonicalForm, delta: float, samples: int, seed: int = 0
) -> NeighborhoodReport:
    """Empirical class distribution in the delta-ball around realize(source).

    Samples are classified at family level, as ``classify_many`` classifies
    them; samples whose decision margin falls below the ambiguity cutoff land
    in a separate "boundary" bucket.  For nonsingular samples the Hausdorff
    drift of the cosquare spectrum from that of the source representative is
    aggregated per family.  Only a source with a spectrum (pair, hyp(sigma)
    with sigma != 0, delta) has its samples' cosquare roots formed, by
    ``classify_many``; around zero, udz and hyp(0) the samples go through its
    tree alone.  Samples are drawn and classified in chunks of SAMPLE_CHUNK,
    so memory stays bounded.  Deterministic per (seed, samples, version); the
    first k samples do not depend on n, the number of samples drawn.  ``seed``
    must lie in [0, 2^64).
    """
    import numpy as np

    from .canonical import FAMILY_CODES, _classify_stack, classify_many

    _check_delta(delta)
    if not 0 <= samples <= 10**7:
        raise InvalidInput("samples must lie in [0, 10^7]")
    if not 0 <= seed < 2**64:  # the generator reads the seed modulo 2^64
        raise InvalidInput("seed must lie in [0, 2^64)")
    centre = realize(source).ravel()
    fam = np.empty(samples, dtype=np.int8)
    # counted chunk by chunk: np.bincount copies an int8 array to intp, 80 MB at 10^7 samples
    counts = np.zeros(len(FAMILY_CODES), dtype=np.int64)
    spectrum = _cosquare_spectrum(source)
    drift = np.empty(samples) if spectrum is not None else None
    for lo in range(0, samples, SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, samples)
        # res keeps the chunk's family codes and margins, the last arrays its
        # classification makes, until the next chunk's replace them.  Freed at
        # once, they would leave the top of the heap free, malloc would return
        # it to the system, and the next chunk would fault it back in: about
        # 1300 page faults a chunk around udz(1), against a few
        A = _ball_sample(seed, hi - lo, delta, centre, lo)
        if drift is None:  # no spectrum to compare with: the families alone
            res = _classify_stack(A)[:2]
            codes = res[0]
        else:
            res = classify_many(A)
            codes = res["family"]
            drift[lo:hi] = _spectrum_drift(res["p"], res["q"], *spectrum)
        fam[lo:hi] = codes
        counts += np.bincount(codes, minlength=len(FAMILY_CODES))

    histogram = {name: int(count) for name, count in zip(FAMILY_CODES, counts)}

    drift_by_family: dict[str, dict] = {}
    max_drift = None
    if drift is not None:
        valid = ~np.isnan(drift)
        if valid.any():
            every = valid.all()
            max_drift = float(np.nanmax(drift))
            for code in np.flatnonzero(counts):
                mask = fam == code if every else valid & (fam == code)
                if every or mask.any():
                    drift_by_family[FAMILY_CODES[code]] = _drift_stats(drift[mask])

    return NeighborhoodReport(
        source=source,
        delta=float(delta),
        samples=int(samples),
        seed=int(seed),
        histogram=histogram,
        spectrum_drift=drift_by_family,
        max_spectrum_drift=max_drift,
    )
