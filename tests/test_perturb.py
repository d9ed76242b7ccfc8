import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starcong import (
    ArrowExists,
    DeltaTau,
    Hyperbolic,
    InvalidInput,
    NoArrow,
    UnitDirectZero,
    UnitPair,
    Zero,
    classify,
    format_form,
    forms_close,
    no_arrow_certificate,
    reachable,
    realize,
    sample_neighborhood,
    witness,
)
from starcong.jsonutil import render_json
from starcong.rng import SplitMix64

GOLDEN_WITNESSES = Path(__file__).resolve().parent / "data" / "golden_witnesses.jsonl"


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def _exact(A):
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(A, dtype=complex).tolist()]


def _mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _dot(p, q, r, s):
    a, b = _mul(p, q), _mul(r, s)
    return a[0] + b[0], a[1] + b[1]


def assert_exact_witness(src, dst, delta, w):
    """In rational arithmetic on the float entries of w.S and the two
    representatives: E' = S* N S - M has ||E'||_F <= delta (1 + 1e-12) and
    det S != 0, so realize(src) + E' lies in the class of dst."""
    S, N, M = _exact(w.S), _exact(realize(dst)), _exact(realize(src))
    NS = [[_dot(N[i][0], S[0][j], N[i][1], S[1][j]) for j in range(2)] for i in range(2)]
    Sh = [[(S[j][i][0], -S[j][i][1]) for j in range(2)] for i in range(2)]
    sq = Fraction(0)
    for i in range(2):
        for j in range(2):
            re, im = _dot(Sh[i][0], NS[0][j], Sh[i][1], NS[1][j])
            sq += (re - M[i][j][0]) ** 2 + (im - M[i][j][1]) ** 2
    assert sq <= Fraction(delta * (1 + 1e-12)) ** 2, (src, dst, delta)
    assert _mul(S[0][0], S[1][1]) != _mul(S[0][1], S[1][0]), (src, dst, delta)


# --- witnesses ---------------------------------------------------------------


def test_witness_from_zero_exact_form():
    w = witness(Zero(), Hyperbolic(0.5), 1e-3)
    R = np.array([[0, 1], [0.5, 0]])
    np.testing.assert_allclose(w.E, (1e-3 / np.sqrt(1.25)) * R, rtol=1e-12)
    assert w.norm_E == pytest.approx(1e-3)


def test_witness_udz_to_nilpotent():
    w = witness(UnitDirectZero(1), Hyperbolic(0), 1e-4)
    perturbed = realize(UnitDirectZero(1)) + w.E
    assert classify(perturbed).form == Hyperbolic(0)
    # construction shape: only the first row is touched
    assert w.E[0, 0] == 0
    assert abs(w.E[1, 0]) == 0 and abs(w.E[1, 1]) == 0


def test_witness_udz_to_pair_zeroes_corner():
    target = UnitPair(unit(np.pi / 4), unit(-np.pi / 4))
    w = witness(UnitDirectZero(1), target, 1e-4)
    assert w.E[0, 0] == 0
    assert w.norm_E <= 1e-4


def test_witness_no_arrow_certificate_attached():
    with pytest.raises(NoArrow) as info:
        witness(UnitDirectZero(1), DeltaTau(1j), 1e-3)
    cert = info.value.certificate
    assert cert.kind == "HalfPlaneMargin"
    assert cert.margin == pytest.approx(1.0)


def test_witness_rejects_bad_delta():
    for bad in (0.0, -1e-3, float("nan")):
        with pytest.raises(InvalidInput):
            witness(Zero(), DeltaTau(1), bad)
    with pytest.raises(InvalidInput):
        witness(Zero(), DeltaTau(1), 0.5)
    with pytest.raises(InvalidInput):
        witness(DeltaTau(1), DeltaTau(1), 1e-3)


ARROW_CASES = [
    (Zero(), UnitDirectZero(unit(0.3))),
    (Zero(), UnitPair(unit(0.2), unit(1.5))),
    (Zero(), Hyperbolic(0.4 - 0.3j)),
    (Zero(), Hyperbolic(0)),
    (Zero(), DeltaTau(unit(2.4))),
    (UnitDirectZero(unit(0.5)), UnitPair(unit(0.1), unit(1.0))),
    (UnitDirectZero(unit(0.5)), UnitPair(unit(0.5), unit(0.5))),      # cone corner a=1,b=0
    (UnitDirectZero(unit(0.5)), UnitPair(unit(0.5), -unit(0.5))),     # antipodal target
    (UnitDirectZero(unit(0.5)), Hyperbolic(0.3 + 0.4j)),
    (UnitDirectZero(unit(0.5)), Hyperbolic(0)),
    (UnitDirectZero(unit(0.5)), DeltaTau(unit(0.2))),                 # interior half-plane
    (UnitDirectZero(unit(0.5)), DeltaTau(unit(0.5))),                 # boundary Im = 0
    (UnitDirectZero(unit(0.5)), DeltaTau(-unit(0.5))),                # boundary, other sign
    (UnitPair(unit(1.2), -unit(1.2)), DeltaTau(unit(1.2))),
    (UnitPair(unit(1.2), -unit(1.2)), DeltaTau(-unit(1.2))),
    # targets 2e-10..9e-10 off +-m: E absorbs tau -+ m
    *((UnitPair(unit(1.2), -unit(1.2)), DeltaTau(sign * unit(1.2 + eps)))
      for eps in (2e-10, 5e-10, 9e-10) for sign in (1, -1)),
]


@pytest.mark.parametrize("src,dst", ARROW_CASES)
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_witness_soundness(src, dst, delta):
    w = witness(src, dst, delta)
    assert w.norm_E <= delta * (1 + 1e-12)
    # witness() certifies the congruence under a rounding bound; re-check it
    # exactly, and check that E is S* realize(dst) S - realize(src) in floats
    assert_exact_witness(src, dst, delta, w)
    lhs = w.S.conj().T @ realize(dst) @ w.S
    rhs = realize(src) + w.E
    denom = max(np.linalg.norm(rhs), np.linalg.norm(w.E))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(denom, 1.0)


#: Every delta = 10^-k with k up to this, per source family, was served when
#: witnesses were checked by re-classifying source + E, and is served still.
SERVED_K = {Zero: 300, UnitDirectZero: 8, UnitPair: 8}


@pytest.mark.parametrize("src,dst", ARROW_CASES)
def test_witness_tiny_delta_refuses_cleanly(src, dst):
    # down to delta = 1e-300 a witness is built or refused with a StarcongError,
    # never an arithmetic error from a norm squared below the smallest float
    from starcong import StarcongError

    for k in range(1, 301):
        try:
            w = witness(src, dst, 10.0**-k)
        except StarcongError:
            assert k > SERVED_K[type(src)], (src, dst, k)
            continue
        assert w.norm_E <= 10.0**-k * (1 + 1e-12)
        assert_exact_witness(src, dst, 10.0**-k, w)


def test_witness_uses_the_one_budget_rule():
    # E is accepted at ||E|| <= delta (1 + 1e-12), so a one-ulp overshoot of
    # delta does not halve the construction scale
    w = witness(UnitDirectZero(0.95689030748216164 - 0.2904495471621435j), Hyperbolic(0), 1e-4)
    assert w.norm_E == pytest.approx(1e-4, rel=1e-12)


def _grid_form(rng: SplitMix64):
    # parameters on a grid of 12 angles, so corner, boundary and pair(l, -l)
    # -> delta(+-l) arrows come up as often as generic ones
    kind = int(rng.uniform() * 5)
    t1, t2 = (unit(np.pi * int(rng.uniform() * 12) / 6) for _ in range(2))
    if kind == 0:
        return Zero()
    if kind == 1:
        return UnitDirectZero(t1)
    if kind == 2:
        return UnitPair(t1, -t1) if rng.uniform() < 0.5 else UnitPair(t1, t2)
    if kind == 3:
        return Hyperbolic(0.9 * rng.uniform() * t1 if rng.uniform() < 0.75 else 0)
    return DeltaTau(t1)


def test_witness_exact_on_a_seeded_arrow_sweep():
    # every arrow drawn is answered at every delta served, and exactly sound
    rng = SplitMix64(2024)
    families = set()
    for _ in range(600):
        src, dst = _grid_form(rng), _grid_form(rng)
        if src == dst or not reachable(src, dst):
            continue
        families.add((type(src), type(dst)))
        for delta in (1e-2, 1e-5, 1e-8):
            assert_exact_witness(src, dst, delta, witness(src, dst, delta))
    assert families == {(Zero, t) for t in (UnitDirectZero, UnitPair, Hyperbolic, DeltaTau)} | {
        (UnitDirectZero, t) for t in (UnitPair, Hyperbolic, DeltaTau)} | {(UnitPair, DeltaTau)}


def _golden_line(src, dst, delta):
    w = witness(src, dst, delta)
    return json.dumps({"source": format_form(src), "target": format_form(dst), "delta": delta,
                       "witness": w.to_json_dict()})


def test_witness_golden_bytes():
    # the accepted construction scale, and so E, S and ||E||, are pinned
    lines = [_golden_line(src, dst, delta) for src, dst in ARROW_CASES for delta in (1e-2, 1e-4, 1e-6)]
    assert lines == GOLDEN_WITNESSES.read_text().splitlines()


def test_witness_verifies_class_membership():
    # spot-check the classification outcome outside witness() itself
    src, dst = UnitDirectZero(unit(0.5)), DeltaTau(unit(0.5))
    w = witness(src, dst, 1e-4)
    perturbed = realize(src) + w.E
    drel = abs(np.linalg.det(perturbed)) / np.linalg.norm(perturbed) ** 2
    got = classify(perturbed, tol=min(1e-9, drel / 100)).form
    assert forms_close(got, dst, 1e-6)


def test_witness_refinement_check_examples():
    # arbitrarily small perturbations: a witness exists at every delta
    for src, dst in ((UnitPair(1, -1), DeltaTau(1)), (Zero(), UnitPair(1j, -1j)),
                     (UnitDirectZero(1), DeltaTau(1))):
        for delta in (1e-2, 1e-4, 1e-6):
            assert witness(src, dst, delta).norm_E <= delta * (1 + 1e-12)


# --- certificates ------------------------------------------------------------


def test_certificate_spec_examples():
    c = no_arrow_certificate(UnitPair(1, 1), Hyperbolic(0.3))
    assert c.kind == "SpectrumGap"
    assert c.margin == pytest.approx(7 / 3)

    c = no_arrow_certificate(UnitPair(1, 1), DeltaTau(1j))
    assert c.kind == "HermitianRankGap"
    assert c.margin == 1.0

    c = no_arrow_certificate(UnitDirectZero(1), UnitPair(1j, 1j))
    assert c.kind == "ConeMargin"
    assert c.margin == pytest.approx(1.0)

    c = no_arrow_certificate(Hyperbolic(0.1), Hyperbolic(0.2))
    assert c.kind == "CodimMonotonicity"

    c = no_arrow_certificate(UnitDirectZero(1), DeltaTau(1j))
    assert c.kind == "HalfPlaneMargin"
    assert c.margin == pytest.approx(1.0)

    c = no_arrow_certificate(UnitPair(1, -1), DeltaTau(1j))
    assert c.kind == "DetPhaseGap"
    assert c.margin == pytest.approx(2.0)


def test_certificate_det_vanishing_target():
    # antipodal/equal pairs cannot reach the singular nilpotent class; the
    # protected invariant is the determinant magnitude
    c = no_arrow_certificate(UnitPair(1j, 1j), Hyperbolic(0))
    assert c.kind == "DetPhaseGap"
    assert c.margin == pytest.approx(0.5)
    c = no_arrow_certificate(UnitPair(unit(0.4), -unit(0.4)), Hyperbolic(0))
    assert c.kind == "DetPhaseGap"


def test_cosquare_spectrum_closed_form():
    # the spectrum read from the parameters is the one classify_many computes
    # from the exact representative; the singular forms have none
    from starcong.canonical import classify_many
    from starcong.perturb import _cosquare_spectrum

    forms = [UnitPair(1, 1j), UnitPair(1, 1), UnitPair(1, -1), UnitPair(unit(0.7), unit(2.1)),
             Hyperbolic(0.3), Hyperbolic(0.2 - 0.6j), Hyperbolic(0.05j), DeltaTau(1), DeltaTau(1j)]
    res = classify_many(np.array([realize(f) for f in forms]))
    for form, p, q in zip(forms, res["p"], res["q"]):
        a, b = _cosquare_spectrum(form)
        assert min(max(abs(p - a), abs(q - b)), max(abs(p - b), abs(q - a))) <= 1e-15, form
    for form in (Zero(), UnitDirectZero(1j), Hyperbolic(0)):
        assert _cosquare_spectrum(form) is None


@pytest.mark.parametrize("sigma", [1e-12, 1e-13, 1e-13j, 1e-200 * unit(1.0)])
def test_certificate_tiny_hyperbolic_target(sigma):
    # hyp(sigma) with 0 < |sigma| <= 1e-12 is nonsingular: its cosquare
    # spectrum {1/conj(sigma), sigma} lies about 1/|sigma| from {m^2}
    for src in (UnitPair(1, 1), UnitPair(1, -1), UnitPair(1j, 1j)):
        cert = no_arrow_certificate(src, Hyperbolic(sigma))
        assert cert.kind == "SpectrumGap"
        assert cert.margin == pytest.approx(1 / abs(sigma), rel=1e-9)
    rep = sample_neighborhood(Hyperbolic(sigma), 1e-3, 200, seed=1)
    assert rep.max_spectrum_drift > 0


def test_certificate_errors():
    with pytest.raises(ArrowExists):
        no_arrow_certificate(Zero(), DeltaTau(1))
    with pytest.raises(InvalidInput):
        no_arrow_certificate(DeltaTau(1), DeltaTau(1))


@pytest.mark.parametrize("k", range(10, 17))
def test_certificate_near_degenerate_pair_sources(k):
    # targets 10^-k off the source's class: the cosquare spectra differ by a
    # gap below the 1e-12 floors of SpectrumGap and DetPhaseGap (at k = 16
    # the computed gap can be 0), which still proves the non-arrow since the
    # spectrum is constant on the target class
    eps = 10.0**-k
    for j in range(40):
        m = unit(2 * np.pi * j / 40)
        targets = [UnitPair(m, m * unit(eps)), UnitPair(m, -m * unit(eps))]
        if abs((1 - eps) * m * m) < 1.0:
            targets.append(Hyperbolic((1 - eps) * m * m))
        for src in (UnitPair(m, m), UnitPair(m, -m)):
            for dst in targets:
                if dst == src:
                    continue
                cert = no_arrow_certificate(src, dst)
                assert cert.kind in ("SpectrumGap", "DetPhaseGap"), (src, dst, cert)
                assert cert.margin > 0, (src, dst)


def random_form(rng: SplitMix64):
    kind = int(rng.uniform() * 5)
    t1 = 2 * np.pi * rng.uniform()
    t2 = 2 * np.pi * rng.uniform()
    if kind == 0:
        return Zero()
    if kind == 1:
        return UnitDirectZero(unit(t1))
    if kind == 2:
        choice = rng.uniform()
        if choice < 0.25:
            return UnitPair(unit(t1), unit(t1))
        if choice < 0.5:
            return UnitPair(unit(t1), -unit(t1))
        return UnitPair(unit(t1), unit(t2))
    if kind == 3:
        return Hyperbolic(0.9 * rng.uniform() * unit(t1))
    return DeltaTau(unit(t1))


def test_reachable_xor_certificate_random():
    rng = SplitMix64(99)
    for _ in range(500):
        a, b = random_form(rng), random_form(rng)
        if a == b:
            continue
        if reachable(a, b):
            with pytest.raises(ArrowExists):
                no_arrow_certificate(a, b)
        else:
            cert = no_arrow_certificate(a, b)
            assert cert.margin > 0
            assert cert.kind in (
                "CodimMonotonicity", "SpectrumGap", "ConeMargin",
                "HalfPlaneMargin", "DetPhaseGap", "HermitianRankGap")


def test_certificate_soundness_empirical():
    # a certificate with margin m promises no samples of the target class
    # (parameters within m/10) appear in a small ball around the source
    from starcong import AmbiguousClassification
    from starcong.perturb import _ball_sample

    cases = [
        (UnitPair(1, 1), Hyperbolic(0.3)),
        (UnitPair(1, -1), DeltaTau(1j)),
        (UnitDirectZero(1), DeltaTau(1j)),
    ]
    for src, dst in cases:
        cert = no_arrow_certificate(src, dst)
        delta = min(cert.margin / 10.0, 1e-3)
        R = realize(src)
        for E in _ball_sample(17, 2000, delta):
            try:
                got = classify(R + E).form
            except AmbiguousClassification:
                continue
            assert not forms_close(got, dst, cert.margin / 10.0), (src, dst, got)


# --- neighborhood sampling ----------------------------------------------------


def test_sample_neighborhood_pair_stays_pair():
    rep = sample_neighborhood(UnitPair(1, 1), 1e-3, 10_000, seed=0)
    assert rep.histogram["pair"] == 10_000
    assert rep.max_spectrum_drift <= 0.1
    assert sum(rep.histogram.values()) == rep.samples


def test_sample_neighborhood_zero_sees_generic_families():
    rep = sample_neighborhood(Zero(), 1e-3, 10_000, seed=1)
    rare = rep.samples - rep.histogram["pair"] - rep.histogram["hyp"] - rep.histogram["delta"]
    assert rare < 0.01 * rep.samples
    assert rep.max_spectrum_drift is None  # no reference spectrum at zero


def test_sample_neighborhood_spectrum_drift_shrinks():
    lam = unit(0.8)
    coarse = sample_neighborhood(UnitPair(lam, -lam), 1e-3, 5000, seed=3)
    fine = sample_neighborhood(UnitPair(lam, -lam), 1e-4, 5000, seed=3)
    assert coarse.max_spectrum_drift / fine.max_spectrum_drift >= 5.0


def test_sample_neighborhood_deterministic():
    a = sample_neighborhood(DeltaTau(1), 1e-3, 3000, seed=11)
    b = sample_neighborhood(DeltaTau(1), 1e-3, 3000, seed=11)
    assert render_json(a.to_json_dict()) == render_json(b.to_json_dict())
    c = sample_neighborhood(DeltaTau(1), 1e-3, 3000, seed=12)
    assert render_json(a.to_json_dict()) != render_json(c.to_json_dict())


def test_sample_neighborhood_validates():
    with pytest.raises(InvalidInput):
        sample_neighborhood(Zero(), 0.0, 10, seed=0)
    with pytest.raises(InvalidInput):
        sample_neighborhood(Zero(), 0.2, 10, seed=0)
    with pytest.raises(InvalidInput):
        sample_neighborhood(Zero(), 1e-3, 10**7 + 1, seed=0)


def test_ball_sample_uniform_moments():
    # uniform in the unit ball of R^8: E||E|| = 8/9, E|E_ij|^2 = 1/5, E E_ij = 0
    from starcong.perturb import _ball_sample

    n = 100_000
    E = _ball_sample(5, n, 1.0)
    norms = np.sqrt(np.sum(np.abs(E) ** 2, axis=(1, 2)))
    assert np.all(norms <= 1.0)
    assert abs(norms.mean() - 8.0 / 9.0) <= 5.0 * norms.std() / np.sqrt(n)
    sq = np.abs(E.reshape(n, 4)) ** 2
    assert np.all(np.abs(sq.mean(axis=0) - 0.2) <= 5.0 * sq.std(axis=0) / np.sqrt(n))
    parts = np.concatenate([E.reshape(n, 4).real, E.reshape(n, 4).imag], axis=1)
    assert np.all(np.abs(parts.mean(axis=0)) <= 5.0 * parts.std(axis=0) / np.sqrt(n))


def test_ball_sample_matches_scalar_stream():
    # sample i: 4 sorted uniforms give the squared moduli as spacings, then one
    # disk-rejection phase per entry, all from sub-stream i
    import math

    from starcong.perturb import _ball_sample
    from starcong.rng import substream_seed

    delta = 1e-3
    E = _ball_sample(9, 40, delta)
    for i in range(40):
        rng = SplitMix64(substream_seed(9, i))
        u = sorted(rng.uniform() for _ in range(4))
        weights = [b - a for a, b in zip([0.0] + u, u)]
        for k, w in enumerate(weights):
            while True:
                x = 2.0 * rng.uniform() - 1.0
                y = 2.0 * rng.uniform() - 1.0
                r2 = x * x + y * y
                if 0.0 < r2 <= 1.0:
                    break
            scale = math.sqrt(w) / math.sqrt(r2)
            assert E[i, k // 2, k % 2] == complex(delta * (x * scale), delta * (y * scale))


def test_ball_sample_prefix_and_offset():
    from starcong.perturb import _ball_sample

    E = _ball_sample(21, 500, 1e-3)
    assert np.array_equal(_ball_sample(21, 123, 1e-3), E[:123])
    assert np.array_equal(_ball_sample(21, 77, 1e-3, 123), E[123:200])


def test_sample_neighborhood_chunk_invariant(monkeypatch):
    from starcong import perturb

    n = 400
    for source in (UnitDirectZero(1), UnitPair(1, -1)):
        reports = set()
        for chunk in (1, 7, 2**14, n):
            monkeypatch.setattr(perturb, "SAMPLE_CHUNK", chunk)
            rep = sample_neighborhood(source, 1e-2, n, seed=4)
            reports.add(render_json(rep.to_json_dict()))
        assert len(reports) == 1


def test_near_degenerate_cone_corner():
    # generators that are antipodal only up to 1e-10: the cone predicate
    # collapses them to a line, certificate margins stay consistent with it,
    # and the witness either succeeds or refuses honestly (the target class
    # sits below the parameter resolution of double precision)
    from starcong import StarcongError

    lam = unit(0.5)
    mu = unit(0.5)
    nu = -unit(0.5) * unit(1e-10)
    target = UnitPair(mu, nu)
    assert reachable(UnitDirectZero(lam), target)
    try:
        w = witness(UnitDirectZero(lam), target, 1e-4)
        assert w.norm_E <= 1e-4
    except StarcongError:
        pass

    off = UnitDirectZero(unit(0.5 + 0.4))  # off the collapsed line
    assert not reachable(off, target)
    cert = no_arrow_certificate(off, target)
    assert cert.kind == "ConeMargin" and cert.margin > 0


def test_boundary_bucket_via_classify_many():
    from starcong.canonical import FAMILY_CODES, classify_many

    # relative determinant right at the tolerance: goes to 'boundary'
    stack = np.array([np.diag([1.0, 1.2e-9]), np.diag([1.0, 1.0])], dtype=complex)
    res = classify_many(stack)
    assert FAMILY_CODES[res["family"][0]] == "boundary"
    assert FAMILY_CODES[res["family"][1]] == "pair"
