import json
import re
import sys
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
    parse_form,
    reachable,
    realize,
    sample_neighborhood,
    witness,
)
from starcong import StarcongError, perturb
from starcong.forms import _entries
from starcong.jsonutil import render_json
from starcong.linalg import _form, _norm4
from starcong.rng import SplitMix64

GOLDEN_WITNESSES = Path(__file__).resolve().parent / "data" / "golden_witnesses.jsonl"
GOLDEN_SAMPLES = Path(__file__).resolve().parent / "data" / "golden_samples.jsonl"


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def _exact(A):
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(A, dtype=complex).tolist()]


def _mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _dot(p, q, r, s):
    a, b = _mul(p, q), _mul(r, s)
    return a[0] + b[0], a[1] + b[1]


#: Unit roundoff, and the factor and underflow term of witness's rounding bound.
U = sys.float_info.epsilon / 2.0
G, TINY = 10.0 * U, sys.float_info.min * (32.0 * U)


def entry_bounds(S, N, M):
    """Bound on |E_ij - E'_ij| for each entry of E = S* N S - M in floats, E' the exact value:
    g (|x|^T |N| |y| + |M_ij|) + tiny (1 + |y_0| + |y_1|) for the columns x, y of S."""
    cols = (abs(S[0]), abs(S[2])), (abs(S[1]), abs(S[3]))
    a = [abs(v) for v in N]
    return [G * (_form(*a, cols[i], cols[j]) + abs(M[2 * i + j])) + TINY * (1.0 + cols[j][0] + cols[j][1])
            for i in range(2) for j in range(2)]


def assert_exact_witness(src, dst, delta, w):
    """In rational arithmetic on the float entries of w.S and the two
    representatives: E' = S* N S - M has ||E'||_F <= delta (1 + 1e-12) and
    det S != 0, so realize(src) + E' lies in the class of dst.  Each returned
    entry of w.E lies within its rounding bound of the exact E' entry, so a
    corner returned as 0 is one whose exact E'[0,0] is within that bound of 0."""
    S, N, M = _exact(w.S), _exact(realize(dst)), _exact(realize(src))
    bounds = entry_bounds(w.S_entries, _entries(dst), _entries(src))
    NS = [[_dot(N[i][0], S[0][j], N[i][1], S[1][j]) for j in range(2)] for i in range(2)]
    Sh = [[(S[j][i][0], -S[j][i][1]) for j in range(2)] for i in range(2)]
    sq = Fraction(0)
    for i in range(2):
        for j in range(2):
            re, im = _dot(Sh[i][0], NS[0][j], Sh[i][1], NS[1][j])
            re, im = re - M[i][j][0], im - M[i][j][1]
            sq += re**2 + im**2
            e = w.E_entries[2 * i + j]
            off = (Fraction(e.real) - re) ** 2 + (Fraction(e.imag) - im) ** 2
            assert off <= Fraction(bounds[2 * i + j]) ** 2, (src, dst, delta, i, j, e, float(re), float(im))
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
    # the 2e-10..9e-10 angles of NEAR_PLUS_MINUS_M, with the source on the target's edge
    *((UnitPair(unit(1.2 + eps), -unit(1.2 + eps)), DeltaTau(sign * unit(1.2 + eps)))
      for eps in (2e-10, 5e-10, 9e-10) for sign in (1, -1)),
]

#: Targets 2e-10..9e-10 off +-m: no arrows, as tau != +-m for the stored doubles.
NEAR_PLUS_MINUS_M = [(UnitPair(unit(1.2), -unit(1.2)), DeltaTau(sign * unit(1.2 + eps)))
                     for eps in (2e-10, 5e-10, 9e-10) for sign in (1, -1)]


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


#: Every delta = 10^-k with k up to this, per source family, is served: 1e-8
#: was the floor when witnesses were checked by re-classifying source + E; a
#: udz source now reaches 1e-14, as each builder's scale keeps ||E|| below
#: delta with room for the rounding bound on E[0,0] (about 2e-15).
SERVED_K = {Zero: 300, UnitDirectZero: 14, UnitPair: 8}


@pytest.mark.parametrize("src,dst", ARROW_CASES)
def test_witness_tiny_delta_refuses_cleanly(src, dst):
    # down to delta = 1e-300, and at the subnormals 1e-310 and 5e-324, a witness
    # is built or refused with a StarcongError, never an arithmetic error from a
    # norm squared below the smallest float or a construction scale rounded to 0
    from starcong import StarcongError

    for k, delta in [(k, 10.0**-k) for k in range(1, 301)] + [(310, 1e-310), (324, 5e-324)]:
        try:
            w = witness(src, dst, delta)
        except StarcongError:
            assert k > SERVED_K[type(src)], (src, dst, k)
            continue
        assert w.norm_E <= delta * (1 + 1e-12)
        assert_exact_witness(src, dst, delta, w)


@pytest.mark.parametrize("src,dst", ARROW_CASES[::4])
def test_witness_arrays(src, dst):
    # E and S are stored as entry tuples and handed out as complex128 (2, 2) arrays
    w = witness(src, dst, 1e-4)
    for A, entries in ((w.E, w.E_entries), (w.S, w.S_entries)):
        assert isinstance(A, np.ndarray) and A.dtype == np.complex128 and A.shape == (2, 2)
        assert A.ravel().tolist() == list(entries)
        assert all(type(z) is complex for z in entries)


@pytest.mark.parametrize("src,dst", NEAR_PLUS_MINUS_M)
def test_witness_refuses_near_plus_minus_m(src, dst):
    # no slack grants these arrows: witness refuses at every delta with the
    # DetPhaseGap of no_arrow_certificate, |t - m| |t + m| = |t^2 - m^2| > 0
    assert not reachable(src, dst)
    cert = no_arrow_certificate(src, dst)
    assert cert.kind == "DetPhaseGap"
    assert cert.margin == pytest.approx(abs(dst.tau**2 - src.mu**2), rel=1e-5)
    for k in range(1, 301):
        with pytest.raises(NoArrow) as info:
            witness(src, dst, 10.0**-k)
        assert info.value.certificate == cert


def test_witness_udz_to_hyp_near_the_unit_circle():
    # |sigma| < 1, yet alpha^2 + beta^2 - 1 can round to 0 there: the builder's
    # det is (|sigma| - 1)(|sigma| + 1), so each witness is served or refused
    # with a StarcongError, never a ZeroDivisionError
    from starcong import StarcongError

    rng, rounded_to_one = SplitMix64(7), 0
    for _ in range(4000):
        sigma = unit(2.0 * np.pi * rng.uniform())
        if abs(sigma) >= 1.0:
            continue
        rounded_to_one += sigma.real * sigma.real + sigma.imag * sigma.imag - 1.0 == 0.0
        for delta in (1e-2, 1e-8):
            try:
                w = witness(UnitDirectZero(1), Hyperbolic(sigma), delta)
            except StarcongError:
                continue
            assert_exact_witness(UnitDirectZero(1), Hyperbolic(sigma), delta, w)
    assert rounded_to_one > 0


def test_witness_uses_the_one_budget_rule():
    # E is accepted at ||E|| <= delta (1 + 1e-12), so a one-ulp overshoot of
    # delta is still served
    w = witness(Zero(), UnitDirectZero(unit(0.3)), 1e-2)
    assert w.norm_E == np.nextafter(1e-2, 1.0)
    assert w.norm_E <= 1e-2 * (1 + 1e-12)


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
    # udz -> delta on the half-plane's edge pads z^2 = 0.4 delta, so E[0,0] = 0.4 i tau delta,
    # at most 1e-12 at these deltas: it is part of E, not a residue to clear
    for src, dst in ((UnitDirectZero(1), DeltaTau(1)), (UnitDirectZero(1), DeltaTau(-1)),
                     (UnitDirectZero(1j), DeltaTau(-1j))):
        for delta in (1e-12, 2e-12, 1e-13):
            assert_exact_witness(src, dst, delta, witness(src, dst, delta))
    assert families == {(Zero, t) for t in (UnitDirectZero, UnitPair, Hyperbolic, DeltaTau)} | {
        (UnitDirectZero, t) for t in (UnitPair, Hyperbolic, DeltaTau)} | {(UnitPair, DeltaTau)}


def reference_residual(N, M, S):
    """E = S* N S - M and its rounding bound as witness formed them in 0.12.0: one linalg._form call
    per entry, and the bound by the expression of the former perturb._certify."""
    c0, c1 = (S[0], S[2]), (S[1], S[3])
    E = [_form(*N, x, y) - m for x, y, m in zip((c0, c0, c1, c1), (c0, c1, c0, c1), M)]
    a, (x0, x1) = [abs(v) for v in N], ((abs(S[0]), abs(S[2])), (abs(S[1]), abs(S[3])))
    bound = _norm4(*(abs(e) + G * (_form(*a, x, y) + abs(m)) + TINY * (1.0 + y[0] + y[1])
                     for e, m, x, y in zip(E, M, (x0, x0, x1, x1), (x0, x1, x0, x1))))
    return E, bound


def reference_outcome(src, dst, delta, S, N, M):
    """witness's answer as 0.12.0 gave it from S, and whether its E[0,0] clearing is the padded
    udz -> delta corner that 0.13.0 keeps."""
    E, bound = reference_residual(N, M, S)
    residue = isinstance(src, UnitDirectZero) and abs(E[0]) <= 1e-12  # cleared in 0.12.0
    fixed = residue and isinstance(dst, DeltaTau) and (src.lam * dst.tau.conjugate()).imag < 0.4 * delta
    kept = (0j, *E[1:]) if residue and not fixed else tuple(E)
    norm_e = _norm4(*kept)
    if norm_e > delta * (1.0 + 1e-12):
        return f"perturbation ||E||_F {norm_e:.3e} exceeds delta {delta:.3e}", fixed
    if bound * (1.0 + 8.0 * U) > delta * (1.0 + 1e-12):
        return f"witness verification failed: rounding bound {bound:.3e} exceeds delta {delta:.3e}", fixed
    if abs(S[0] * S[3] - S[1] * S[2]) <= G * (abs(S[0] * S[3]) + abs(S[1] * S[2])) + TINY:
        return "witness verification failed: det S is within its rounding bound of 0", fixed
    return _bits(kept, [complex(v) for v in S], norm_e), fixed


def _ladder_forms(rng: SplitMix64):
    """Forms of every family away from the boundaries, the anchors ma, me, mc/nc and th, and for
    k = 3..15 pairs 10^-k off antipodal or equal and udz 10^-k either side of a cone or half-plane edge."""
    u = lambda: unit(2.0 * np.pi * rng.uniform())  # noqa: E731
    ma, me, mc, th = u(), u(), u(), u()
    nc = mc * unit(0.3 + 2.5 * rng.uniform())
    forms = [Zero(), Hyperbolic(0), Hyperbolic(0.5 * u()), UnitDirectZero(u()), UnitDirectZero(u()),
             UnitPair(u(), u()), UnitPair(ma, -ma), UnitPair(me, me), DeltaTau(u()), DeltaTau(ma),
             DeltaTau(-ma), UnitDirectZero(me), UnitPair(mc, nc), DeltaTau(th)]
    for k in range(3, 16):
        eps = 10.0**-k
        forms += [UnitPair(ma, -ma * unit(eps)), UnitPair(me, me * unit(eps))]
        forms += [UnitDirectZero(m * unit(sign * eps)) for m in (mc, th) for sign in (1, -1)]
    return forms


def _bits(E, S=(), norm_e=0.0):
    return [(z.real.hex(), z.imag.hex()) for z in (*E, *S)], norm_e.hex()


def test_witness_residual_is_the_former_formulas_bit_for_bit(monkeypatch):
    # witness's kernel gives E and the bound of four _form calls and _certify's expression to
    # the bit, and witness answers as before, but for the padded udz -> delta corner it keeps
    kernel, calls = perturb._residual, []

    def spy(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(perturb, "_residual", spy)
    deltas = [10.0**-k for k in range(1, 17)] + [1e-300, 5e-324]
    kinds, fixed_count, checked = set(), 0, 0
    for seed in (1, 2):
        forms = _ladder_forms(SplitMix64(seed))
        for src in forms:
            for dst in forms:
                if src == dst or not reachable(src, dst):
                    continue
                kinds.add((type(src), type(dst)))
                for delta in deltas:
                    calls.clear()
                    try:
                        w = witness(src, dst, delta)
                        got = _bits(w.E_entries, w.S_entries, w.norm_E)
                    except StarcongError as err:
                        got = str(err)
                    if not calls:  # the construction scale underflowed: no S was built
                        assert got.startswith("construction scale 0."), (src, dst, delta, got)
                        continue
                    (args, (E, bound)), = calls
                    S, N, M = args[:4], args[4:8], args[8:]
                    ref_E, ref_bound = reference_residual(N, M, S)
                    assert _bits(E, (), bound) == _bits(ref_E, (), ref_bound), (src, dst, delta)
                    want, fixed = reference_outcome(src, dst, delta, S, N, M)
                    assert got == want, (src, dst, delta)
                    fixed_count += fixed
                    checked += 1
    assert kinds == {(Zero, t) for t in (UnitDirectZero, UnitPair, Hyperbolic, DeltaTau)} | {
        (UnitDirectZero, t) for t in (UnitPair, Hyperbolic, DeltaTau)} | {(UnitPair, DeltaTau)}
    assert fixed_count > 0 and checked > 10_000, (fixed_count, checked)


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


@pytest.mark.parametrize("sigma", [5e-324, 1e-320, 3.2e-309 + 3.2e-309j, 1e-320j - 1e-320])
def test_spectrum_finite_below_overflow(sigma):
    # 1/conj(sigma) or its modulus overflows: its parts are clamped, so the
    # spectrum, the spread, the certificate's margin and the drifts stay finite
    import cmath
    import math

    from starcong.perturb import _cosquare_spectrum, _spectral_spread

    target = Hyperbolic(sigma)
    assert all(cmath.isfinite(z) for z in _cosquare_spectrum(target))
    assert 0.0 < _spectral_spread(target) < math.inf
    for src in (UnitPair(1, 1), UnitPair(1, -1), UnitPair(1j, 1j)):
        cert = no_arrow_certificate(src, target)
        assert cert.kind == "SpectrumGap" and 0.0 < cert.margin < math.inf
        assert "inf" not in json.dumps(cert.to_json_dict())
    rep = sample_neighborhood(target, 1e-3, 200, seed=1)
    assert 0.0 < rep.max_spectrum_drift < math.inf
    assert all(0.0 < v < math.inf for stats in rep.spectrum_drift.values() for v in stats.values())


def test_certificate_errors():
    with pytest.raises(ArrowExists):
        no_arrow_certificate(Zero(), DeltaTau(1))
    with pytest.raises(InvalidInput):
        no_arrow_certificate(DeltaTau(1), DeltaTau(1))


@pytest.mark.parametrize("form", [Zero(), UnitDirectZero(1), UnitPair(1, -1), Hyperbolic(0.3)])
@pytest.mark.parametrize("bad", [None, 3, "x"])
def test_certificate_refuses_non_forms(form, bad):
    # reachable(zero, anything) is True, so a non-form must be refused before
    # ArrowExists formats it
    message = rf"^not a canonical form: {re.escape(repr(bad))}$"
    with pytest.raises(InvalidInput, match=message):
        no_arrow_certificate(form, bad)
    with pytest.raises(InvalidInput, match=message):
        no_arrow_certificate(bad, form)
    # an equal pair is validated before it is refused as equal
    with pytest.raises(InvalidInput, match=message):
        no_arrow_certificate(bad, bad)


@pytest.mark.parametrize("k", range(10, 17))
def test_certificate_near_degenerate_pair_sources(k):
    # targets 10^-k off the source's class: the computed cosquare gap can be
    # 0 at k = 16, but half the target's spread is positive and still proves
    # the non-arrow, since the spectrum is constant on the target class
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
        for A in _ball_sample(17, 2000, delta, _entries(src)):
            try:
                got = classify(A).form
            except AmbiguousClassification:
                continue
            assert not forms_close(got, dst, cert.margin / 10.0), (src, dst, got)


# --- neighborhood sampling ----------------------------------------------------

#: The entries of the zero matrix, the centre of a bare ball draw.
ZERO_CENTRE = (0j, 0j, 0j, 0j)


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
    # the generator reads a seed modulo 2^64, so seeds 1 and 2^64 + 1 would draw
    # the same samples under different ``seed`` keys
    for seed in (0, 2**64 - 1):
        assert sample_neighborhood(Zero(), 1e-3, 10, seed=seed).seed == seed
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(InvalidInput, match=r"^seed must lie in \[0, 2\^64\)$"):
            sample_neighborhood(Zero(), 1e-3, 10, seed=seed)


def test_ball_sample_uniform_moments():
    # uniform in the unit ball of R^8: E||E|| = 8/9, E|E_ij|^2 = 1/5, E E_ij = 0
    from starcong.perturb import _ball_sample

    n = 100_000
    E = _ball_sample(5, n, 1.0, ZERO_CENTRE)
    norms = np.sqrt(np.sum(np.abs(E) ** 2, axis=(1, 2)))
    assert np.all(norms <= 1.0)
    assert abs(norms.mean() - 8.0 / 9.0) <= 5.0 * norms.std() / np.sqrt(n)
    sq = np.abs(E.reshape(n, 4)) ** 2
    assert np.all(np.abs(sq.mean(axis=0) - 0.2) <= 5.0 * sq.std(axis=0) / np.sqrt(n))
    parts = np.concatenate([E.reshape(n, 4).real, E.reshape(n, 4).imag], axis=1)
    assert np.all(np.abs(parts.mean(axis=0)) <= 5.0 * parts.std(axis=0) / np.sqrt(n))


def test_ball_sample_matches_scalar_stream():
    # sample i: 4 sorted uniforms give the squared moduli as spacings, then one
    # disk-rejection phase per entry, all from sub-stream start + i; a whole
    # chunk and five more samples, from an offset.  Each entry is stored as
    # centre + draw, which turns a draw of -0.0 (a Dirichlet weight of exactly
    # 0) into 0.0, so the reference adds the same zero centre
    import math

    from starcong.perturb import SAMPLE_CHUNK, _ball_sample
    from test_rng import substream_seed

    delta, start, n = 1e-3, 3, SAMPLE_CHUNK + 5
    E = _ball_sample(9, n, delta, ZERO_CENTRE, start)
    expected, rounds = [], []
    for i in range(n):
        rng = SplitMix64(substream_seed(9, start + i))
        u = sorted(rng.uniform() for _ in range(4))
        weights = [b - a for a, b in zip([0.0] + u, u)]
        for w in weights:
            draws = 0
            while True:
                draws += 1
                x = 2.0 * rng.uniform() - 1.0
                y = 2.0 * rng.uniform() - 1.0
                r2 = x * x + y * y
                if 0.0 < r2 <= 1.0:
                    break
            rounds.append(draws)
            scale = math.sqrt(w) / math.sqrt(r2)
            expected.append(complex(delta * (x * scale) + 0.0, delta * (y * scale) + 0.0))
    assert np.array(expected).tobytes() == E.tobytes()
    # the sampler redraws until its last pending entry is accepted: the
    # deepest entries here need 8 draws, so every redraw round is compared
    assert max(rounds) == 8


def test_ball_sample_prefix_and_offset():
    from starcong.perturb import _ball_sample

    E = _ball_sample(21, 500, 1e-3, ZERO_CENTRE)
    assert np.array_equal(_ball_sample(21, 123, 1e-3, ZERO_CENTRE), E[:123])
    assert np.array_equal(_ball_sample(21, 77, 1e-3, ZERO_CENTRE, 123), E[123:200])


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


def test_sample_neighborhood_golden_bytes():
    # one source per family, each over two chunks (2^14 + 100 samples), so the
    # singular sources, which form no cosquare roots, and the nonsingular ones
    # are both pinned; a line is the render_json text with its line breaks
    # and indents collapsed
    lines = []
    for text in ("zero", "udz(1)", "pair(1,1)", "pair(1,-1)", "pair(1,1i)", "hyp(0.3)", "delta(1)"):
        rep = sample_neighborhood(parse_form(text), 1e-3, 2**14 + 100, seed=2**20 + 7)
        lines.append(" ".join(line.strip() for line in render_json(rep.to_json_dict()).splitlines()))
    assert lines == GOLDEN_SAMPLES.read_text().splitlines()


def test_near_degenerate_cone_corner():
    # generators that are antipodal only up to 1e-10: the cone is a sector
    # 1e-10 short of a half-plane, lam on its ray mu R+ is granted, and the
    # witness either succeeds or refuses honestly (the target class sits below
    # the parameter resolution of double precision)
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

    off = UnitDirectZero(unit(0.5 + 0.4))  # outside the sector
    assert not reachable(off, target)
    cert = no_arrow_certificate(off, target)
    assert cert.kind == "ConeMargin" and cert.margin > 0
    # inside it, though 1e-10 from the line mu R, as no slack snaps nu to -mu
    assert reachable(UnitDirectZero(unit(0.5 - 0.4)), target)


def test_boundary_bucket_via_classify_many():
    from starcong.canonical import FAMILY_CODES, classify_many

    # relative determinant right at the tolerance: goes to 'boundary'
    stack = np.array([np.diag([1.0, 1.2e-9]), np.diag([1.0, 1.0])], dtype=complex)
    res = classify_many(stack)
    assert FAMILY_CODES[res["family"][0]] == "boundary"
    assert FAMILY_CODES[res["family"][1]] == "pair"
