import cmath

import numpy as np
import pytest

from starcong import (
    AmbiguousClassification,
    DeltaTau,
    Hyperbolic,
    InvalidInput,
    UnitDirectZero,
    UnitPair,
    Zero,
    classify,
    classify_many,
    forms_close,
    random_congruence,
    realize,
    sample_neighborhood,
)
from starcong.canonical import AMBIG_FRACTION

import exact

rng = np.random.default_rng(77)


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def form_grid(points_per_family=12):
    thetas = [2 * np.pi * k / points_per_family + 0.05 for k in range(points_per_family)]
    units = [unit(t) for t in thetas]
    grid = [Zero()]
    grid += [UnitDirectZero(u) for u in units]
    # generic pairs, kept away from the antipodal/equal boundary
    grid += [UnitPair(u, unit(t + 0.9)) for u, t in zip(units, thetas)]
    grid += [UnitPair(u, u) for u in units]
    grid += [UnitPair(u, -u) for u in units]
    grid += [Hyperbolic(0.8 * u * (0.2 + 0.07 * k)) for k, u in enumerate(units)]
    grid += [Hyperbolic(0.0)]
    grid += [DeltaTau(u) for u in units]
    return grid


def test_classify_spec_examples():
    assert classify(np.zeros((2, 2))).form == Zero()
    assert forms_close(classify([[0, 1], [1, 0]]).form, UnitPair(1, -1), 1e-12)
    assert classify([[1, 0.01], [0, 0]]).form == Hyperbolic(0)
    assert forms_close(classify(0.5 * np.eye(2)).form, UnitPair(1, 1), 1e-12)
    got = classify([[0, 1], [1, 1e-3j]]).form
    assert forms_close(got, DeltaTau(1), 1e-9)


def test_rank1_nonproportional_is_nilpotent_class():
    # oracle: numeric search over S for S* [[0,1],[0,0]] S ~ A
    from scipy.optimize import least_squares

    A = np.array([[1, 0.01], [0, 0]], dtype=complex)
    J = np.array([[0, 1], [0, 0]], dtype=complex)

    def resid(v):
        S = (v[:4] + 1j * v[4:]).reshape(2, 2)
        return (S.conj().T @ J @ S - A).view(np.float64).ravel()

    sol = least_squares(resid, np.array([1.0, 0, 0, 1, 0, 0, 0, 0]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.linalg.norm(sol.fun) < 1e-6  # A really is in the class of J2(0)
    assert classify(A).form == Hyperbolic(0)


def test_classify_agrees_with_congruence_search():
    # independent oracle for the whole decision tree: classify claims
    # A ~ realize(form); search numerically for S with S* realize(form) S = A
    from scipy.optimize import least_squares

    search_rng = np.random.default_rng(4)

    def congruent_residual(A, R, tries=6):
        best = np.inf
        for _ in range(tries):
            def resid(v):
                S = (v[:4] + 1j * v[4:]).reshape(2, 2)
                return (S.conj().T @ R @ S - A).view(np.float64).ravel()
            sol = least_squares(resid, search_rng.standard_normal(8),
                                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
            best = min(best, float(np.linalg.norm(sol.fun)))
            if best < 1e-8:
                break
        return best

    for _ in range(25):
        A = search_rng.standard_normal((2, 2)) + 1j * search_rng.standard_normal((2, 2))
        form = classify(A).form
        assert congruent_residual(A, realize(form)) < 1e-7 * np.linalg.norm(A)

    # control: the search must not succeed across genuinely distinct classes
    wrong = congruent_residual(realize(DeltaTau(1)), realize(UnitPair(1, -1)))
    assert wrong > 0.1


def test_round_trip_exact_parameters():
    for form in form_grid():
        rep = classify(realize(form))
        assert forms_close(rep.form, form, 1e-12), form


def test_round_trip_under_congruence():
    for k, form in enumerate(form_grid()):
        for s in range(20):
            _, member = random_congruence(form, seed=1000 * k + s)
            rep = classify(member)
            assert forms_close(rep.form, form, 1e-6), (form, s)


def test_exact_oracle_on_representatives_and_open_members():
    # the open families survive the rounding of S* R S; the degenerate ones do not
    for k, form in enumerate(form_grid()):
        assert exact.family(realize(form)) == exact.family_of(form), form
        if exact.family_of(form) in exact.OPEN:
            for s in range(5):
                _, member = random_congruence(form, seed=1000 * k + s)
                assert exact.family(member) == exact.family_of(form), (form, s)


def test_exact_oracle_agrees_on_gaussians():
    gauss = np.random.default_rng(2006)
    for _ in range(1000):
        A = gauss.standard_normal((2, 2)) + 1j * gauss.standard_normal((2, 2))
        assert exact.family_of(classify(A).form) == exact.family(A), A


def test_positive_scaling_invariance():
    # the scale is a norm that squares no entry, so inputs near the ends of
    # the double range classify as their scale-1 counterparts
    for k, form in enumerate(form_grid(6)):
        for A in (realize(form), np.asarray(random_congruence(form, seed=k)[1])):
            want = classify(A).form
            for c in (1e-300, 1e-170, 1e-6, 0.25, 4.0, 1e6, 1e170, 1e300):
                assert forms_close(classify(c * A).form, want, 1e-9), (form, c)


def test_cosquare_spectrum_congruence_invariant():
    # a double eigenvalue of a defective cosquare moves like the square root
    # of the entry noise, so the delta family gets a sqrt(eps)-level floor
    cases = [
        (UnitPair(unit(0.4), unit(1.7)), 0.0),
        (Hyperbolic(0.3 + 0.2j), 0.0),
        (DeltaTau(unit(2.0)), 50 * np.sqrt(np.finfo(float).eps)),
    ]
    for k, (form, floor) in enumerate(cases):
        congruences = [random_congruence(form, seed=50 * k + s) for s in range(10)]
        res = classify_many(np.array([realize(form)] + [member for _, member in congruences]))
        spectra = list(zip(res["p"], res["q"]))
        base = spectra[0]
        for (S, _), got in zip(congruences, spectra[1:]):
            cond = np.linalg.cond(S)
            # compare as sets: the roots of a unimodular pair come in the
            # order of the square root's branch, which rounding can flip
            direct = max(abs(got[0] - base[0]), abs(got[1] - base[1]))
            swapped = max(abs(got[0] - base[1]), abs(got[1] - base[0]))
            assert min(direct, swapped) <= max(1e-9 * cond**2, floor * cond)


def test_hyperbolic_cosquare_eigenvalues():
    sigmas = (0.3, 0.2 - 0.6j, 0.05j)
    res = classify_many(np.array([realize(Hyperbolic(sigma)) for sigma in sigmas]))
    for sigma, p, q in zip(sigmas, res["p"], res["q"]):
        expect = sorted([sigma, 1 / np.conj(sigma)], key=lambda z: (-abs(z), -z.real, -z.imag))
        assert abs(p - expect[0]) < 1e-12 and abs(q - expect[1]) < 1e-12


def test_jordan_branch_sign_statistic():
    # A = S* tau Delta_2 S makes (conj(tau) A - tau A*) / 2i = S* diag(0, 1) S
    # positive definite, so Im(conj(tau) tr A) has the sign of the member's
    # +-tau; the Jordan branch reads tau's sign from that statistic
    for s in range(25):
        tau = unit(0.25 * s)
        for sign in (1, -1):
            form = DeltaTau(sign * tau)
            _, A = random_congruence(form, seed=s)
            assert sign * (tau.conjugate() * np.trace(A)).imag > 0, form
            got = classify(A).form
            assert isinstance(got, DeltaTau) and forms_close(got, form, 1e-9), (form, got)


#: Boundary ladders: (name, matrix at rung eps, its form, the degenerate form
#: it snaps to as eps -> 0).  The boundary statistic of each is linear in eps:
#: the cosquare eigenvalue distance 2 eps, or the relative |det| eps.
LADDERS = [
    ("pair(1,-e^ie)", lambda e: realize(UnitPair(1, -cmath.exp(1j * e))),
     lambda e: UnitPair(1, -cmath.exp(1j * e)), UnitPair(1, -1)),
    ("pair(1,e^ie)", lambda e: realize(UnitPair(1, cmath.exp(1j * e))),
     lambda e: UnitPair(1, cmath.exp(1j * e)), UnitPair(1, 1)),
    ("pair(1i,-1ie^ie)", lambda e: realize(UnitPair(1j, -1j * cmath.exp(1j * e))),
     lambda e: UnitPair(1j, -1j * cmath.exp(1j * e)), UnitPair(1j, -1j)),
    ("hyp(1-e)", lambda e: realize(Hyperbolic(1 - e)), lambda e: Hyperbolic(1 - e), UnitPair(1, -1)),
    ("hyp((1-e)i)", lambda e: realize(Hyperbolic((1 - e) * 1j)), lambda e: Hyperbolic((1 - e) * 1j),
     UnitPair(unit(np.pi / 4), -unit(np.pi / 4))),
    ("hyp(e)", lambda e: realize(Hyperbolic(e)), lambda e: Hyperbolic(e), Hyperbolic(0)),
    ("diag(1,e)", lambda e: np.diag([1, e]).astype(complex), lambda e: UnitPair(1, 1), UnitDirectZero(1)),
    ("diag(1,-e)", lambda e: np.diag([1, -e]).astype(complex), lambda e: UnitPair(1, -1), UnitDirectZero(1)),
]


@pytest.mark.parametrize("name, matrix, form, snapped", LADDERS, ids=[case[0] for case in LADDERS])
def test_round_trip_ladder(name, matrix, form, snapped):
    # on every rung eps = 10^-k the answer is the form, the degenerate form
    # (only within 10 tol of the boundary), or a refusal; never a third class
    tol = 1e-9
    for k in range(1, 17):
        eps = 10.0**-k
        try:
            got = classify(matrix(eps), tol).form
        except AmbiguousClassification:
            continue
        assert forms_close(got, form(eps), 1e-6) or (eps <= 10 * tol and forms_close(got, snapped, 1e-6)), (k, got)


def test_exact_oracle_sweep():
    # tests/exact.py's sweep: rounded members S* R S of the seven subfamilies,
    # cond(S) = c.  No confidently wrong answer up to c = 1e3.  At c = 1e4 the
    # judge lets through the rank test's hyp(0) answers for hyp members, whose
    # nearest hyp(0) matrix can lie within tol; every other answer is judged
    # as below c = 1e4
    for seed in (1, 2, 3):
        sweep_rng = np.random.default_rng(seed)
        for c in (1e1, 1e2, 1e3, 1e4):
            for A in exact.subfamily_members(sweep_rng, c, 700):
                if exact.confidently_wrong(A):
                    assert c == 1e4 and classify(A).form == Hyperbolic(0), (seed, c, A)


def test_classify_many_serves_every_scale():
    # both classifiers scale by a power of two before any square, so the
    # family is the same at every binary exponent a double holds
    mats = [np.eye(2), [[0, 1], [0.3, 0]], [[1, 0], [0, 0]], [[1, 0.01], [0, 0]]]
    mats += [random_congruence(form, seed=k)[1] for k, form in enumerate(form_grid(1))]
    stack = np.array(mats, dtype=complex)
    from starcong.canonical import FAMILY_CODES

    for k in range(-1022, 1024):
        scaled = np.ldexp(1.0, k) * stack
        codes = classify_many(scaled)["family"]
        for A, code in zip(scaled, codes):
            try:
                fam = classify(A).form.family
            except AmbiguousClassification:
                continue
            assert FAMILY_CODES[code] in (fam, "boundary"), (k, A)
    codes = classify_many(np.array([1e200 * np.eye(2), 1e-170 * np.array([[0, 1], [0.3, 0]])]))["family"]
    assert [FAMILY_CODES[c] for c in codes] == ["pair", "hyp"]
    assert sample_neighborhood(Zero(), 1e-170, 1000, seed=1).histogram["zero"] == 0


def _classify_many_by_stack_reductions(As):
    """classify_many as of 0.9.0, which prescaled and normalized the (n, 2, 2)
    stack with reductions over axes (1, 2): the reference for its column-wise
    front.  The kernels after the front are the package's."""
    from starcong.canonical import _E, _coincidence, _departure, _invariants, _rank1_residual

    tol = 1e-9
    fam = np.zeros(len(As), dtype=np.int64)
    margin = np.full(len(As), np.inf)
    p_out, q_out = np.full((2, len(As)), np.nan, dtype=np.complex128)
    parts = As.view(np.float64)
    e = np.frexp(np.max(np.abs(parts), axis=(1, 2)))[1]
    As = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
    scale = np.sqrt(np.sum(np.abs(As) ** 2, axis=(1, 2)))
    nonzero = scale > 0.0
    An = np.where(nonzero[:, None, None], As / np.where(nonzero, scale, 1.0)[:, None, None], 0.0)
    a, b, c, d = An[:, 0, 0], An[:, 0, 1], An[:, 1, 0], An[:, 1, 1]
    det, absdet, h, r, nr, rho2, n_rho2 = _invariants(a, b, c, d)
    margin = np.minimum(margin, np.where(nonzero, np.abs(absdet - tol - _E), np.inf))
    singular = nonzero & (absdet <= tol + _E)
    resid = _rank1_residual(a, b, c, d)
    margin = np.where(singular, np.minimum(margin, np.abs(resid - tol - 2.0 * _E)), margin)
    fam = np.where(singular, np.where(resid <= tol + 2.0 * _E, 1, 3), fam)
    nonsing = nonzero & (absdet > tol + _E)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, rel, threshold, slack = _coincidence(h, rho2, n_rho2, tol)
        margin = np.where(nonsing, np.minimum(margin, slack), margin)
        distinct = nonsing & (rel > threshold)
        coincident = nonsing & ~distinct
        fam = np.where(distinct, np.where(rho2 > 0.0, 3, 2), fam)
        j_threshold, j_slack = _departure(absdet, h, nr, tol)
        margin = np.where(coincident, np.minimum(margin, j_slack), margin)
        fam = np.where(coincident, np.where(nr <= j_threshold, 2, 4), fam)
        hyp = rho2 > 0.0
        h_root = h + np.where(hyp, np.copysign(t, h), 1j * t)
        q = det / h_root
        p_out = np.where(nonsing, np.where(hyp, 1.0 / q.conjugate(), h_root / det.conjugate()), p_out)
        q_out = np.where(nonsing, q, q_out)
    fam = np.where(nonzero & (margin < AMBIG_FRACTION * tol), 5, fam)
    return {"family": fam, "margin": margin, "p": p_out, "q": q_out}


def test_classify_many_columns_match_stack_reductions():
    # the column-wise prescale and norm give the bits of the stack reductions
    # at every binary exponent, on zero, signed-zero and subnormal rows, and
    # near every boundary of the tree
    near_rng = np.random.default_rng(11)
    mats = [np.eye(2), [[0, 1], [0.3, 0]], [[1, 0], [0, 0]], [[1, 0.01], [0, 0]]]
    mats += [random_congruence(form, seed=k)[1] for k, form in enumerate(form_grid(1))]
    for form in form_grid(2):
        for e in range(3, 13):
            E = near_rng.standard_normal((2, 2)) + 1j * near_rng.standard_normal((2, 2))
            mats.append(realize(form) + 10.0**-e * E)
    stack = np.array(mats, dtype=complex)
    sweep = [np.ldexp(stack.view(np.float64), k).view(np.complex128) for k in range(-1070, 1024)]
    z, s = -0.0, 5e-324
    special = np.array([
        [[0, 0], [0, 0]],
        [[complex(z, z), complex(0, z)], [complex(z, 0), complex(z, z)]],
        [[s, 0], [0, 0]],
        [[complex(-s, 1e-320), complex(z, s)], [complex(s, z), 2e-310]],
        [[s, s], [s, complex(0, s)]],
    ], dtype=complex)
    As = np.concatenate(sweep + [special])
    want = _classify_many_by_stack_reductions(As)
    got = classify_many(As)
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key


def test_prescale_list_and_stack_agree():
    # classify prescales a list of four Python complex, classify_many an
    # (n, 2, 2) stack: the one matrix as a (1, 2, 2) stack gets the same bits
    from starcong.canonical import _prescale

    rng = np.random.default_rng(33)
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1.0, 1e308, -1e308,
             1.7976931348623157e308]
    mats = [rng.standard_normal(8) * 10.0 ** rng.integers(-320, 308, 8) for _ in range(2000)]
    mats += [rng.choice(parts, 8) for _ in range(2000)]
    mats += [np.zeros(8), -np.zeros(8), np.full(8, 5e-324), np.full(8, 1e308)]
    for row in mats:
        stack = np.ascontiguousarray(row).view(np.complex128).reshape(1, 2, 2)
        listed = _prescale(stack.ravel().tolist())
        columns = _prescale(stack)
        assert [(z.real.hex(), z.imag.hex()) for z in listed] == \
            [(float(z.real).hex(), float(z.imag).hex()) for (z,) in columns], row


def test_ambiguous_near_rank_boundary():
    # relative determinant just inside the ambiguity window around tol
    A = np.diag([1.0, 1.2e-9]).astype(complex)
    with pytest.raises(AmbiguousClassification) as info:
        classify(A, tol=1e-9)
    assert info.value.margin < AMBIG_FRACTION * 1e-9
    assert len(info.value.candidates) == 2


def _contending(margin, branch, contender, cutoff="5.000e-10"):
    return (f"margin {margin} below {cutoff}: contending branches {branch!r} vs {contender!r}",
            (branch, contender))


# one input per refusal that a seeded search reaches: the tree's four
# boundaries, then the sign tests of the udz, pair and delta leaves, the
# |h| <= E test of the coincident branch and the inertia test of the scalar
# cosquare.  Every refusal comes from the one margin check: a leaf's sign test
# within its rounding bound records slack 0, so it refuses at margin 0 and names
# its own boundary.  The rank test sends |det A| <= tol + E (E about 8.9e-16)
# to the rank-1 branch, so at tol 1e-15 diag(1, 2e-15i), whose h is 0, passes
# as nonsingular and reaches the |h| test; at tol 1e-14 it is udz.
# diag(1, -1e-14) is exactly pair(1,-1), and every slack of the tree clears
# the cutoff 5e-19 at tol 1e-18, but the phase of l, read from h / conj(det A),
# errs by about E / |det A|, and that noise swamps the Hermitian part's
# smaller eigenvalue.  10^6 draws at tol 1e-9 ... 0.49 reach no inertia
# refusal; diag(1, +-d) reaches it at tol 1e-20 ... 1e-10.
@pytest.mark.parametrize("A, tol, message, candidates, margin", [
    ([[1.0, 0.0], [0.0, 1e-9]], 1e-9, *_contending("8.882e-16", "rank<=1", "nonsingular"), 8.881784197001252e-16),
    ([[1.0, 1e-9], [0.0, 0.0]], 1e-9, *_contending("4.142e-10", "udz", "hyp(0)"), 4.1421178601625564e-10),
    ([[1.0, 4e-10], [0.0, 1.0]], 1e-9, *_contending("2.063e-10", "coincident spectrum", "distinct spectrum"),
     2.0633991313888898e-10),
    ([[0.0, 1.0], [1.0, 3e-10j]], 1e-9, *_contending("4.000e-10", "pair(l,+-l)", "delta"), 4.000056841018828e-10),
    ([[1.0, 3.0], [3.0, 0.0]], 0.49, *_contending("0.000e+00", "udz", "hyp(0)", "2.450e-01"), 0.0),
    ([[1.0, -5e-9], [1e-9, 2e-6]], 1e-9, *_contending("0.000e+00", "pair", "delta"), 0.0),
    ([[1.0, 1.00000001], [1.0, 1.0]], 1e-9, *_contending("0.000e+00", "delta(l)", "delta(-l)"), 0.0),
    ([[1.0, 0.0], [0.0, 2e-15j]], 1e-15, *_contending("0.000e+00", "pair", "delta", "5.000e-16"), 0.0),
    ([[1.0, 0.0], [0.0, -1e-14]], 1e-18, *_contending("0.000e+00", "definite", "indefinite", "5.000e-19"), 0.0),
], ids=["rank", "residual", "coincidence", "departure", "udz-trace", "pair-form", "delta-sign", "coincident-h",
        "inertia"])
def test_refusal_bookkeeping(A, tol, message, candidates, margin):
    with pytest.raises(AmbiguousClassification) as info:
        classify(A, tol=tol)
    assert str(info.value) == message
    assert info.value.candidates == candidates
    assert info.value.margin == margin


def test_ambiguous_near_unit_circle():
    # hyp(1 - x) has cosquare eigenvalues 1 - x and about 1 + x, so their
    # distance 2x is the statistic: at x = 9e-10 it clears tol by 0.8e-9,
    # outside the tol / 2 refusal band; at x = 4e-10 it misses it by 2e-10
    rep = classify(realize(Hyperbolic(1 - 9e-10)), tol=1e-9)
    assert forms_close(rep.form, Hyperbolic(1 - 9e-10), 1e-6)
    with pytest.raises(AmbiguousClassification):
        classify(realize(Hyperbolic(1 - 4e-10)), tol=1e-9)


def test_classify_rejects_bad_input():
    with pytest.raises(InvalidInput):
        classify([[np.nan, 0], [0, 0]])
    # the normalized |det| is at most 1/2, so tol >= 1/2 would call every matrix rank <= 1
    for tol in (0.0, 0.5, 1e300, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            classify(np.eye(2), tol=tol)


def test_margin_positive_and_scale():
    rep = classify(realize(DeltaTau(1)))
    assert rep.margin > 0
    assert rep.scale == pytest.approx(np.sqrt(3))
    assert classify(np.zeros((2, 2))).margin == np.inf
    # one input per branch of the tree; a numpy scalar would change repr(margin)
    for form in (Zero(), UnitDirectZero(1j), Hyperbolic(0), Hyperbolic(0.3), UnitPair(1, 1j),
                 UnitPair(1, 1), UnitPair(1, -1), DeltaTau(1)):
        report = classify(realize(form))
        assert forms_close(report.form, form, 1e-12)
        assert type(report.margin) is float


def is_star_congruent(A, B, tol=1e-9):
    return forms_close(classify(A, tol).form, classify(B, tol).form, tol)


def test_is_star_congruent():
    assert is_star_congruent(np.diag([1, -1]), [[0, 1], [1, 0]])
    for _ in range(10):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert is_star_congruent(A, 4 * A)
    delta2 = np.array([[0, 1], [1, 1j]])
    assert not is_star_congruent(delta2, -delta2)


def test_random_congruence_deterministic():
    form = UnitPair(unit(0.2), unit(1.4))
    S1, B1 = random_congruence(form, seed=9)
    S2, B2 = random_congruence(form, seed=9)
    np.testing.assert_array_equal(S1, S2)
    np.testing.assert_array_equal(B1, B2)
    S3, _ = random_congruence(form, seed=10)
    assert not np.array_equal(S1, S3)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_random_congruence_seed_range(seed):
    # the generator reads its seed modulo 2^64, so -1 would alias 2^64 - 1
    with pytest.raises(InvalidInput, match=r"seed must lie in \[0, 2\^64\)"):
        random_congruence(Zero(), seed)


def test_random_congruence_top_seed():
    S, _ = random_congruence(UnitPair(1, -1), 2**64 - 1)
    assert not np.array_equal(S, random_congruence(UnitPair(1, -1), 0)[0])


def test_random_congruence_zero():
    _, B = random_congruence(Zero(), seed=3)
    np.testing.assert_array_equal(B, np.zeros((2, 2)))


def test_random_congruence_cond_bound():
    for s in range(50):
        S, _ = random_congruence(DeltaTau(1), seed=s)
        assert np.linalg.cond(S) <= 20.0 * (1 + 1e-9)


def _outcome(A):
    """classify's answer to ``A`` down to the bits, or the text of its refusal."""
    try:
        rep = classify(A)
    except AmbiguousClassification as exc:
        return str(exc)
    return repr(rep.form), repr(rep.margin), repr(rep.scale)


def test_nested_lists_classify_as_arrays_do():
    # classify reads two rows of Python complex without numpy, as the CLI
    # passes them, and any other input through as_mat2: the bits must agree,
    # also on members 1e-8..1e-12 off a representative, some of them refused
    near_rng = np.random.default_rng(5)
    mats = []
    for k, form in enumerate(form_grid()):
        mats.append(realize(form))
        mats += [np.asarray(random_congruence(form, seed=100 * k + s)[1]) for s in range(5)]
        for e in range(8, 13):
            E = near_rng.standard_normal((2, 2)) + 1j * near_rng.standard_normal((2, 2))
            mats.append(realize(form) + 10.0**-e * E / np.linalg.norm(E))
    refused = 0
    for A in mats:
        want = _outcome(A)
        refused += isinstance(want, str)
        assert _outcome(A.tolist()) == want
        assert _outcome(tuple(map(tuple, A.tolist()))) == want
    assert 0 < refused < len(mats) // 4


def test_classify_many_matches_scalar():
    mats = []
    for k, form in enumerate(form_grid(8)):
        _, member = random_congruence(form, seed=k)
        mats.append(member)
    mats.append(np.zeros((2, 2), dtype=complex))
    stack = np.array(mats)
    res = classify_many(stack)
    from starcong.canonical import _BOUNDARIES, FAMILY_CODES

    for i, A in enumerate(mats):
        try:
            fam = classify(A).form.family
        except AmbiguousClassification:
            fam = "boundary"
        assert FAMILY_CODES[res["family"][i]] == fam

    # near boundaries: perturbations 1e-3..1e-12 of each representative and
    # of one congruence member, and E / ||E|| times 0, 1e-6 .. 1e-15 added to
    # 300 congruence members of eleven forms.  The one tree makes the lane
    # contract structural: where classify answers, the lane holds its family;
    # where it refuses at one of the tree's boundaries, the lane is boundary;
    # its other refusals are the pair leaf's sign test.  Every refusal comes
    # from the one margin check, so its margin is under the cutoff and its
    # candidates are a row of the boundary table
    near_rng = np.random.default_rng(3)
    near = []
    for k, form in enumerate(form_grid(8)):
        for base in (realize(form), random_congruence(form, seed=k)[1]):
            for e in range(3, 13):
                E = near_rng.standard_normal((2, 2)) + 1j * near_rng.standard_normal((2, 2))
                near.append(base + 10.0**-e * max(np.linalg.norm(base), 1.0) * E / np.linalg.norm(E))
    for form in (UnitDirectZero(1), UnitDirectZero(1j), UnitPair(1, 1j), UnitPair(1, -1), UnitPair(1, 1),
                 UnitPair(1j, 1j), Hyperbolic(0.3), Hyperbolic(0), Hyperbolic(0.1 + 0.2j), DeltaTau(1), DeltaTau(1j)):
        for seed in range(300):
            member = np.array(random_congruence(form, seed)[1])
            for eps in (0, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-15):
                E = near_rng.standard_normal((2, 2)) + 1j * near_rng.standard_normal((2, 2))
                near.append(member + eps * E / np.linalg.norm(E))
    codes = classify_many(np.array(near))["family"]
    agreed = at_boundary = at_leaf = 0
    for A, code in zip(near, codes):
        try:
            fam = classify(A).form.family
        except AmbiguousClassification as exc:
            assert exc.margin < AMBIG_FRACTION * 1e-9 and exc.candidates in _BOUNDARIES, (A, exc)
            if exc.candidates in _BOUNDARIES[:4]:  # the tree's four comparisons
                assert FAMILY_CODES[code] == "boundary", (A, exc)
                at_boundary += 1
            else:
                assert exc.candidates == ("pair", "delta"), (A, exc)
                at_leaf += 1
            continue
        assert FAMILY_CODES[code] == fam, A
        agreed += 1
    assert agreed > 0.9 * len(near) and at_boundary > 0 and at_leaf > 0
