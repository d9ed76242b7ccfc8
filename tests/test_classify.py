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
)
from starcong.canonical import AMBIG_FRACTION
from starcong.forms import DELTA2

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


def test_positive_scaling_invariance():
    # the scale is a norm that squares no entry, so inputs near the ends of
    # the double range classify as their scale-1 counterparts
    for k, form in enumerate(form_grid(6)):
        for A in (realize(form), random_congruence(form, seed=k)[1]):
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


def test_jordan_branch_eigenvector_is_isotropic():
    # for members of the delta class, the cosquare eigenvector x has x* A x = 0
    for s in range(25):
        form = DeltaTau(unit(0.25 * s))
        _, A = random_congruence(form, seed=s)
        K = np.linalg.inv(A).conj().T @ A
        xi = (K[0, 0] + K[1, 1]) / 2
        M = K - xi * np.eye(2)
        c1 = np.array([M[0, 1], -M[0, 0]])
        c2 = np.array([M[1, 1], -M[1, 0]])
        x = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
        x = x / np.linalg.norm(x)
        val = abs(x.conj() @ A @ x)
        assert val <= 1e-9 * np.linalg.norm(A)


def test_ambiguous_near_rank_boundary():
    # relative determinant just inside the ambiguity window around tol
    A = np.diag([1.0, 1.2e-9]).astype(complex)
    with pytest.raises(AmbiguousClassification) as info:
        classify(A, tol=1e-9)
    assert info.value.margin < AMBIG_FRACTION * 1e-9
    assert len(info.value.candidates) == 2


def test_ambiguous_near_unit_circle():
    A = realize(Hyperbolic(1 - 9e-10))
    with pytest.raises(AmbiguousClassification):
        classify(A, tol=1e-9)


def test_classify_rejects_bad_input():
    with pytest.raises(InvalidInput):
        classify([[np.nan, 0], [0, 0]])
    with pytest.raises(InvalidInput):
        classify(np.eye(2), tol=0.0)


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
    assert not is_star_congruent(DELTA2, -DELTA2)


def test_random_congruence_deterministic():
    form = UnitPair(unit(0.2), unit(1.4))
    S1, B1 = random_congruence(form, seed=9)
    S2, B2 = random_congruence(form, seed=9)
    np.testing.assert_array_equal(S1, S2)
    np.testing.assert_array_equal(B1, B2)
    S3, _ = random_congruence(form, seed=10)
    assert not np.array_equal(S1, S3)


def test_random_congruence_zero():
    _, B = random_congruence(Zero(), seed=3)
    np.testing.assert_array_equal(B, np.zeros((2, 2)))


def test_random_congruence_cond_bound():
    for s in range(50):
        S, _ = random_congruence(DeltaTau(1), seed=s)
        assert np.linalg.cond(S) <= 20.0 * (1 + 1e-9)


def test_classify_many_matches_scalar():
    mats = []
    for k, form in enumerate(form_grid(8)):
        _, member = random_congruence(form, seed=k)
        mats.append(member)
    mats.append(np.zeros((2, 2), dtype=complex))
    stack = np.array(mats)
    res = classify_many(stack)
    from starcong.canonical import FAMILY_CODES

    for i, A in enumerate(mats):
        try:
            fam = classify(A).form.family
        except AmbiguousClassification:
            fam = "boundary"
        assert FAMILY_CODES[res["family"][i]] == fam

    # near boundaries: perturbations 1e-3..1e-12 of each representative and
    # of one congruence member; where classify answers and classify_many is
    # confident, the families agree
    near_rng = np.random.default_rng(3)
    near = []
    for k, form in enumerate(form_grid(8)):
        for base in (realize(form), random_congruence(form, seed=k)[1]):
            for e in range(3, 13):
                E = near_rng.standard_normal((2, 2)) + 1j * near_rng.standard_normal((2, 2))
                near.append(base + 10.0**-e * max(np.linalg.norm(base), 1.0) * E / np.linalg.norm(E))
    codes = classify_many(np.array(near))["family"]
    agreed = 0
    for A, code in zip(near, codes):
        try:
            fam = classify(A).form.family
        except AmbiguousClassification:
            continue
        if FAMILY_CODES[code] != "boundary":
            assert FAMILY_CODES[code] == fam
            agreed += 1
    assert agreed > len(near) // 2
