import numpy as np
import pytest

from starcong import InvalidInput, classify_many, real_rank
from starcong.errors import SingularMatrix
from starcong.forms import DELTA2
from starcong.linalg import det2, eigenvalues2, inverse2

rng = np.random.default_rng(20240817)


def random_mat2():
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def test_star_congruence_det_invariant():
    for _ in range(30):
        A, S = random_mat2(), random_mat2()
        lhs = det2(S.conj().T @ A @ S)
        rhs = abs(det2(S)) ** 2 * det2(A)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_eigenvalues2_examples():
    assert eigenvalues2(np.diag([2, 3])) == (3, 2)
    p, q = eigenvalues2([[1, 2j], [0, 1]])
    assert p == 1 and q == 1
    p, q = eigenvalues2([[0, 1], [0.09, 0]])  # roots of x^2 = 0.09
    assert abs(p - 0.3) < 1e-15 and abs(q + 0.3) < 1e-15


def test_eigenvalues2_ordering():
    p, q = eigenvalues2(np.diag([1j, -1j]))
    assert p == 1j and q == -1j  # tie on modulus and Re, Im descending


def test_eigenvalues2_matches_numpy():
    for _ in range(100):
        A = random_mat2()
        ours = eigenvalues2(A)
        ref = sorted(np.linalg.eigvals(A), key=lambda z: (-abs(z), -z.real, -z.imag))
        for x, y in zip(ours, ref):
            assert abs(x - y) <= 1e-10 * max(1.0, abs(y))


def test_inverse2():
    np.testing.assert_allclose(inverse2(np.diag([2, 4])), np.diag([0.5, 0.25]))
    np.testing.assert_allclose(inverse2(DELTA2), [[-1j, 1], [1, 0]], atol=1e-15)
    with pytest.raises(SingularMatrix):
        inverse2(np.zeros((2, 2)))
    for _ in range(30):
        A = random_mat2()
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        resid = np.linalg.norm(A @ inverse2(A) - np.eye(2))
        assert resid <= 1e-12 * np.linalg.cond(A)


def test_cosquare_examples():
    res = classify_many(np.array([[[0, 1], [0.3, 0]], [[1, 0], [0, 0]]], dtype=complex))
    p, q = res["p"][0], res["q"][0]
    assert abs(p - 10 / 3) < 1e-12 and abs(q - 0.3) < 1e-12

    for A, K in ((DELTA2, [[1, 2j], [0, 1]]), (np.diag([1j, 1j]), -np.eye(2))):
        np.testing.assert_allclose(np.linalg.inv(A).conj().T @ A, K, atol=1e-15)
    # a singular matrix has no cosquare
    assert np.isnan(res["p"][1]) and np.isnan(res["q"][1])


def test_cosquare_reciprocal_conjugate_pairing():
    # the eigenvalue set is closed under z -> 1/conj(z); unimodular
    # eigenvalues are their own partners
    mats = [A for A in (random_mat2() for _ in range(100))
            if abs(np.linalg.det(A)) >= 1e-3 * np.linalg.norm(A) ** 2]
    res = classify_many(np.array(mats))
    for A, p, q in zip(mats, res["p"], res["q"]):
        tol = 1e-9 * np.linalg.cond(A) ** 2
        partner_ok = abs(p - 1 / np.conj(q)) <= tol * max(1, abs(p)) or (
            abs(p - 1 / np.conj(p)) <= tol * max(1, abs(p))
            and abs(q - 1 / np.conj(q)) <= tol * max(1, abs(q))
        )
        assert partner_ok
        assert abs(abs(p * q) - 1) <= tol


def test_real_rank():
    assert real_rank(np.zeros((8, 8))) == 0
    for n in (1, 3, 8):
        assert real_rank(np.eye(n)) == n
    assert real_rank([[1, 2], [2, 4]]) == 1


def test_real_rank_permutation_invariant():
    for _ in range(20):
        M = rng.standard_normal((5, 7))
        M[:, 3] = M[:, 0] + M[:, 1]  # force a rank drop
        r = real_rank(M)
        perm_rows = rng.permutation(5)
        perm_cols = rng.permutation(7)
        assert real_rank(M[perm_rows][:, perm_cols]) == r


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_inf_rejected(bad):
    M = np.eye(2, dtype=complex)
    M[0, 1] = bad
    for fn in (inverse2, eigenvalues2):
        with pytest.raises(InvalidInput):
            fn(M)
    with pytest.raises(InvalidInput):
        real_rank([[bad, 0], [0, 1]])
