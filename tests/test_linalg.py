import re

import numpy as np
import pytest

from starcong import InvalidInput, classify, classify_many, real_rank, tangent_space_dim
from starcong.errors import SingularMatrix
from starcong.linalg import _form, _norm4, as_mat2, eigenvalues2, hermitian_eigenvalues, inverse2

DELTA2 = np.array([[0, 1], [1, 1j]])

rng = np.random.default_rng(20240817)


def random_mat2():
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def det(A):
    return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]


def test_star_congruence_det_invariant():
    for _ in range(30):
        A, S = random_mat2(), random_mat2()
        lhs = det(S.conj().T @ A @ S)
        rhs = abs(det(S)) ** 2 * det(A)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_form_builds_the_star_congruence():
    # entry (i, j) of S* N S is col_i(S)* N col_j(S)
    for _ in range(30):
        N, S = random_mat2(), random_mat2()
        n = N.ravel().tolist()
        cols = [S[:, 0].tolist(), S[:, 1].tolist()]
        got = np.array([[_form(*n, x, y) for y in cols] for x in cols])
        want = S.conj().T @ N @ S
        assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(N) * np.linalg.norm(S) ** 2


def test_norm4_matches_numpy():
    for scale in (1.0, 1e-170, 1e170, 1e-300, 1e300):
        for _ in range(20):
            A = random_mat2()
            want = np.linalg.norm(A)
            got = _norm4(*(scale * A).ravel().tolist())
            assert isinstance(got, float)
            assert abs(got / scale - want) <= 4e-16 * want
    # the array branch is the one classify_many uses
    As = np.array([random_mat2() for _ in range(20)])
    got = _norm4(As[:, 0, 0], As[:, 0, 1], As[:, 1, 0], As[:, 1, 1])
    np.testing.assert_allclose(got, np.linalg.norm(As, axis=(1, 2)), rtol=1e-15)


def test_hermitian_eigenvalues_match_eigvalsh():
    local = np.random.default_rng(5)
    for scale in 10.0 ** np.arange(-8, 9):
        for _ in range(20):
            h00, h11 = scale * local.standard_normal(2)
            h01 = scale * complex(*local.standard_normal(2))
            want = np.linalg.eigvalsh(np.array([[h00, h01], [np.conj(h01), h11]]))
            got = hermitian_eigenvalues(h00, h11, h01)
            assert np.all(np.abs(np.array(got) - want) <= 1e-12 * np.abs(want).max())


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


# as_mat2 is the input check of classify and tangent_space_dim
MAT2_USERS = [as_mat2, classify, tangent_space_dim]


@pytest.mark.parametrize("fn", MAT2_USERS)
@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
                                 complex(0, np.inf), complex(-np.inf, 0), complex(0, -np.inf)])
def test_mat2_rejects_nonfinite_parts(fn, bad):
    M = np.eye(2, dtype=complex)
    M[1, 0] = bad
    with pytest.raises(InvalidInput, match=r"^matrix contains NaN or Inf entries$"):
        fn(M)


@pytest.mark.parametrize("fn", MAT2_USERS)
@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 2)])
def test_mat2_rejects_shapes(fn, shape):
    with pytest.raises(InvalidInput, match=f"^{re.escape(f'expected a 2x2 matrix, got shape {shape}')}$"):
        fn(np.zeros(shape))


@pytest.mark.parametrize("fn", MAT2_USERS)
@pytest.mark.parametrize("bad", ["abc", [["1", "x"], ["0", "0"]], {"a": 1}])
def test_mat2_non_numeric_fails_as_numpy_conversion_does(fn, bad):
    with pytest.raises(Exception) as want:
        np.asarray(bad, dtype=np.complex128)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        fn(bad)


@pytest.mark.parametrize("A", [np.eye(2, dtype=complex), np.eye(2), [[1, 2], [3, 4j]]])
def test_as_mat2_returns_a_fresh_array(A):
    M = as_mat2(A)
    assert type(M) is np.ndarray and M.dtype == np.complex128 and M.shape == (2, 2)
    M[0, 0] = 7
    assert np.asarray(A)[0, 0] != 7
