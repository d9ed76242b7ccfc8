import numpy as np
import pytest

from starcong import (
    DeltaTau,
    Hyperbolic,
    UnitDirectZero,
    UnitPair,
    Zero,
    codimension,
    random_congruence,
    realize,
    tangent_space_dim,
    versal_profile,
)
from starcong.forms import DELTA2
from starcong.stratify import EPS_IMAGINARY, EPS_REAL, FIXED_ZERO, STAR

rng = np.random.default_rng(411)


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def test_tangent_dims_at_canonical_points():
    assert tangent_space_dim(np.zeros((2, 2))) == 0      # codim 8
    assert tangent_space_dim(DELTA2) == 6                # codim 2
    assert tangent_space_dim(np.diag([1, -1])) == 4      # codim 4
    assert tangent_space_dim(np.diag([1j, 0])) == 3      # codim 5


def test_codimension_examples():
    assert codimension(Hyperbolic(0.3j)) == 2
    assert codimension(UnitPair(1j, 1j)) == 4
    assert codimension(UnitDirectZero(unit(2.0))) == 5
    assert codimension(Zero()) == 8


@pytest.mark.parametrize("k", range(12))
def test_codimension_level_table(k):
    u = unit(0.5 * k + 0.05)
    v = unit(0.5 * k + 1.3)
    assert codimension(UnitPair(u, v)) == 2
    assert codimension(Hyperbolic(0.7 * u * (0.1 + 0.05 * k))) == 2
    assert codimension(DeltaTau(u)) == 2
    assert codimension(UnitPair(u, u)) == 4
    assert codimension(UnitPair(u, -u)) == 4
    assert codimension(UnitDirectZero(u)) == 5
    # the table agrees with the definition, 8 - dim of the tangent space
    for form in (UnitPair(u, v), Hyperbolic(0.7 * u * (0.1 + 0.05 * k)), DeltaTau(u),
                 UnitPair(u, u), UnitPair(u, -u), UnitDirectZero(u), Zero()):
        assert codimension(form) == 8 - tangent_space_dim(realize(form)), form


def test_tangent_dim_congruence_invariant():
    forms = [UnitPair(unit(0.7), unit(2.0)), Hyperbolic(0.4), DeltaTau(unit(1.1)),
             UnitDirectZero(unit(0.3)), UnitPair(1j, -1j)]
    for k, form in enumerate(forms):
        base = tangent_space_dim(realize(form))
        for s in range(8):
            _, member = random_congruence(form, seed=97 * k + s)
            assert tangent_space_dim(member) == base


def test_first_order_expansion_bound():
    for _ in range(100):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C /= np.linalg.norm(C)
        for eps in (1e-4, 1e-5):
            lhs = (np.eye(2) + eps * C).conj().T @ A @ (np.eye(2) + eps * C)
            resid = lhs - A - eps * (C.conj().T @ A + A @ C)
            assert np.linalg.norm(resid) <= 2 * eps**2 * np.linalg.norm(A)


def test_versal_profiles():
    p = versal_profile(Zero())
    assert p.grid == ((STAR, STAR), (STAR, STAR))
    assert (p.star_count, p.eps_count) == (4, 0)

    p = versal_profile(UnitDirectZero(1))
    assert p.grid == ((EPS_IMAGINARY, FIXED_ZERO), (STAR, STAR))
    assert 2 * p.star_count + p.eps_count == 5

    p = versal_profile(UnitDirectZero(unit(0.4)))
    assert p.grid[0][0] == EPS_REAL

    p = versal_profile(DeltaTau(unit(1.2)))
    assert p.grid == ((STAR, FIXED_ZERO), (FIXED_ZERO, FIXED_ZERO))
    assert 2 * p.star_count + p.eps_count == 2

    p = versal_profile(Hyperbolic(0.2 + 0.1j))
    assert p.grid == ((FIXED_ZERO, FIXED_ZERO), (STAR, FIXED_ZERO))
    assert 2 * p.star_count + p.eps_count == 2

    # generic pair: two eps cells on the diagonal, no stars
    p = versal_profile(UnitPair(1, unit(0.8)))
    assert p.grid == ((EPS_IMAGINARY, FIXED_ZERO), (FIXED_ZERO, EPS_REAL))
    assert (p.star_count, p.eps_count) == (0, 2)

    # the antipodal pair sits one level deeper: a star appears
    p = versal_profile(UnitPair(1j, -1j))
    assert p.grid == ((EPS_REAL, FIXED_ZERO), (STAR, EPS_REAL))
    assert 2 * p.star_count + p.eps_count == 4 == codimension(UnitPair(1j, -1j))

    p = versal_profile(UnitPair(-1, -1))
    assert p.grid == ((EPS_IMAGINARY, FIXED_ZERO), (STAR, EPS_IMAGINARY))


def test_versal_consistency_on_grid():
    thetas = [2 * np.pi * k / 25 + 0.03 for k in range(25)]
    forms = [Zero()]
    for t in thetas:
        u = unit(t)
        forms += [
            UnitDirectZero(u),
            UnitPair(u, unit(t + 1.1)),
            UnitPair(u, u),
            UnitPair(u, -u),
            Hyperbolic(0.6 * u),
            DeltaTau(u),
        ]
    for form in forms:
        p = versal_profile(form)
        assert 2 * p.star_count + p.eps_count == codimension(form), form


def test_codim_constant_except_pair_split():
    u = unit(0.9)
    # straddle the antipodal split: nearby generic pairs stay at codim 2
    for eps in (1e-3, 1e-2, 0.1):
        v = unit(0.9 + np.pi + eps)
        assert codimension(UnitPair(u, v)) == 2
    assert codimension(UnitPair(u, -u)) == 4
    for eps in (1e-3, 1e-2, 0.1):
        v = unit(0.9 + eps)
        assert codimension(UnitPair(u, v)) == 2
    assert codimension(UnitPair(u, u)) == 4
