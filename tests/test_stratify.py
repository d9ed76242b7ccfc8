import cmath
from types import SimpleNamespace

import numpy as np
import pytest

from starcong import (
    CanonicalForm,
    DeltaTau,
    Hyperbolic,
    InvalidInput,
    UnitDirectZero,
    UnitPair,
    Zero,
    codimension,
    random_congruence,
    realize,
    tangent_space_dim,
    versal_profile,
)
from starcong.forms import _entries
from starcong.stratify import EPS_IMAGINARY, EPS_REAL, FIXED_ZERO, STAR, _tangent_map

import exact
from test_linalg import exact_rank, sweep_forms

rng = np.random.default_rng(411)

#: Codimension of each family the exact oracle names.
EXACT_CODIM = {"zero": 8, "udz": 5, "pair(l,+-l)": 4, "hyp(0)": 2, "hyp": 2, "pair": 2, "delta": 2}


def unit(theta):
    return complex(np.cos(theta), np.sin(theta))


def test_tangent_dims_at_canonical_points():
    assert tangent_space_dim(np.zeros((2, 2))) == 0      # codim 8
    assert tangent_space_dim([[0, 1], [1, 1j]]) == 6     # codim 2
    assert tangent_space_dim(np.diag([1, -1])) == 4      # codim 4
    assert tangent_space_dim(np.diag([1j, 0])) == 3      # codim 5


def test_codimension_examples():
    assert codimension(Hyperbolic(0.3j)) == 2
    assert codimension(UnitPair(1j, 1j)) == 4
    assert codimension(UnitDirectZero(unit(2.0))) == 5
    assert codimension(Zero()) == 8


@pytest.mark.parametrize("bad", [None, 3, "x", CanonicalForm(), SimpleNamespace(codim=2, family="hyp")])
def test_codimension_refuses_non_forms(bad):
    with pytest.raises(InvalidInput, match=r"^not a canonical form: "):
        codimension(bad)


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
    # the table, the forms' codim attribute, agrees with the definition,
    # 8 - dim of the tangent space
    for form in (UnitPair(u, v), Hyperbolic(0.7 * u * (0.1 + 0.05 * k)), DeltaTau(u),
                 UnitPair(u, u), UnitPair(u, -u), UnitDirectZero(u), Zero()):
        assert form.codim == codimension(form) == 8 - tangent_space_dim(realize(form)), form


def test_tangent_dim_congruence_invariant():
    # S* rep S with S over {0, +-1, +-i, +-1/2} is exact in doubles, so it is
    # a member of the class and has the class's tangent dimension
    units = (1, -1, 1j, -1j)
    forms = [*map(UnitDirectZero, units), *(UnitPair(u, u) for u in units), *(UnitPair(u, -u) for u in units),
             Hyperbolic(0.5), UnitPair(1, 1j), DeltaTau(1), DeltaTau(1j), Zero()]
    values = np.array([0, 1, -1, 1j, -1j, 0.5, -0.5])
    local = np.random.default_rng(97)
    for form in forms:
        rep = realize(form)
        members = 0
        while members < 8:
            S = local.choice(values, size=(2, 2))
            if S[0, 0] * S[1, 1] == S[0, 1] * S[1, 0]:
                continue
            members += 1
            assert tangent_space_dim(S.conj().T @ rep @ S) == 8 - codimension(form), (form, S)
    # a rounded member lies, on its doubles, in a class of codimension 2, or
    # of codimension 4 where rounding keeps S* (l H) S l times a Hermitian
    # matrix, l in {+-1, +-i}; the exact oracle names the same class
    cases = [(UnitPair(unit(0.7), unit(2.0)), 6), (Hyperbolic(0.4), 6), (DeltaTau(unit(1.1)), 6),
             (UnitDirectZero(unit(0.3)), 6), (UnitPair(unit(0.2), unit(0.2)), 6), (UnitPair(1j, -1j), 4),
             (UnitDirectZero(1), 4)]
    for k, (form, dim) in enumerate(cases):
        for s in range(8):
            _, member = random_congruence(form, seed=97 * k + s)
            assert tangent_space_dim(member) == dim == 8 - EXACT_CODIM[exact.family(member)], (form, member)


def test_versal_directions_complete_the_tangent_space():
    # transversality: the tangent map's columns plus the profile's directions
    # (E_jk and i E_jk per star cell, E_jj per eps-real and i E_jj per
    # eps-imaginary cell) span R^8
    directions = {STAR: (0, 1), EPS_REAL: (0,), EPS_IMAGINARY: (1,), FIXED_ZERO: ()}
    forms = sweep_forms()
    for t in (1e-12, 1e-300, np.pi / 2 + 1e-13):
        forms += [UnitDirectZero(cmath.exp(1j * t)), DeltaTau(cmath.exp(1j * t))]
    for form in forms:
        grid = versal_profile(form).grid
        cols = [[int(i == 4 * j + 2 * k + part) for i in range(8)]
                for j in range(2) for k in range(2) for part in directions[grid[j][k]]]
        e = _entries(form)
        assert exact_rank(_tangent_map([e[:2], e[2:]]) + cols) == 8, form


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


def test_eps_kind_read_off_the_stored_double():
    # the eps cell is imaginary iff the parameter is exactly +-1
    for lam, kind in ((1, EPS_IMAGINARY), (-1, EPS_IMAGINARY), (cmath.exp(1e-12j), EPS_REAL),
                      (cmath.exp(1e-300j), EPS_REAL), (-cmath.exp(-1e-300j), EPS_REAL)):
        assert versal_profile(UnitDirectZero(lam)).grid[0][0] == kind, lam


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
