"""Tangent spaces, codimension over R, and deformation templates.

The tangent space to the *congruence class of A at A is the real span of
{C* A + A C}; its dimension is computed as the real rank of the induced
8x8 map on the basis {E_jk, i E_jk}, built from A's four entries and reduced
in pure Python, without numpy.  Codimension is 8 minus that; it is served
from the closed-form family table, with the rank as its cross-check.

The deformation template of a canonical form is the minimal parametric
normal form to which all nearby matrices can be reduced by transformations
holomorphic in the perturbation; it is table-driven here, and the identity
2 * (#stars) + (#eps cells) == codimension is its cross-check.
"""

from __future__ import annotations

from .errors import InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, _Record
from .linalg import _mat2_entries, real_rank

FIXED_ZERO = "fixed-zero"
STAR = "star"
EPS_REAL = "eps-real"
EPS_IMAGINARY = "eps-imaginary"

#: Parameters within this distance of the real axis use the pure-imaginary
#: rule for their eps cell.
REAL_AXIS_TOL = 1e-9


class VersalProfile(_Record):
    """2x2 grid of deformation entry kinds plus the star/eps counts."""

    __match_args__ = ("grid", "star_count", "eps_count")

    def __init__(self, grid: tuple[tuple[str, str], tuple[str, str]], star_count: int, eps_count: int):
        d = self.__dict__
        d["grid"], d["star_count"], d["eps_count"] = grid, star_count, eps_count
        d["_key"] = (grid, star_count, eps_count)


def tangent_space_dim(A) -> int:
    """dim_R of {C* A + A C : C complex 2x2}.

    A is read as classify reads it.  C = u E_jk puts conj(u) times row j of A
    into row k of C* A and u times column j of A into column k of A C.
    Columns 4j + 2k and 4j + 2k + 1 of the 8x8 map are the images of E_jk and
    i E_jk, flattened as (Re m00, Im m00, Re m01, ..., Im m11).
    """
    a = _mat2_entries(A)
    cols = []
    for j in range(2):
        for k in range(2):
            for u in (1.0, 1j):
                M = [0j, 0j, 0j, 0j]
                for s in range(2):
                    M[2 * k + s] += u.conjugate() * a[2 * j + s]
                    M[2 * s + k] += a[2 * s + j] * u
                cols.append([x for z in M for x in (z.real, z.imag)])
    return real_rank([list(row) for row in zip(*cols)])


def codimension(form: CanonicalForm) -> int:
    """Real codimension of the class of ``form``, from the family table.

    The definition is ``8 - tangent_space_dim(realize(form))``; the tests and
    ``starcong selftest`` check the table against it.
    """
    if isinstance(form, Zero):
        return 8
    if isinstance(form, UnitDirectZero):
        return 5
    if isinstance(form, UnitPair):
        return 4 if (form.equal_pair or form.antipodal) else 2
    if isinstance(form, (Hyperbolic, DeltaTau)):
        return 2
    raise InvalidInput(f"not a canonical form: {form!r}")


def _eps_kind(param: complex) -> str:
    return EPS_IMAGINARY if abs(param.imag) <= REAL_AXIS_TOL else EPS_REAL


def versal_profile(form: CanonicalForm) -> VersalProfile:
    """Deformation template grid for ``form``."""
    if isinstance(form, Zero):
        grid = ((STAR, STAR), (STAR, STAR))
    elif isinstance(form, UnitDirectZero):
        grid = ((_eps_kind(form.lam), FIXED_ZERO), (STAR, STAR))
    elif isinstance(form, UnitPair):
        if form.equal_pair or form.antipodal:
            grid = ((_eps_kind(form.mu), FIXED_ZERO), (STAR, _eps_kind(form.nu)))
        else:
            grid = ((_eps_kind(form.mu), FIXED_ZERO), (FIXED_ZERO, _eps_kind(form.nu)))
    elif isinstance(form, Hyperbolic):
        grid = ((FIXED_ZERO, FIXED_ZERO), (STAR, FIXED_ZERO))
    elif isinstance(form, DeltaTau):
        grid = ((STAR, FIXED_ZERO), (FIXED_ZERO, FIXED_ZERO))
    else:
        raise InvalidInput(f"not a canonical form: {form!r}")
    cells = [kind for row in grid for kind in row]
    return VersalProfile(
        grid,
        star_count=sum(kind == STAR for kind in cells),
        eps_count=sum(kind in (EPS_REAL, EPS_IMAGINARY) for kind in cells),
    )
