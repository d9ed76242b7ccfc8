"""Tangent spaces, codimension over R, and deformation templates.

The tangent space to the *congruence class of A at A is the real span of
{C* A + A C}; its dimension is the exact rank of the induced 8x8 map on the
basis {E_jk, i E_jk}, built over the integers from A's stored doubles without
numpy.  Codimension is 8 minus that; it is served from the closed-form family
table, which lives on the form classes as their ``codim`` attribute (next to
``family``), with the rank as its cross-check.

The deformation template of a canonical form is the minimal parametric
normal form to which all nearby matrices can be reduced by transformations
holomorphic in the perturbation; it is table-driven here, and the identity
2 * (#stars) + (#eps cells) == codimension is its cross-check.
"""

from __future__ import annotations

from .errors import InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, _Record
from .linalg import _dyadic, _mat2_entries, real_rank

FIXED_ZERO = "fixed-zero"
STAR = "star"
EPS_REAL = "eps-real"
EPS_IMAGINARY = "eps-imaginary"


class VersalProfile(_Record):
    """2x2 grid of deformation entry kinds plus the star/eps counts."""

    __match_args__ = ("grid", "star_count", "eps_count")

    def __init__(self, grid: tuple[tuple[str, str], tuple[str, str]], star_count: int, eps_count: int):
        d = self.__dict__
        d["grid"], d["star_count"], d["eps_count"] = grid, star_count, eps_count
        d["_key"] = (grid, star_count, eps_count)


def tangent_space_dim(A) -> int:
    """dim_R of {C* A + A C : C complex 2x2}, the exact rank of ``_tangent_map(A)``.

    On a representative, the dimension of its class; on any other matrix, that
    of the class its doubles lie in, at most 6 as every codimension is 2 or
    more.  The cost grows with the spread of the entries' binary exponents.
    """
    return real_rank(_tangent_map(A))


def _tangent_map(A) -> list[list[int]]:
    """The columns of the map C -> C* A + A C on R^8, on A's parts scaled to integers.

    A is read as classify reads it.  C = u E_jk puts conj(u) times row j of A
    into row k and u times column j of A into column k.  Columns 4j + 2k and
    4j + 2k + 1, the images of E_jk and i E_jk, list (Re m00, Im m00, ..., Im m11).
    """
    a = _dyadic([[z.real, z.imag] for z in _mat2_entries(A)])  # a_00, a_01, a_10, a_11 as (Re, Im)
    cols = []
    for j, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for ur, ui in ((1, 0), (0, 1)):
            M = [0] * 8
            for s in range(2):
                (x, y), (v, w) = a[2 * j + s], a[2 * s + j]
                M[4 * k + 2 * s] += ur * x + ui * y  # conj(u) a_js into (k, s)
                M[4 * k + 2 * s + 1] += ur * y - ui * x
                M[4 * s + 2 * k] += ur * v - ui * w  # u a_sj into (s, k)
                M[4 * s + 2 * k + 1] += ur * w + ui * v
            cols.append(M)
    return cols


def codimension(form: CanonicalForm) -> int:
    """Real codimension of the class of ``form``, from the family table.

    The table is the forms' ``codim`` attribute: zero 8, udz 5, pair(m, +-m)
    4, and 2 for a generic pair, hyp and delta.  A non-form and the bare
    ``CanonicalForm`` raise InvalidInput.  The definition is
    ``8 - tangent_space_dim(realize(form))``; the tests and ``starcong
    selftest`` check the table against it.
    """
    codim = form.codim if isinstance(form, CanonicalForm) else None
    if codim is None:
        raise InvalidInput(f"not a canonical form: {form!r}")
    return codim


def _eps_kind(param: complex) -> str:
    """Imaginary iff the stored unit parameter is real, that is, +-1: the tangent direction at it is R times it."""
    return EPS_IMAGINARY if param.imag == 0.0 else EPS_REAL


def versal_profile(form: CanonicalForm) -> VersalProfile:
    """Deformation template grid for ``form``."""
    if isinstance(form, Zero):
        grid = ((STAR, STAR), (STAR, STAR))
    elif isinstance(form, UnitDirectZero):
        grid = ((_eps_kind(form.lam), FIXED_ZERO), (STAR, STAR))
    elif isinstance(form, UnitPair):
        if form.codim == 4:  # pair(m, +-m)
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
