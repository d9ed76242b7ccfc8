"""Tangent spaces, codimension over R, and deformation templates.

The tangent space to the *congruence class of A at A is the real span of
{C* A + A C}; its dimension is computed as the real rank of the induced
8x8 map on the basis {E_jk, i E_jk}.  Codimension is 8 minus that; it is
served from the closed-form family table, with the rank as its cross-check.

The deformation template of a canonical form is the minimal parametric
normal form to which all nearby matrices can be reduced by transformations
holomorphic in the perturbation; it is table-driven here, and the identity
2 * (#stars) + (#eps cells) == codimension is its cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .forms import CanonicalForm, DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero
from .linalg import as_mat2, real_rank

FIXED_ZERO = "fixed-zero"
STAR = "star"
EPS_REAL = "eps-real"
EPS_IMAGINARY = "eps-imaginary"

#: Parameters within this distance of the real axis use the pure-imaginary
#: rule for their eps cell.
REAL_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class VersalProfile:
    """2x2 grid of deformation entry kinds plus the star/eps counts."""

    grid: tuple[tuple[str, str], tuple[str, str]]
    star_count: int
    eps_count: int


# Basis/flattening order for R^8: (Re a11, Im a11, Re a12, Im a12,
# Re a21, Im a21, Re a22, Im a22).
def _flatten_real(M: np.ndarray) -> list[float]:
    return [
        M[0, 0].real, M[0, 0].imag,
        M[0, 1].real, M[0, 1].imag,
        M[1, 0].real, M[1, 0].imag,
        M[1, 1].real, M[1, 1].imag,
    ]


def tangent_space_dim(A) -> int:
    """dim_R of {C* A + A C : C complex 2x2}."""
    A = as_mat2(A)
    cols = []
    for j in range(2):
        for k in range(2):
            for unit in (1.0, 1.0j):
                C = np.zeros((2, 2), dtype=np.complex128)
                C[j, k] = unit
                cols.append(_flatten_real(C.conj().T @ A + A @ C))
    return real_rank(np.array(cols).T)


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
