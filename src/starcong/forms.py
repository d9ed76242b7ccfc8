"""The five 2x2 *congruence canonical families and their text syntax.

Families and representative matrices:

    zero                  [[0,0],[0,0]]
    udz(lambda)           diag(lambda, 0),          |lambda| = 1
    pair(mu, nu)          diag(mu, nu),             |mu| = |nu| = 1, unordered
    hyp(sigma)            [[0,1],[sigma,0]],        |sigma| < 1 (sigma=0 is the
                                                    rank-1 nilpotent class)
    delta(tau)            tau * [[0,1],[1,i]],      |tau| = 1

Unimodular parameters are re-normalized to exact unit modulus on
construction; the pair family stores its two parameters ordered by
(Re desc, Im desc) so equality is order-insensitive.

Text grammar (used by the CLI and DOT labels)::

    zero | udz(<c>) | pair(<c>,<c>) | hyp(<c>) | delta(<c>)

where ``<c>`` is a complex literal (surrounding whitespace stripped): ``[+-]x``,
``[+-]x+[y]i``, ``[+-]x-[y]i`` or ``[+-][y]i``, with x, y decimals (``12``,
``1.``, ``.5``) with an optional exponent (``e7``, ``E-7``) and y = 1 when
omitted; no inner spaces, ``j``, ``nan`` or ``inf``.  Formatting emits 17
significant digits so every printed value re-parses to the same float.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormSyntaxError, InvalidInput
from .linalg import _check_scalar


def _unimodular(z: complex, name: str) -> complex:
    z = _check_scalar(z, name)
    mod = abs(z)
    if mod == 0.0:
        raise InvalidInput(f"{name} must be nonzero")
    if abs(mod - 1.0) > 1e-9:
        raise InvalidInput(f"{name} must have unit modulus, |{name}| = {mod!r}")
    z = z / mod
    # flush signed zeros so equal forms compare equal
    return complex(z.real + 0.0, z.imag + 0.0)


@dataclass(frozen=True)
class CanonicalForm:
    """Base of the five-variant tagged union."""

    @property
    def family(self) -> str:
        return _FAMILY[type(self)]


@dataclass(frozen=True)
class Zero(CanonicalForm):
    pass


@dataclass(frozen=True)
class UnitDirectZero(CanonicalForm):
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "lam", _unimodular(self.lam, "lambda"))


@dataclass(frozen=True)
class UnitPair(CanonicalForm):
    mu: complex
    nu: complex

    def __post_init__(self):
        a = _unimodular(self.mu, "mu")
        b = _unimodular(self.nu, "nu")
        if (a.real, a.imag) < (b.real, b.imag):
            a, b = b, a
        object.__setattr__(self, "mu", a)
        object.__setattr__(self, "nu", b)

    @property
    def antipodal(self) -> bool:
        # exact comparison after re-normalization, by design
        return self.nu == -self.mu

    @property
    def equal_pair(self) -> bool:
        return self.nu == self.mu


@dataclass(frozen=True)
class Hyperbolic(CanonicalForm):
    sigma: complex

    def __post_init__(self):
        s = _check_scalar(self.sigma, "sigma")
        if abs(s) >= 1.0:
            raise InvalidInput(f"|sigma| must be < 1, got {abs(s)!r}")
        object.__setattr__(self, "sigma", complex(s.real + 0.0, s.imag + 0.0))


@dataclass(frozen=True)
class DeltaTau(CanonicalForm):
    tau: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", _unimodular(self.tau, "tau"))


_FAMILY = {
    Zero: "zero",
    UnitDirectZero: "udz",
    UnitPair: "pair",
    Hyperbolic: "hyp",
    DeltaTau: "delta",
}


def _entries(form: CanonicalForm) -> tuple[complex, complex, complex, complex]:
    """Entries (m00, m01, m10, m11) of the representative of ``form``, as Python complex."""
    if isinstance(form, Zero):
        return 0j, 0j, 0j, 0j
    if isinstance(form, UnitDirectZero):
        return form.lam, 0j, 0j, 0j
    if isinstance(form, UnitPair):
        return form.mu, 0j, 0j, form.nu
    if isinstance(form, Hyperbolic):
        return 0j, 1 + 0j, form.sigma, 0j
    if isinstance(form, DeltaTau):
        # tau * [[0, 1], [1, i]]: every product is exact
        tau = form.tau
        return tau * 0j, tau * (1 + 0j), tau * (1 + 0j), tau * 1j
    raise InvalidInput(f"not a canonical form: {form!r}")


def realize(form: CanonicalForm) -> np.ndarray:
    """Canonical representative matrix of ``form``, a complex128 (2, 2) array.

    Built from ``_entries``, which the scalar code (witnesses, certificates)
    reads directly, so this is the one function here that imports numpy.
    """
    import numpy as np

    return np.array(_entries(form)).reshape(2, 2)


def forms_close(f: CanonicalForm, g: CanonicalForm, tol: float) -> bool:
    """Same variant with parameters within ``tol`` (pair compared as a set)."""
    if type(f) is not type(g):
        return False
    p, q = param_tuple(f), param_tuple(g)
    return min(max((abs(x - y) for x, y in zip(p, r)), default=0.0) for r in (q, q[::-1])) <= tol


def param_tuple(form: CanonicalForm) -> tuple[complex, ...]:
    if isinstance(form, Zero):
        return ()
    if isinstance(form, UnitDirectZero):
        return (form.lam,)
    if isinstance(form, UnitPair):
        return (form.mu, form.nu)
    if isinstance(form, Hyperbolic):
        return (form.sigma,)
    if isinstance(form, DeltaTau):
        return (form.tau,)
    raise InvalidInput(f"not a canonical form: {form!r}")


# --- text syntax ------------------------------------------------------------

def format_real(x: float) -> str:
    """17 significant digits; round-trips through float()."""
    if x == 0.0:
        return "0"
    return "%.17g" % x


def format_complex(z: complex) -> str:
    re_, im = z.real + 0.0, z.imag + 0.0
    if im == 0.0:
        return format_real(re_)
    im_str = format_real(im) + "i"
    if re_ == 0.0:
        return im_str
    sep = "+" if not im_str.startswith("-") else ""
    return format_real(re_) + sep + im_str


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_COMPLEX = re.compile(rf"(?P<re>[+-]?{_NUM})(?:(?P<imsign>[+-])(?P<imcoef>{_NUM})?i)?"
                         rf"|(?P<sign>[+-]?)(?P<coef>{_NUM})?i")


def parse_complex(text: str) -> complex:
    m = _RE_COMPLEX.fullmatch(text.strip())
    if m is None:
        raise FormSyntaxError(f"bad complex literal: {text!r}")
    re_, imsign, imcoef, sign, coef = m.groups()
    if re_ is None:
        coef = float(coef) if coef else 1.0
        return complex(0.0, -coef if sign == "-" else coef)
    if imsign is None:
        return complex(float(re_), 0.0)
    coef = float(imcoef) if imcoef else 1.0
    return complex(float(re_), -coef if imsign == "-" else coef)


_RE_FORM = re.compile(r"^(?P<head>[a-z]+)\s*(?:\((?P<args>[^)]*)\))?$")


def format_form(form: CanonicalForm) -> str:
    name = form.family
    params = param_tuple(form)
    if not params:
        return name
    return f"{name}({','.join(format_complex(p) for p in params)})"


def parse_form(text: str) -> CanonicalForm:
    m = _RE_FORM.match(text.strip())
    if not m:
        raise FormSyntaxError(f"bad canonical form: {text!r}")
    head = m.group("head")
    args = m.group("args")
    parts = [p for p in (args.split(",") if args else []) if p.strip() != ""]
    try:
        if head == "zero":
            if parts:
                raise FormSyntaxError("zero takes no parameters")
            return Zero()
        if head == "udz" and len(parts) == 1:
            return UnitDirectZero(parse_complex(parts[0]))
        if head == "pair" and len(parts) == 2:
            return UnitPair(parse_complex(parts[0]), parse_complex(parts[1]))
        if head == "hyp" and len(parts) == 1:
            return Hyperbolic(parse_complex(parts[0]))
        if head == "delta" and len(parts) == 1:
            return DeltaTau(parse_complex(parts[0]))
    except InvalidInput as exc:
        raise FormSyntaxError(f"invalid parameters in {text!r}: {exc}") from exc
    raise FormSyntaxError(f"bad canonical form: {text!r}")
