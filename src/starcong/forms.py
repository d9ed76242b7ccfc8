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
omitted, a digit any Unicode decimal digit; no inner spaces, ``j``, ``nan`` or
``inf``, checked before ``complex()`` reads it.  Formatting emits 17
significant digits so every printed value re-parses to the same float.
"""

from __future__ import annotations

import re

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


class _Record:
    """Immutable value: the base of the package's forms and reports.

    A subclass names its fields in ``__match_args__`` and writes its own
    ``__init__``, which stores each field and the tuple of all of them, ``_key``,
    straight into the instance dict.  Records are equal when their types are
    the same and their keys are equal, hash as ``hash(_key)`` and print as
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError.  The key is stored, not built per call, because forms are
    compared and hashed in the closure and classification loops.
    """

    __match_args__ = ()
    _key = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class CanonicalForm(_Record):
    """Base of the five-variant tagged union.

    Each variant names its family in the class attribute ``family``, the head
    of its text syntax, and its real codimension in ``codim``, the table
    ``stratify.codimension`` serves (a subclass inherits both; the base has
    None).  It stores its parameters as the tuple ``_key``, in
    ``__match_args__`` order.
    """

    family = None
    codim = None


class Zero(CanonicalForm):
    family = "zero"
    codim = 8


class UnitDirectZero(CanonicalForm):
    family = "udz"
    codim = 5
    __match_args__ = ("lam",)

    def __init__(self, lam: complex):
        lam = _unimodular(lam, "lambda")
        d = self.__dict__
        d["lam"], d["_key"] = lam, (lam,)


class UnitPair(CanonicalForm):
    family = "pair"
    __match_args__ = ("mu", "nu")

    def __init__(self, mu: complex, nu: complex):
        a = _unimodular(mu, "mu")
        b = _unimodular(nu, "nu")
        if (a.real, a.imag) < (b.real, b.imag):
            a, b = b, a
        d = self.__dict__
        d["mu"], d["nu"], d["_key"] = a, b, (a, b)

    @property
    def antipodal(self) -> bool:
        # exact comparison after re-normalization, by design
        return self.nu == -self.mu

    @property
    def codim(self) -> int:
        """4 for pair(m, +-m), 2 for a generic pair."""
        mu, nu = self.mu, self.nu
        return 4 if nu == mu or nu == -mu else 2


class Hyperbolic(CanonicalForm):
    family = "hyp"
    codim = 2
    __match_args__ = ("sigma",)

    def __init__(self, sigma: complex):
        s = _check_scalar(sigma, "sigma")
        if abs(s) >= 1.0:
            raise InvalidInput(f"|sigma| must be < 1, got {abs(s)!r}")
        s = complex(s.real + 0.0, s.imag + 0.0)
        d = self.__dict__
        d["sigma"], d["_key"] = s, (s,)


class DeltaTau(CanonicalForm):
    family = "delta"
    codim = 2
    __match_args__ = ("tau",)

    def __init__(self, tau: complex):
        tau = _unimodular(tau, "tau")
        d = self.__dict__
        d["tau"], d["_key"] = tau, (tau,)


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
    p, q = f._key, g._key
    return min(max((abs(x - y) for x, y in zip(p, r)), default=0.0) for r in (q, q[::-1])) <= tol


# --- text syntax ------------------------------------------------------------

def format_real(x: float) -> str:
    """17 significant digits; round-trips through float()."""
    if x == 0.0:
        return "0"
    return "%.17g" % x


def format_complex(z: complex) -> str:
    re_, im = z.real + 0.0, z.imag + 0.0  # + 0.0 flushes -0.0 to 0.0
    if im == 0.0:
        return "%.17g" % re_
    if re_ == 0.0:
        return "%.17gi" % im
    return "%.17g%+.17gi" % (re_, im)


_NOT_DIGIT = str.maketrans("", "", ".eE+-i")


def parse_complex(text: str) -> complex:
    s = text.strip()
    # complex() also reads j, J, (), _, spaces, nan, inf: only digits may remain inside
    rest = s.strip("0123456789.eE+-i")
    if not rest or rest.translate(_NOT_DIGIT).isdecimal():
        try:
            return complex(s.replace("i", "j"))
        except ValueError:
            pass
    raise FormSyntaxError(f"bad complex literal: {text!r}")


_RE_FORM = re.compile(r"^(?P<head>[a-z]+)\s*(?:\((?P<args>[^)]*)\))?$")
_BY_FAMILY = {cls.family: cls for cls in (Zero, UnitDirectZero, UnitPair, Hyperbolic, DeltaTau)}


def format_form(form: CanonicalForm) -> str:
    if isinstance(form, UnitPair):
        return f"pair({format_complex(form.mu)},{format_complex(form.nu)})"
    if isinstance(form, DeltaTau):
        return f"delta({format_complex(form.tau)})"
    if isinstance(form, UnitDirectZero):
        return f"udz({format_complex(form.lam)})"
    if isinstance(form, Hyperbolic):
        return f"hyp({format_complex(form.sigma)})"
    if isinstance(form, Zero):
        return "zero"
    form.family  # a non-form raises AttributeError here; a bare CanonicalForm raises InvalidInput below
    raise InvalidInput(f"not a canonical form: {form!r}")


def parse_form(text: str) -> CanonicalForm:
    m = _RE_FORM.match(text.strip())
    cls = m and _BY_FAMILY.get(m.group("head"))
    if not cls:
        raise FormSyntaxError(f"bad canonical form: {text!r}")
    args = m.group("args")
    parts = args.split(",") if args and args.strip() else []
    if len(parts) != len(cls.__match_args__):
        if parts and not cls.__match_args__:
            raise FormSyntaxError(f"{cls.family} takes no parameters")
        raise FormSyntaxError(f"bad canonical form: {text!r}")
    try:
        return cls(*map(parse_complex, parts))
    except InvalidInput as exc:
        raise FormSyntaxError(f"invalid parameters in {text!r}: {exc}") from exc
