import math
import random
import re

import numpy as np
import pytest

from starcong import (
    DeltaTau,
    FormSyntaxError,
    Hyperbolic,
    InvalidInput,
    UnitDirectZero,
    UnitPair,
    Zero,
    format_complex,
    format_form,
    forms_close,
    parse_complex,
    parse_form,
    realize,
)
from starcong.forms import _entries


def test_realize_examples():
    np.testing.assert_array_equal(realize(DeltaTau(1)), [[0, 1], [1, 1j]])
    np.testing.assert_array_equal(realize(Hyperbolic(0)), [[0, 1], [0, 0]])
    np.testing.assert_array_equal(realize(UnitPair(1, -1)), np.diag([1, -1]))
    np.testing.assert_array_equal(realize(Zero()), np.zeros((2, 2)))
    np.testing.assert_array_equal(realize(UnitDirectZero(1j)), np.diag([1j, 0]))


def _ndarray_realize(form):
    # the ndarray construction realize used before it read the entry tuple
    delta2 = np.array([[0.0, 1.0], [1.0, 1.0j]], dtype=np.complex128)
    if isinstance(form, Zero):
        return np.zeros((2, 2), dtype=np.complex128)
    if isinstance(form, UnitDirectZero):
        return np.array([[form.lam, 0.0], [0.0, 0.0]], dtype=np.complex128)
    if isinstance(form, UnitPair):
        return np.array([[form.mu, 0.0], [0.0, form.nu]], dtype=np.complex128)
    if isinstance(form, Hyperbolic):
        return np.array([[0.0, 1.0], [form.sigma, 0.0]], dtype=np.complex128)
    return form.tau * delta2


def test_entries_keep_the_ndarray_bits():
    # signed zeros included: tau * 0j is -0.0 in a part where tau's parts are negative
    rng = np.random.default_rng(1304)
    units = [complex(np.cos(t), np.sin(t)) for t in rng.uniform(0, 2 * np.pi, 40)]
    units += [1, -1, 1j, -1j, complex(-0.6, -0.8), complex(-0.6, 0.8), complex(0.6, -0.8)]
    forms = [Zero(), Hyperbolic(0), Hyperbolic(-0.3 - 0.4j)]
    for k, u in enumerate(units):
        forms += [UnitDirectZero(u), UnitPair(u, units[k - 1]), Hyperbolic(0.9 * u), DeltaTau(u)]
    for form in forms:
        got, want = np.array(_entries(form)).reshape(2, 2), _ndarray_realize(form)
        assert got.dtype == want.dtype == np.complex128
        for A in (got, realize(form)):
            assert np.array_equal(A.view(np.float64), want.view(np.float64)), form
            assert np.array_equal(np.signbit(A.view(np.float64)), np.signbit(want.view(np.float64))), form


def test_unimodular_rejects_far_from_circle():
    with pytest.raises(InvalidInput):
        UnitDirectZero(2.0)
    with pytest.raises(InvalidInput):
        DeltaTau(0)
    with pytest.raises(InvalidInput):
        UnitPair(1, 0.5)


def test_near_unit_renormalized():
    z = (1 + 3e-10) * np.exp(0.7j)
    f = DeltaTau(complex(z))
    assert abs(abs(f.tau) - 1.0) < 1e-15


def test_pair_ordering_and_flags():
    f = UnitPair(-1, 1)
    assert f.mu == 1 and f.nu == -1
    assert f.antipodal and not f.equal_pair
    g = UnitPair(1j, 1j)
    assert g.equal_pair and not g.antipodal
    h = UnitPair(np.exp(0.3j), np.exp(-0.4j))
    assert not h.antipodal and not h.equal_pair
    assert UnitPair(1, -1) == UnitPair(-1, 1)


def test_hyperbolic_strictly_inside_disk():
    Hyperbolic(0.999999)
    with pytest.raises(InvalidInput):
        Hyperbolic(1.0)
    with pytest.raises(InvalidInput):
        Hyperbolic(1.2j)


def test_nan_rejected():
    with pytest.raises(InvalidInput):
        Hyperbolic(complex("nan"))
    with pytest.raises(InvalidInput):
        DeltaTau(complex(np.inf, 0))


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-1", -1 + 0j),
        ("1i", 1j),
        ("-1i", -1j),
        ("i", 1j),
        ("-i", -1j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("0.5-1e-3i", 0.5 - 0.001j),
        ("2.5e-1", 0.25 + 0j),
        ("1e1i", 10j),
        ("-0.25+i", -0.25 + 1j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "1+", "i1", "1 2", "one", "1+2", "(1,2)",
                                 "1e", "e5", ".", "+-1", "--1", "1ii", "i+1", "1+2i3", "1 + 2i",
                                 "1+2j", "nan", "inf"])
def test_parse_complex_rejects(bad):
    with pytest.raises(FormSyntaxError, match=re.escape(f"bad complex literal: {bad!r}")):
        parse_complex(bad)


@pytest.mark.parametrize(
    "text,value,re_sign,im_sign",
    [
        ("-0", 0j, -1.0, 1.0),
        ("-0i", 0j, 1.0, -1.0),
        ("0-0i", 0j, 1.0, -1.0),
        ("-0-0i", 0j, -1.0, -1.0),
        ("i", 1j, 1.0, 1.0),
        ("+i", 1j, 1.0, 1.0),
        ("-i", -1j, 1.0, -1.0),
        (".5", 0.5 + 0j, 1.0, 1.0),
        ("5.", 5 + 0j, 1.0, 1.0),
        ("1E+5i", 1e5j, 1.0, 1.0),
        ("-.5e-3-i", complex(-5e-4, -1.0), -1.0, -1.0),
        ("4.9406564584124654e-324-4.9406564584124654e-324i", complex(5e-324, -5e-324), 1.0, -1.0),
        ("-2.2250738585072009e-308i", complex(0.0, -2.2250738585072009e-308), 1.0, -1.0),
        ("1.7976931348623157e308-1e308i", complex(1.7976931348623157e308, -1e308), 1.0, -1.0),
    ],
)
def test_parse_complex_sign_bits(text, value, re_sign, im_sign):
    # == cannot tell -0.0 from 0.0: the sign of each part is pinned on its own
    z = parse_complex(text)
    assert z == value
    assert (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)) == (re_sign, im_sign)


# The three-pattern grammar parse_complex had before it was folded into one
# pattern, kept as the reference the one-pattern parser must agree with.
_REF_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REF_IMAG_ONLY = re.compile(rf"^(?P<sign>[+-]?)(?P<coef>{_REF_NUM})?i$")
_REF_REAL_ONLY = re.compile(rf"^[+-]?{_REF_NUM}$")
_REF_FULL = re.compile(rf"^(?P<re>[+-]?{_REF_NUM})(?P<imsign>[+-])(?P<imcoef>{_REF_NUM})?i$")


def reference_parse_complex(text: str) -> complex:
    s = text.strip()
    m = _REF_IMAG_ONLY.match(s)
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        return complex(0.0, -coef if m.group("sign") == "-" else coef)
    if _REF_REAL_ONLY.match(s):
        return complex(float(s), 0.0)
    m = _REF_FULL.match(s)
    if m:
        coef = float(m.group("imcoef")) if m.group("imcoef") else 1.0
        if m.group("imsign") == "-":
            coef = -coef
        return complex(float(m.group("re")), coef)
    raise FormSyntaxError(f"bad complex literal: {text!r}")


def parse_outcome(parse, text):
    """Both parts as float.hex (which shows the sign of a zero), or the error text."""
    try:
        z = parse(text)
    except FormSyntaxError as exc:
        return str(exc)
    return z.real.hex(), z.imag.hex()


def test_parse_complex_matches_reference_grammar():
    r = random.Random(1304)
    texts = []
    # random strings over the literal alphabet, with a few characters from outside it
    for _ in range(20000):
        texts.append("".join(r.choice("0123456789.eE+-i " if r.random() < 0.97 else "\u0661\njI_naf")
                             for _ in range(r.randint(0, 12))))
    # near-literals built from signs, mantissas and exponents
    def part():
        return (r.choice(["", "+", "-"]) + r.choice(["", "0", "00", "7", "12", "3.", ".5", "1.25", "."])
                + r.choice(["", "", "e", "E5", "e-7", "e+308", "e400", "e-330", "e+", "E-0"]))
    for _ in range(20000):
        texts.append(part() + r.choice(["", "", "i", "ii"]) + r.choice(["", part() + r.choice(["i", "", "j"])]))
    # printed values, zeros of either sign and subnormals included
    for _ in range(5000):
        z = complex(*(r.choice([0.0, -0.0]) if r.random() < 0.1
                      else r.choice([-1.0, 1.0]) * r.random() * 10.0 ** r.randint(-330, 308)
                      for _ in range(2)))
        texts += [format_complex(z), f" {format_complex(z)}\t"]
    for text in texts:
        assert parse_outcome(parse_complex, text) == parse_outcome(reference_parse_complex, text), text


def test_complex_round_trip_17_digits():
    rng = np.random.default_rng(5)
    values = [complex(rng.standard_normal() * 10**e, rng.standard_normal() * 10**e)
              for e in range(-8, 9) for _ in range(5)]
    values += [1 / 3 + 1j / 7, complex(2**-0.5, -(2**-0.5)), 0j, 1 + 0j, -1j]
    for z in values:
        assert parse_complex(format_complex(z)) == z


@pytest.mark.parametrize(
    "text",
    ["zero", "udz(1)", "pair(1,-1)", "hyp(0)", "hyp(0.5)", "hyp(0.25-0.125i)",
     "delta(1)", "delta(-1i)"],
)
def test_form_round_trip(text):
    # dyadic parameters survive the 17-digit formatter verbatim
    form = parse_form(text)
    assert format_form(form) == text
    assert parse_form(format_form(form)) == form


def test_form_value_round_trip():
    # non-dyadic decimals change spelling (0.3 -> 0.29999999999999999) but
    # keep their value through a print/parse cycle
    form = parse_form("hyp(0.3)")
    printed = format_form(form)
    assert printed == "hyp(0.29999999999999999)"
    assert parse_form(printed) == form


def test_form_round_trip_after_normalization():
    # parameters are stored re-normalized to exact unit modulus, so the
    # printed text can differ from the input in the last digits; printed
    # text must still re-parse to the identical form
    text = ("pair(0.70710678118654746+0.70710678118654746i,"
            "0.70710678118654746-0.70710678118654746i)")
    form = parse_form(text)
    assert parse_form(format_form(form)) == form
    assert format_form(parse_form(format_form(form))) == format_form(form)


def test_parse_form_normalizes():
    # unordered pair: both spellings parse to the same form
    assert parse_form("pair(-1,1)") == parse_form("pair(1,-1)")
    assert format_form(parse_form("pair(-1,1)")) == "pair(1,-1)"


@pytest.mark.parametrize("bad", ["zer", "udz()", "udz(1,2)", "pair(1)", "delta(2)", "hyp(1)", "udz", "pair(1,-1"])
def test_parse_form_rejects(bad):
    with pytest.raises(FormSyntaxError):
        parse_form(bad)


def test_forms_close():
    assert forms_close(UnitPair(1, -1), UnitPair(-1, 1), 0)
    drift = 1e-8
    a = UnitPair(np.exp(0.3j), np.exp(1.1j))
    b = UnitPair(np.exp(0.3j + 1j * drift), np.exp(1.1j))
    assert forms_close(a, b, 1e-6)
    assert not forms_close(a, b, 1e-12)
    assert not forms_close(DeltaTau(1), DeltaTau(-1), 1e-6)
    assert not forms_close(Zero(), UnitDirectZero(1), 1.0)
