"""Value semantics of the package's forms and reports.

Each record keeps the behaviour callers relied on when it was a frozen
dataclass: its repr text, equality by exact type and field tuple, hash of the
field tuple, read-only attributes, keyword construction, copy and pickle
round trips, and positional class patterns.
"""

import copy
import math
import pickle

import pytest

from starcong import (
    CanonicalForm,
    ClassificationReport,
    DeltaTau,
    HasseSubgraph,
    Hyperbolic,
    NeighborhoodReport,
    ObstructionCertificate,
    UnitDirectZero,
    UnitPair,
    VersalProfile,
    Witness,
    Zero,
)

GRID = (("star", "fixed-zero"), ("fixed-zero", "fixed-zero"))
E4 = (0j, 1e-4 + 0j, 0j, 0j)
S4 = (1 + 0j, 0j, 0j, 1 + 0j)

#: (class, positional arguments, field names, exact repr text)
RECORDS = [
    (CanonicalForm, (), (), "CanonicalForm()"),
    (Zero, (), (), "Zero()"),
    (UnitDirectZero, (1,), ("lam",), "UnitDirectZero(lam=(1+0j))"),
    (UnitPair, (1, -1), ("mu", "nu"), "UnitPair(mu=(1+0j), nu=(-1+0j))"),
    (Hyperbolic, (0.3,), ("sigma",), "Hyperbolic(sigma=(0.3+0j))"),
    (DeltaTau, (1j,), ("tau",), "DeltaTau(tau=1j)"),
    (ClassificationReport, (Zero(), math.inf, 0.0), ("form", "margin", "scale"),
     "ClassificationReport(form=Zero(), margin=inf, scale=0.0)"),
    (HasseSubgraph, ((Zero(), Hyperbolic(0)), [(0, 1)]), ("vertices", "edges"),
     "HasseSubgraph(vertices=(Zero(), Hyperbolic(sigma=0j)), edges=array([[0, 1]], dtype=int32))"),
    (VersalProfile, (GRID, 1, 0), ("grid", "star_count", "eps_count"),
     "VersalProfile(grid=(('star', 'fixed-zero'), ('fixed-zero', 'fixed-zero')), star_count=1, eps_count=0)"),
    (Witness, (E4, S4, 1e-4), ("E_entries", "S_entries", "norm_E"),
     "Witness(E_entries=(0j, (0.0001+0j), 0j, 0j), S_entries=((1+0j), 0j, 0j, (1+0j)), norm_E=0.0001)"),
    (ObstructionCertificate, ("SpectrumGap", 0.5, {"gap": 0.5}), ("kind", "margin", "data"),
     "ObstructionCertificate(kind='SpectrumGap', margin=0.5, data={'gap': 0.5})"),
    (NeighborhoodReport, (Zero(), 1e-3, 10, 0, {"zero": 10}, {}, None),
     ("source", "delta", "samples", "seed", "histogram", "spectrum_drift", "max_spectrum_drift"),
     "NeighborhoodReport(source=Zero(), delta=0.001, samples=10, seed=0, histogram={'zero': 10}, "
     "spectrum_drift={}, max_spectrum_drift=None)"),
]

#: Records that hold a dict: equal by value but unhashable.
UNHASHABLE = (ObstructionCertificate, NeighborhoodReport)


@pytest.mark.parametrize("cls, args, names, text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, args, names, text):
    rec = cls(*args)
    assert repr(rec) == text
    assert cls.__match_args__ == names
    assert repr(cls(**dict(zip(names, args)))) == text
    key = tuple(getattr(rec, name) for name in names)

    if cls is HasseSubgraph:
        # graphs compare and hash by identity; edges are read-only on construction
        assert rec == rec and rec != cls(*args)
        assert hash(rec) == object.__hash__(rec)
        assert not rec.edges.flags.writeable
        with pytest.raises(ValueError):
            rec.edges[0, 0] = 1
    else:
        twin = cls(*args)
        assert twin == rec and not twin != rec and twin is not rec
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(twin) == hash(rec) == hash(key)
        for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(other) is cls and other == rec and repr(other) == text

    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in names) == key


def test_equality_by_exact_type_and_fields():
    assert UnitPair(1, -1) == UnitPair(-1, 1) and hash(UnitPair(1, -1)) == hash(UnitPair(-1, 1))
    assert UnitPair(1, 1j) != UnitPair(1, -1j)
    assert UnitDirectZero(1) != DeltaTau(1) and Zero() != CanonicalForm()
    assert ClassificationReport(UnitPair(1j, 1), 0.5, 1.0) == ClassificationReport(UnitPair(1, 1j), 0.5, 1.0)
    assert len({UnitPair(1, -1), UnitPair(-1, 1), Zero(), Zero()}) == 2


def test_certificate_data_defaults_to_a_fresh_dict():
    a, b = ObstructionCertificate("ConeMargin", 1.0), ObstructionCertificate(kind="ConeMargin", margin=1.0)
    assert a.data == b.data == {} and a.data is not b.data
    assert a == b


def test_class_patterns_bind_fields_by_position():
    match UnitPair(1j, -1):
        case UnitPair(mu, nu):
            assert (mu, nu) == (1j, -1 + 0j)
        case _:
            pytest.fail("UnitPair pattern did not match")
    match ClassificationReport(DeltaTau(-1j), 0.25, 2.0):
        case ClassificationReport(DeltaTau(tau), margin):
            assert (tau, margin) == (-1j, 0.25)
        case _:
            pytest.fail("ClassificationReport pattern did not match")
