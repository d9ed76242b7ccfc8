import importlib
import importlib.util
import io
import tokenize
from pathlib import Path

import pytest

import starcong

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


#: The public names, in the order ``__all__`` has listed them since 0.7.0
#: (``iter_dot`` joined them in 0.13.0).
PUBLIC_NAMES = [
    "AMBIG_FRACTION", "AmbiguousClassification", "ArrowExists", "CanonicalForm", "CertificateNotFound",
    "ClassificationReport", "DeltaTau", "DuplicateVertex", "FormSyntaxError", "HasseSubgraph", "Hyperbolic",
    "InvalidInput", "NeighborhoodReport", "NoArrow", "ObstructionCertificate", "SplitMix64", "StarcongError",
    "UnitDirectZero", "UnitPair", "VersalProfile", "Witness", "Zero", "classify", "classify_many",
    "codimension", "format_complex", "format_form", "forms_close", "hasse_subgraph", "iter_dot",
    "no_arrow_certificate", "parse_complex", "parse_form", "random_congruence", "reachable", "real_rank",
    "realize", "sample_neighborhood", "seeded_rng", "tangent_space_dim", "to_dot", "versal_profile", "witness",
]


def test_public_names_resolve():
    assert starcong.__all__ == PUBLIC_NAMES
    for name in starcong.__all__:
        home = importlib.import_module(f"starcong.{starcong._HOME[name]}")
        assert getattr(starcong, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="module 'starcong' has no attribute 'canonical_form'"):
        starcong.canonical_form


def library_references() -> set[str]:
    """Names used in the code of the package's modules other than __init__.py.

    Comments and strings do not count, nor does the name a def, a class or a
    module-level assignment defines.
    """
    used = set()
    for path in Path(starcong.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
        for k, tok in enumerate(tokens):
            if tok.type != tokenize.NAME:
                continue
            defines = k > 0 and tokens[k - 1].string in ("def", "class")
            assigns = tok.start[1] == 0 and k + 1 < len(tokens) and tokens[k + 1].string in ("=", ":")
            if not (defines or assigns):
                used.add(tok.string)
    return used


def test_public_names_used_by_the_library():
    # a public helper that only tests use is dead weight: delete it and
    # write the test against the functions the library does use
    used = library_references()
    assert [name for name in starcong.__all__ if name not in used] == []


def test_bench_traced_functions_resolve():
    # the traced benchmark run wraps these by name; a deleted or renamed
    # function would break it silently
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, func in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"starcong.{module}"), func, None)), (module, func)
    for module in spans.MODULES:
        importlib.import_module(f"starcong.{module}")
