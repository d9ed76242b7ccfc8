"""Canonical forms of 2x2 complex matrices under *congruence.

Classification into the five canonical families, real codimension of the
classes, the closure order with constructive perturbation witnesses and
named obstruction certificates, and deterministic neighborhood sampling.

Importing the package imports none of its modules: each public name is listed
once in ``_PUBLIC`` with its home module, which is imported when the name is
first used.  numpy is loaded only inside the functions that build or read
arrays, so the classifier on Python numbers runs without it.
"""

from importlib import import_module

__version__ = "0.13.0"

_PUBLIC = {
    "canonical": ("AMBIG_FRACTION", "ClassificationReport", "classify", "classify_many", "random_congruence"),
    "closure": ("HasseSubgraph", "hasse_subgraph", "iter_dot", "reachable", "to_dot"),
    "errors": ("AmbiguousClassification", "ArrowExists", "CertificateNotFound", "DuplicateVertex",
               "FormSyntaxError", "InvalidInput", "NoArrow", "StarcongError"),
    "forms": ("CanonicalForm", "DeltaTau", "Hyperbolic", "UnitDirectZero", "UnitPair", "Zero", "format_complex",
              "format_form", "forms_close", "parse_complex", "parse_form", "realize"),
    "linalg": ("real_rank",),
    "perturb": ("NeighborhoodReport", "ObstructionCertificate", "Witness", "no_arrow_certificate",
                "sample_neighborhood", "witness"),
    "rng": ("SplitMix64", "seeded_rng"),
    "stratify": ("VersalProfile", "codimension", "tangent_space_dim", "versal_profile"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | __all__)
