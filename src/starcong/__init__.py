"""Canonical forms of 2x2 complex matrices under *congruence.

Classification into the five canonical families, real codimension of the
classes, the closure order with constructive perturbation witnesses and
named obstruction certificates, and deterministic neighborhood sampling.
"""

__version__ = "0.7.0"

from .canonical import (
    AMBIG_FRACTION,
    ClassificationReport,
    classify,
    classify_many,
    random_congruence,
)
from .closure import (
    HasseSubgraph,
    hasse_subgraph,
    reachable,
    to_dot,
)
from .errors import (
    AmbiguousClassification,
    ArrowExists,
    CertificateNotFound,
    DuplicateVertex,
    FormSyntaxError,
    InvalidInput,
    NoArrow,
    StarcongError,
)
from .forms import (
    DELTA2,
    CanonicalForm,
    DeltaTau,
    Hyperbolic,
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
from .linalg import real_rank
from .perturb import (
    NeighborhoodReport,
    ObstructionCertificate,
    Witness,
    no_arrow_certificate,
    sample_neighborhood,
    witness,
)
from .rng import SplitMix64, seeded_rng
from .stratify import VersalProfile, codimension, tangent_space_dim, versal_profile

__all__ = [
    "AMBIG_FRACTION",
    "AmbiguousClassification",
    "ArrowExists",
    "CanonicalForm",
    "CertificateNotFound",
    "ClassificationReport",
    "DELTA2",
    "DeltaTau",
    "DuplicateVertex",
    "FormSyntaxError",
    "HasseSubgraph",
    "Hyperbolic",
    "InvalidInput",
    "NeighborhoodReport",
    "NoArrow",
    "ObstructionCertificate",
    "SplitMix64",
    "StarcongError",
    "UnitDirectZero",
    "UnitPair",
    "VersalProfile",
    "Witness",
    "Zero",
    "classify",
    "classify_many",
    "codimension",
    "format_complex",
    "format_form",
    "forms_close",
    "hasse_subgraph",
    "no_arrow_certificate",
    "parse_complex",
    "parse_form",
    "random_congruence",
    "reachable",
    "real_rank",
    "realize",
    "sample_neighborhood",
    "seeded_rng",
    "tangent_space_dim",
    "to_dot",
    "versal_profile",
    "witness",
]
