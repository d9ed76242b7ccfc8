"""Canonical forms of 2x2 complex matrices under *congruence.

Classification into the five canonical families, real codimension of the
classes, the closure order with constructive perturbation witnesses and
named obstruction certificates, and deterministic neighborhood sampling.
"""

__version__ = "0.3.0"

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
    DegenerateDelta,
    DuplicateVertex,
    FormSyntaxError,
    InvalidInput,
    NoArrow,
    SingularMatrix,
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
from .linalg import (
    cosquare,
    eigenvalues2,
    inverse2,
    real_rank,
)
from .perturb import (
    NeighborhoodReport,
    ObstructionCertificate,
    Witness,
    no_arrow_certificate,
    sample_neighborhood,
    witness,
)
from .rng import SplitMix64, seeded_rng, substream_seed
from .stratify import VersalProfile, codimension, tangent_space_dim, versal_profile

__all__ = [
    "AMBIG_FRACTION",
    "AmbiguousClassification",
    "ArrowExists",
    "CanonicalForm",
    "CertificateNotFound",
    "ClassificationReport",
    "DELTA2",
    "DegenerateDelta",
    "DeltaTau",
    "DuplicateVertex",
    "FormSyntaxError",
    "HasseSubgraph",
    "Hyperbolic",
    "InvalidInput",
    "NeighborhoodReport",
    "NoArrow",
    "ObstructionCertificate",
    "SingularMatrix",
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
    "cosquare",
    "eigenvalues2",
    "format_complex",
    "format_form",
    "forms_close",
    "hasse_subgraph",
    "inverse2",
    "no_arrow_certificate",
    "parse_complex",
    "parse_form",
    "random_congruence",
    "reachable",
    "real_rank",
    "realize",
    "sample_neighborhood",
    "seeded_rng",
    "substream_seed",
    "tangent_space_dim",
    "to_dot",
    "versal_profile",
    "witness",
]
