"""Verification and construction toolkit for algebras with split operations
(dendriform, di-/tri-associative, quadri- and six-dendriform) and their
(relative, homomorphic) averaging operators, over exact rationals."""

from .linalg import DimensionMismatch, Subspace, rref, span
from .model import (
    Action,
    Algebra,
    BilinearOp,
    LinearMap,
    Representation,
    SpecError,
    adjoint_representation,
    dendriform_to_quadri,
    dendriform_to_six,
    evaluate,
    perp_dendriform_part,
    quadri_part,
    self_action,
)
from .documents import Document, DocumentError, parse_document, serialize_document
from .identities import (
    CATALOG_NAMES,
    QUADRI_TO_DENDRIFORM_COLLAPSE,
    IdentitySchema,
    Violation,
    ViolationReport,
    catalog,
    check,
    check_morphism,
)
from .operators import (
    SearchCapExceeded,
    check_assoc_averaging,
    check_dend_averaging,
    check_homomorphic_relative,
    check_relative_averaging,
    check_rota_baxter,
    graph_subalgebra_check,
    search_operators,
)
from .constructions import (
    PreconditionFailure,
    action_semidirect,
    aguiar_dendriform,
    aguiar_diassociative,
    averaging_quadri,
    check_differential,
    differential_quadri,
    dual_extension,
    hemisemidirect,
    induced_quadri,
    induced_six,
    semidirect,
    sum_collapse_quadri,
    sum_collapse_six,
)
from .quotients import (
    Ideal,
    QuotientError,
    embed_averaging,
    ideal_generated,
    quadri_to_relative_setup,
    quotient_algebra,
    six_to_homomorphic_setup,
    splitting_ideal,
)

__version__ = "0.1.0"
