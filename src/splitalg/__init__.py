"""Verification and construction toolkit for algebras with split operations
(dendriform, di-/tri-associative, quadri- and six-dendriform) and their
(relative, homomorphic) averaging operators, over exact rationals.

The names below load on first use (PEP 562), so importing the package, or
one of its modules, does not import the others."""

# module -> the names the package exports from it
_EXPORTS = {
    "linalg": "DimensionMismatch Subspace rref span",
    "model": "Action Algebra BilinearOp LinearMap Representation SpecError adjoint_representation"
    " dendriform_to_quadri dendriform_to_six evaluate perp_dendriform_part quadri_part self_action",
    "documents": "Document DocumentError parse_document serialize_document",
    "identities": "CATALOG_NAMES QUADRI_TO_DENDRIFORM_COLLAPSE IdentitySchema Violation"
    " ViolationReport catalog check check_morphism",
    "operators": "SearchCapExceeded check_assoc_averaging check_dend_averaging"
    " check_homomorphic_relative check_relative_averaging check_rota_baxter"
    " graph_subalgebra_check search_operators",
    "constructions": "PreconditionFailure action_semidirect aguiar_dendriform aguiar_diassociative"
    " averaging_quadri check_differential differential_quadri dual_extension hemisemidirect"
    " induced_quadri induced_six semidirect sum_collapse_quadri sum_collapse_six",
    "quotients": "Ideal QuotientError embed_averaging ideal_generated quadri_to_relative_setup"
    " quotient_algebra six_to_homomorphic_setup splitting_ideal",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
