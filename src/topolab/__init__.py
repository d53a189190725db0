"""Laboratory for finite topological spaces.

Spaces live on bitmask ground sets; the package classifies subsets into the
generalized open/closed set classes, decides separation axioms, classifies
maps, enumerates all topologies at small sizes, and exhaustively checks a
catalogue of implication claims over bounded scopes.

Importing the package loads none of its modules: each export is loaded
from its module on first use (PEP 562), so a caller pays only for the
layers it reads.
"""

import importlib

__version__ = "0.1.0"

# each module, and the names the package exports from it
_EXPORTS = {
    "_kernels": ("BACKEND",),
    "space": (
        "MAX_POINTS", "FiniteSpace", "PointSet", "new_space", "space_from_record",
        "space_from_json", "subset_of_points", "points_of", "format_subset",
        "generate", "discrete", "indiscrete", "sierpinski", "particular_point",
        "excluded_point", "khalimsky_interval",
    ),
    "classes": (
        "CLASS_IDS", "ClassificationReport", "classify_subset", "family",
        "family_mask", "family_set", "is_preopen", "is_preclosed", "is_semiopen",
        "is_semiclosed", "is_alpha_open", "is_alpha_closed", "is_beta_open",
        "is_beta_closed", "is_g_closed", "is_g_open", "is_alpha_m_closed",
        "is_alpha_m_open",
    ),
    "axioms": (
        "AXIOM_IDS", "AxiomReport", "is_T0", "is_T1", "is_T_half", "is_T_alpha_m",
        "singleton_dichotomy", "axiom_report",
    ),
    "maps": (
        "MAP_PROPERTY_IDS", "SpaceMap", "MapClassification", "classify_map",
        "compose", "identity_map", "inverse", "is_continuous", "is_open_map",
        "is_closed_map", "is_surjective", "is_bijective", "is_alpha_m_continuous",
        "is_alpha_m_irresolute", "is_alpha_m_closed_map", "is_alpha_m_open_map",
        "open_preimages_alpha_m_open", "map_from_record", "map_from_json",
    ),
    "enumeration": (
        "enumerate_topologies", "enumerate_topologies_up_to_homeo",
        "enumerate_maps", "canonical_form", "relabel", "spaces_up_to",
    ),
    "verifier": (
        "CLAIM_IDS", "Scope", "TheoremReport", "Witness", "verify", "verify_all",
        "check_instance", "evaluate_instance", "validate_witness",
        "witness_from_record", "claim_statement", "default_scope",
    ),
    "errors": (
        "TopolabError", "NotATopology", "BadParams", "ScopeTooLarge",
        "SpaceMismatch", "ArityMismatch", "InternalCheckError",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """Load an export from its module, and keep it as a package attribute."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
