"""Abacus models of integer partitions and simultaneous core enumeration.

Each public name is imported from its submodule on its first access (PEP 562), so a process imports only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "partitions": ("EMPTY", "HookLength", "Partition", "conjugate", "first_column_hooks", "has_distinct_parts",
                   "hook_length_multiset", "hook_lengths", "is_self_conjugate", "is_two_core", "staircase"),
    "abacus": ("Abacus", "AxisTheta", "RunnerMismatchError", "beadset", "beadset_to_partition", "from_abacus",
               "is_core_abacus", "is_simultaneous_core", "is_sub_abacus", "is_t_core", "normalize",
               "partition_to_minimal_beadset", "render_abacus", "self_conjugate_axis_check", "to_abacus"),
    "constructions": ("Pyramid", "build_a", "build_b", "build_c", "build_e_minus", "build_e_plus", "build_l",
                      "build_named", "intersect", "is_pyramid", "project_block", "wedge", "wedge_all"),
    "enumeration": ("AmbiguousLongestError", "CoreFamily", "FamilyStats", "GapPoset", "GuardRailError",
                    "count_st_cores", "enumerate_multi_cores", "enumerate_st_cores", "family_stats", "filter_distinct",
                    "filter_self_conjugate", "gap_poset", "longest_member", "maximal_st_core", "oracle_enumerate",
                    "st_core_weight_profile"),
    "verification": ("CLAIM_IDS", "Cell", "VerificationReport", "corollary3_check", "fib_count",
                     "longest_weight_formula", "max_weight_formula", "middle_identity_check",
                     "self_conjugate_counts", "staircase_core_count", "straub_minus", "straub_plus", "verify_claim"),
}.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, or an exporting submodule, imported on its first access and bound here."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
