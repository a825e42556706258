"""Combinatorics of weighted complete intersection data.

Given a tuple of positive integer weights and a tuple of degrees, this
package computes the associated combinatorial invariants (singular and
base complexes, Stanley-Reisner presentations), decides regularity and
triviality conditions, builds admissible injection families and the
weighted simplicial maps they induce, searches for and constructs nef
partitions, and realizes arbitrary finite simplicial complexes as
singular complexes of weight tuples.

Everything is exact integer arithmetic and deterministic; the only
tunables are resource caps.

Importing the package loads none of its modules: each name below loads
its module on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "arith": ("DEFAULT_DP_CAP", "UNKNOWN", "DegreeTuple", "WeightTuple",
                  "is_representable", "representable_degrees"),
        "complexes": ("Complex", "SRPresentation", "WeightedComplex", "base_complex",
                      "minimal_nonfaces", "singular_complex", "sr_presentation"),
        "errors": ("InputError", "InternalConsistencyError", "PreconditionFailure",
                   "ResourceLimitError"),
        "maps": ("AdmissibleFamily", "WeightedMap", "build_admissible_family",
                 "find_noncontracting_map", "induced_face_map", "validate_weighted_map",
                 "verify_poset_map", "vertex_fibers"),
        "nef": ("NefPartition", "classify_partition", "construct_strong_nef_partition",
                "fano_index", "find_nef_partition"),
        "realize": ("contraction_instance", "realize_map_instance", "realize_weights",
                    "skeleton", "verify_realization"),
        "regularity": ("RegularityReport", "is_linear_cone", "is_strictly_regular",
                       "is_wellformed_wps", "pair_is_trivial"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Load the module that defines a public name and keep the name here.
    Any other name raises AttributeError, so `from wciq import realize`
    goes on to import the submodule."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"wciq.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
