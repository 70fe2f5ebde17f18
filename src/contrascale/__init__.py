"""Contranominal-scale enumeration and influence-guided attribute selection.

The package works on formal contexts (binary object/attribute tables).  It
enumerates every contranominal subcontext, scores attributes by how many
maximal such subcontexts they sit in, and selects low-influence attribute
subsets whose concept lattice is a small sub-meet-semilattice of the
original and whose implications stay valid.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in ``__all__`` order.
# Nothing is imported until a name is first read, so ``import contrascale``
# (and each command of the CLI) loads only the modules it uses.
_SUBMODULES = {
    "FormalContext": "context",
    "SubcontextSelection": "context",
    "ClarificationMap": "context",
    "ReductionTrace": "context",
    "NotClarifiedError": "context",
    "ContextParseError": "formats",
    "derive_attributes": "context",
    "derive_objects": "context",
    "complement": "context",
    "clarify": "context",
    "reduce_context": "context",
    "pq_core": "context",
    "apply_selection": "context",
    "make_contranominal": "context",
    "load_context": "formats",
    "save_context": "formats",
    "ContranominalScale": "scales",
    "ScaleCount": "scales",
    "ConflictGraph": "scales",
    "BipartiteGraph": "scales",
    "enumerate_scales": "scales",
    "count_scales": "scales",
    "max_dimension": "scales",
    "conflict_graph": "scales",
    "enumerate_bronkerbosch": "scales",
    "scales_from_clarified": "scales",
    "scales_from_reduced": "scales",
    "to_bipartite": "scales",
    "induced_matchings": "scales",
    "FormalConcept": "lattice",
    "ConceptSet": "lattice",
    "Implication": "lattice",
    "ImplicationBase": "lattice",
    "enumerate_concepts": "lattice",
    "meet": "lattice",
    "attribute_concept": "lattice",
    "generated_sub_meet_semilattice": "lattice",
    "is_boolean_suborder": "lattice",
    "is_valid_implication": "lattice",
    "canonical_base": "lattice",
    "restrict_base_on_removal": "lattice",
    "CubicSet": "adjust",
    "AttributeInfluence": "adjust",
    "InfluenceReport": "adjust",
    "AdjustedSelection": "adjust",
    "NotPreprocessedError": "adjust",
    "cubic_sets": "adjust",
    "influence": "adjust",
    "select_attributes": "adjust",
    "delta_adjust": "adjust",
    "ExperimentConfig": "bench",
    "ExperimentResult": "bench",
    "sample_attributes": "bench",
    "decision_tree_accuracy": "bench",
    "run_knowledge_experiment": "bench",
    "run_structure_experiment": "bench",
    "benchmark_enumeration": "bench",
    "medical_diagnosis": "datasets",
}

__all__ = ["__version__", *_SUBMODULES]


def __getattr__(name: str):
    module = _SUBMODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
