"""Forbidden-configuration toolkit.

Builds the extremal matrix constructions, decides block-pattern
containment, evaluates the closed-form bounds exactly, verifies designs,
audits the counting inequalities on concrete matrices, and computes exact
extremal values on small instances.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the modules it runs.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("AnalysisReport", "TsetTable", "lemma_audit", "tset_table"), "analysis"),
    **dict.fromkeys((
        "BoundValue", "PigeonholeCheck", "bound_1100", "design_1100_bound", "design_tplus1_bound",
        "designconfig_bound", "exceeder_gap", "genl_bound", "pigeonhole_terms", "q10_lower",
        "q10_upper", "turan_threshold",
    ), "bounds"),
    **dict.fromkeys((
        "ConstructionError", "exceeder_construction", "genl_equality_construction",
        "q10_construction", "small_m_pigeonhole_witness", "split_1100_construction",
    ), "constructions"),
    **dict.fromkeys((
        "Design", "DesignCheck", "divisibility_check", "lambda_fold", "read_design", "sts",
        "verify_design", "write_design",
    ), "designs"),
    **dict.fromkeys((
        "BinMatrix", "Block", "Configuration", "General", "MatrixFormatError", "block_support_count",
        "contains_config", "layer_range", "max_block_multiplicity", "read_matrix",
    ), "matrix"),
    **dict.fromkeys(
        ("SearchProblem", "SearchResult", "exact_max", "exhaustive_oracle", "verify_witness"), "search"),
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
