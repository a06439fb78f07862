"""Forbidden-configuration toolkit.

Builds the extremal matrix constructions, decides block-pattern
containment, evaluates the closed-form bounds exactly, verifies designs,
audits the counting inequalities on concrete matrices, and computes exact
extremal values on small instances.
"""

from .analysis import AnalysisReport, TsetTable, lemma_audit, tset_table, w_z_sets
from .bounds import (
    BoundValue,
    PigeonholeCheck,
    bound_1100,
    design_1100_bound,
    design_tplus1_bound,
    designconfig_bound,
    exceeder_gap,
    genl_bound,
    pigeonhole_terms,
    q10_lower,
    q10_upper,
    turan_threshold,
)
from .constructions import (
    ConstructionError,
    complete_layer,
    exceeder_construction,
    genl_equality_construction,
    layer_range,
    q10_construction,
    small_m_pigeonhole_witness,
    split_1100_construction,
)
from .designs import (
    Design,
    DesignCheck,
    divisibility_check,
    lambda_fold,
    read_design,
    sts,
    verify_design,
    write_design,
)
from .matrix import (
    BinMatrix,
    Block,
    Configuration,
    General,
    MatrixFormatError,
    RowSplit,
    block_support_count,
    contains_config,
    max_block_multiplicity,
    read_matrix,
)
from .search import SearchProblem, SearchResult, exact_max, exhaustive_oracle, verify_witness

__version__ = "0.1.0"
