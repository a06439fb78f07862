"""Acceptance criteria, one test per criterion.

Each test prints one CRITERION line (visible with pytest -s) and enforces
the stated exact values and runtime limits.  Criteria 1-8 are checked
computationally; criterion 9 records the agreed out-of-scope boundary.

Two boundary instances inside criterion 3's parameter sweep are
mathematically unattainable and are asserted to fail closed instead:
  - q10_construction(3, 2) and (4, 3): the claimed column counts (6, 9)
    exceed the total number of distinct columns on 2 resp. 3 rows, so no
    simple matrix can meet them; the builder raises.
  - small_m_pigeonhole_witness(3): the upper bound's slack term divides
    by m - 2 = 0 at m = q - 1 = 2, so the size claim is undefined.
"""

import time
from itertools import combinations

import pytest

from xfc.analysis import lemma_audit
from xfc.bounds import (
    bound_1100,
    design_tplus1_bound,
    exceeder_gap,
    genl_bound,
    q10_lower,
    q10_upper,
    turan_threshold,
)
from xfc.constructions import (
    ConstructionError,
    exceeder_construction,
    genl_equality_construction,
    q10_construction,
    small_m_pigeonhole_witness,
    split_1100_construction,
)
from xfc.designs import sts, verify_design
from xfc.matrix import BinMatrix, Block, contains_config
from xfc.search import SearchProblem, exact_max, exhaustive_oracle

INFEASIBLE_Q10 = {(3, 2), (4, 3)}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_design_equality_constructions():
    expected = {7: 37, 9: 59, 13: 119}
    start = time.perf_counter()
    for m, want in expected.items():
        A = genl_equality_construction(2, 1, 1, m, sts(m))
        assert A.is_simple(), m
        assert not contains_config(Block(3, 2, 1), A), m
        assert A.ncols == want == genl_bound(2, 1, 1, m).exact, m
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"equality constructions at m=7,9,13 hit 37/59/119 in {elapsed:.2f}s")


def test_criterion_2_exceeder():
    start = time.perf_counter()
    A = exceeder_construction(2, 1, 1)
    assert A.m == 4
    assert not contains_config(Block(3, 2, 1), A)
    gap = A.ncols - genl_bound(2, 1, 1, 4).exact
    assert gap == exceeder_gap(2, 1, 1).exact == 2
    elapsed = time.perf_counter() - start
    report(2, elapsed < 1.0, f"exceeder at m=4 beats the bound by exactly 2 in {elapsed:.2f}s")


def test_criterion_3_q10_family():
    start = time.perf_counter()
    built = 0
    for q in (3, 4, 5):
        for m in range(q - 1, 31):
            if (q, m) in INFEASIBLE_Q10:
                with pytest.raises(ConstructionError):
                    q10_construction(q, m)
                continue
            A = q10_construction(q, m)
            assert A.is_simple(), (q, m)
            assert not contains_config(Block(q, 1, 1), A), (q, m)
            assert A.ncols == q10_lower(q, m).floor_int, (q, m)
            built += 1
        if q == 3:
            with pytest.raises(ConstructionError):
                small_m_pigeonhole_witness(3)
        else:
            W = small_m_pigeonhole_witness(q)
            assert W.ncols == q10_upper(q, q - 1).floor_int, q
            assert not contains_config(Block(q, 1, 1), W), q
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 10.0,
        f"{built} q10 constructions match the lower bound, witnesses match the upper "
        f"bound for q=4,5 (q=3 and the two collapsing boundary pairs fail closed) in {elapsed:.2f}s",
    )


def test_criterion_4_design_extraction_search():
    start = time.perf_counter()
    p = SearchProblem(7, Block(2, 2, 1), sums=frozenset({3, 4, 5, 6}), policy="free")
    r = exact_max(p)
    assert r.optimum == 7 and r.proof_of_optimality
    assert r.optimum == design_tplus1_bound(2, 1, 1, 7).exact
    blocks = [s for s in r.witness.column_sets() if len(s) == 3]
    assert verify_design(blocks, 7, 3, 2, 1).ok
    main_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    fallback = exact_max(SearchProblem(7, Block(2, 2, 1), sums=frozenset({3}), policy="free"))
    fb_elapsed = time.perf_counter() - start
    assert fallback.optimum == 7 and fallback.proof_of_optimality
    assert fb_elapsed < 1.0
    report(
        4,
        main_elapsed < 60.0,
        f"search at m=7 proves optimum 7, witness is a Steiner system "
        f"({main_elapsed:.2f}s; fallback {fb_elapsed:.2f}s)",
    )


def test_criterion_5_split_1100():
    start = time.perf_counter()
    A = split_1100_construction(7, 1, 1)
    assert A.is_simple()
    assert not contains_config(Block(5, 2, 2), A)
    assert A.ncols == bound_1100(2, 7).exact == 72
    elapsed = time.perf_counter() - start
    report(5, elapsed < 2.0, f"split construction at m=7 is simple with 72 columns in {elapsed:.2f}s")


def test_criterion_6_audit_suite():
    required = ("degree_cap", "support_pigeonhole", "low_sum_unrepeated", "zero_count_floor")
    start = time.perf_counter()
    for m in (7, 9, 13):
        A = genl_equality_construction(2, 1, 1, m, sts(m))
        R = A.restrict_sums(range(2, A.m))  # the sums the inequalities govern
        rep = lemma_audit(R, 2, 1, 1)
        for name in required:
            assert rep.check(name).passed, (m, name)
        extra = next(c for c in R.cols if c.bit_count() == 3)
        corrupted = R.concat(BinMatrix(m, (extra,) * 3))
        bad = lemma_audit(corrupted, 2, 1, 1)
        failing = [c for c in bad.checks if not c.passed]
        assert failing and any(c.witness for c in failing), m
    elapsed = time.perf_counter() - start
    report(6, elapsed < 5.0, f"audits pass on all equality constructions, corruption "
                             f"is caught with a witness, in {elapsed:.2f}s")


def test_criterion_7_turan_boundary():
    start = time.perf_counter()
    assert turan_threshold(6, 2, 3).exact == 9
    edges = list(combinations(range(6), 2))
    triangles = [
        frozenset({edges.index(tuple(sorted(p))) for p in combinations(tri, 2)})
        for tri in combinations(range(6), 3)
    ]
    for picked in combinations(range(15), 10):
        chosen = set(picked)
        assert any(tri <= chosen for tri in triangles), "a 10-edge graph without triangles?"
    bipartite = {e for e in edges if (e[0] < 3) != (e[1] < 3)}
    assert len(bipartite) == 9
    assert not any(
        all(tuple(sorted(p)) in bipartite for p in combinations(tri, 2))
        for tri in combinations(range(6), 3)
    )
    elapsed = time.perf_counter() - start
    report(7, elapsed < 30.0, f"threshold 9 exact; all 3003 ten-edge graphs have triangles; "
                              f"the 3+3 bipartite witness shows strictness, in {elapsed:.2f}s")


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    instances = 0
    for m in (1, 2, 3):
        for q in (1, 2, 3):
            for t in range(m + 1):
                for ell in range(m - t + 1):
                    p = SearchProblem(m, Block(q, t, ell), policy="simple")
                    assert exact_max(p).optimum == exhaustive_oracle(p).optimum, (m, q, t, ell)
                    instances += 1
    elapsed = time.perf_counter() - start
    report(8, elapsed < 60.0, f"branch-and-bound equals the oracle on {instances} instances "
                              f"in {elapsed:.2f}s")


def test_criterion_9_out_of_scope_boundary():
    # asymptotic thresholds and the existential constants are not computed
    # anywhere in the package; the audits expose empirical ratios instead
    A = genl_equality_construction(2, 1, 1, 9, sts(9)).restrict_sums({2, 3})
    rep = lemma_audit(A, 2, 1, 1)
    assert set(rep.ratios) == {
        "missing_over_m_pow",
        "higher_over_m_pow",
        "typical_deficit_over_m_pow",
    }
    report(9, True, "asymptotic constants and thresholds stay out of scope; "
                    "empirical ratios are reported instead")
