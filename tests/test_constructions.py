"""Construction generators and their self-verified claims."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import xfc.constructions
import xfc.designs
from xfc.bounds import genl_bound, pigeonhole_terms, q10_lower, q10_upper
from xfc.constructions import (
    ConstructionError,
    exceeder_construction,
    genl_equality_construction,
    q10_construction,
    small_m_pigeonhole_witness,
    split_1100_construction,
)
from xfc.designs import lambda_fold, sts
from xfc.matrix import (MAX_CELLS, Block, RowSplit, block_support_count, contains_config,
                        count_layers, layer_range)


def test_complete_layer_counts_and_order():
    L = layer_range(4, (2,))
    assert L.ncols == 6
    assert L.column_sets() == tuple(combinations(range(1, 5), 2))
    assert layer_range(5, (0,)).cols == (0,)
    assert layer_range(5, (5,)).cols == ((1 << 5) - 1,)
    with pytest.raises(ValueError):
        layer_range(4, (5,))


def test_layer_range():
    assert layer_range(2, {0, 1, 2}).ncols == 4
    assert layer_range(4, range(5)).ncols == 16
    assert layer_range(7, {0, 1, 2, 7}).ncols == 30


def test_layer_range_counts_its_cells_before_building():
    assert [count_layers(9, sums, 1000) for sums in ((0,), (4,), (3, 9), range(10))] == [1, 126, 85, 512]
    # a count past the limit stops there, without C(10^6, 5 * 10^5) in full
    assert count_layers(10**6, (0, 5 * 10**5), 100) == 101
    assert count_layers(5, range(6), 31) == 32
    # 5792 and 5793 rows of the sum-1 layer sit either side of 2^25 cells
    assert 5792 ** 2 <= MAX_CELLS < 5793 ** 2
    assert layer_range(5792, (1,)).ncols == 5792
    with pytest.raises(ValueError, match=f"layers on 5793 rows exceed the limit of {MAX_CELLS} cells"):
        layer_range(5793, (1,))
    with pytest.raises(ValueError, match="layers on 30 rows"):
        layer_range(30, range(31))


def test_genl_equality_m7():
    A = genl_equality_construction(2, 1, 1, 7, sts(7))
    assert A.ncols == 37 == genl_bound(2, 1, 1, 7).exact
    assert A.is_simple()
    assert not contains_config(Block(3, 2, 1), A)


def test_genl_equality_m9():
    A = genl_equality_construction(2, 1, 1, 9, sts(9))
    assert A.ncols == genl_bound(2, 1, 1, 9).exact == 59


def test_genl_equality_rejects_wrong_design():
    with pytest.raises(ConstructionError):
        genl_equality_construction(2, 1, 1, 9, sts(7))
    broken = sts(7)
    bad = type(broken)(7, 3, 2, 1, broken.blocks[1:] + (broken.blocks[1],))
    with pytest.raises(ConstructionError):
        genl_equality_construction(2, 1, 1, 7, bad)


def test_genl_equality_with_folded_design():
    A = genl_equality_construction(2, 1, 2, 7, lambda_fold(sts(7), 2))
    assert A.ncols == genl_bound(2, 1, 2, 7).exact
    assert not contains_config(Block(4, 2, 1), A)


def test_genl_equality_builds_its_own_design_for_t2_only():
    for ell, lam, m in ((1, 1, 7), (0, 2, 13), (1, 3, 9)):
        built_in = genl_equality_construction(2, ell, lam, m)
        assert built_in == genl_equality_construction(2, ell, lam, m, lambda_fold(sts(m), lam))
    with pytest.raises(ValueError, match="built-in designs cover t=2 only"):
        genl_equality_construction(3, 1, 1, 8)
    with pytest.raises(ValueError, match="no Steiner triple system on 8 points"):
        genl_equality_construction(2, 1, 1, 8)


def test_built_in_designs_are_verified_once(monkeypatch):
    # sts(m) verifies its triples and a fold of a design is a design, so a
    # built-in construction verifies once; a design the caller passes is
    # verified by the construction
    calls = []
    verify = xfc.designs.verify_design

    def counted(*args):
        calls.append(args[1:])
        return verify(*args)

    monkeypatch.setattr(xfc.designs, "verify_design", counted)
    monkeypatch.setattr(xfc.constructions, "verify_design", counted)
    for build, want in ((lambda: genl_equality_construction(2, 1, 1, 7), [(7, 3, 2, 1)]),
                        (lambda: genl_equality_construction(2, 0, 2, 13), [(13, 3, 2, 1)]),
                        (lambda: split_1100_construction(13, 1, 1), [(13, 3, 2, 1)])):
        calls.clear()
        build()
        assert calls == want
    design = lambda_fold(sts(9), 2)
    calls.clear()
    genl_equality_construction(2, 1, 2, 9, design)
    assert calls == [(9, 3, 2, 2)]


def test_q10_refuses_an_oversized_graph_before_building_it():
    # 4,504,502 columns of 3,000 rows: the graph alone would take gigabytes
    with pytest.raises(ValueError, match=f"4504502 columns on 3000 rows exceed the limit of {MAX_CELLS}"):
        q10_construction(3002, 3000)


def test_exceeder_small_case():
    A = exceeder_construction(2, 1, 1)
    assert A.m == 4 and A.ncols == 16
    assert not contains_config(Block(3, 2, 1), A)
    assert A.ncols - genl_bound(2, 1, 1, 4).exact == 2
    # every split supports exactly 2 columns here
    for T in combinations(range(1, 5), 2):
        for L in combinations([r for r in range(1, 5) if r not in T], 1):
            assert block_support_count(A, RowSplit(T, L)) == 2


def test_exceeder_non_integral_gap_parameters():
    A = exceeder_construction(3, 1, 1)
    assert A.m == 5 and A.ncols == 32
    assert A.ncols - genl_bound(3, 1, 1, 5).exact == Fraction(5, 2)


def test_exceeder_parameter_validation():
    with pytest.raises(ValueError):
        exceeder_construction(1, 1, 1)
    with pytest.raises(ValueError):
        exceeder_construction(2, 0, 1)


@pytest.mark.parametrize("q,m,ncols", [(3, 11, 24), (5, 10, 32), (4, 7, 19)])
def test_q10_examples(q, m, ncols):
    A = q10_construction(q, m)
    assert A.ncols == ncols == q10_lower(q, m).floor_int
    assert A.is_simple()
    assert not contains_config(Block(q, 1, 1), A)


def test_q10_matches_lower_bound_across_range():
    for q in (3, 4, 5, 6):
        for m in range(max(4, q - 1), 31, 5):
            A = q10_construction(q, m)
            assert A.ncols == q10_lower(q, m).floor_int
            assert A.is_simple()


def test_near_regular_edges_degrees():
    # the graph of q10_construction: every vertex has degree d = q - 3,
    # except vertex m, which has d - 1 when m d is odd; edges distinct, u < v
    graphs = 0
    for q in range(3, 21):
        d = q - 3
        for m in range(q - 2, 40):
            edges = xfc.constructions._near_regular_edges(m, d)
            assert len(set(edges)) == len(edges) and all(1 <= u < v <= m for u, v in edges)
            degree = Counter(v for e in edges for v in e)
            want = [d] * (m - 1) + [d - m * d % 2]
            assert [degree[v] for v in range(1, m + 1)] == want, (q, m)
            graphs += 1
    assert graphs == 549


def test_q10_degenerate_rows_raise():
    # with 2 or 3 rows the required layers collide, so the simplicity
    # claim is unsatisfiable (and at m=2 the count bound is undefined)
    with pytest.raises(ConstructionError):
        q10_construction(3, 2)
    with pytest.raises(ConstructionError):
        q10_construction(4, 3)
    with pytest.raises(ValueError):
        q10_construction(6, 3)  # degree 3 needs at least 4 vertices


def test_small_m_witness():
    W = small_m_pigeonhole_witness(5)
    assert W.m == 4 and W.ncols == 16
    assert W.ncols == q10_upper(5, 4).floor_int
    assert not contains_config(Block(5, 1, 1), W)
    W4 = small_m_pigeonhole_witness(4)
    assert W4.ncols == q10_upper(4, 3).floor_int == 11
    assert not contains_config(Block(4, 1, 1), W4)


def test_small_m_witness_q3_is_undefined():
    # the upper bound's slack term divides by m-2 = 0
    with pytest.raises(ConstructionError):
        small_m_pigeonhole_witness(3)


def test_split_1100():
    A = split_1100_construction(7, 1, 1)
    assert A.ncols == 72
    assert A.is_simple()
    assert not contains_config(Block(5, 2, 2), A)
    # with a, b <= 1 the parts have distinct column sums and repeat no column
    for m in (7, 9, 13, 15, 19, 21, 25, 27, 31):
        for a, b in ((1, 0), (0, 1), (1, 1)):
            assert split_1100_construction(m, a, b).is_simple(), (m, a, b)


def test_split_1100_complement_exchanges_designs():
    A = split_1100_construction(7, 1, 1)
    B = split_1100_construction(7, 1, 1)
    assert sorted(A.complement().cols) == sorted(B.cols)
    C = split_1100_construction(9, 1, 2)
    D = split_1100_construction(9, 2, 1)
    assert sorted(C.complement().cols) == sorted(D.cols)


def test_split_1100_unbalanced_folds_are_not_simple():
    C = split_1100_construction(9, 1, 2)
    assert not C.is_simple()  # the b=2 layer repeats complements
    assert not contains_config(Block(6, 2, 2), C)


def test_split_1100_validation():
    with pytest.raises(ValueError):
        split_1100_construction(8, 1, 1)  # 8 is not 1 or 3 mod 6
    with pytest.raises(ValueError):
        split_1100_construction(7, 0, 0)


def test_pigeonhole_holds_on_every_construction():
    # the weighted-profile inequality presumes t > ell and column sums in
    # {t..m-ell}; check it on the band restriction of those constructions
    cases = [
        (genl_equality_construction(2, 1, 1, 7, sts(7)), 2, 1, 1),
        (genl_equality_construction(2, 1, 1, 9, sts(9)), 2, 1, 1),
        (genl_equality_construction(2, 1, 2, 7, lambda_fold(sts(7), 2)), 2, 1, 2),
        (exceeder_construction(2, 1, 1), 2, 1, 1),
        (exceeder_construction(3, 1, 1), 3, 1, 1),
    ]
    for A, t, ell, lam in cases:
        R = A.restrict_sums(range(t, A.m - ell + 1))
        sums = R.column_sums()
        profile = (sums.count(t), sums.count(t + 1), sum(s > t + 1 for s in sums))
        assert pigeonhole_terms(t, ell, lam, A.m, profile).holds


def test_support_pigeonhole_for_equal_rows_families():
    # t = ell families sit outside the weighted inequality's hypotheses;
    # the raw support count against per-split capacity is the valid form;
    # a column of sum s supports C(s, t) * C(m - s, ell) splits
    cases = [
        (q10_construction(5, 10), 1, 1, 5),
        (q10_construction(4, 9), 1, 1, 4),
        (split_1100_construction(7, 1, 1), 2, 2, 5),
    ]
    for A, t, ell, q in cases:
        nsplits = comb(A.m, t) * comb(A.m - t, ell)
        support = sum(comb(c.bit_count(), t) * comb(A.m - c.bit_count(), ell) for c in A.cols)
        assert support <= nsplits * (q - 1)
