"""Branch-and-bound search, the exhaustive oracle, witness checks."""

from itertools import combinations
from math import comb

import pytest
from conftest import brute_contains

import xfc.search
from xfc.bounds import design_tplus1_bound, designconfig_bound, genl_bound
from xfc.constructions import exceeder_construction, q10_construction
from xfc.designs import verify_design
from xfc.matrix import BinMatrix, Block, General
from xfc.search import (
    POLICIES,
    SearchProblem,
    _Kernel,
    exact_max,
    exhaustive_oracle,
    verify_witness,
)


def test_two_rows_examples():
    r = exact_max(SearchProblem(2, Block(2, 1, 0)))
    assert r.optimum == 3 and r.proof_of_optimality
    assert verify_witness(SearchProblem(2, Block(2, 1, 0)), r.witness)
    assert exact_max(SearchProblem(2, Block(2, 1, 1))).optimum == 4


def test_oracle_matches_two_rows():
    assert exhaustive_oracle(SearchProblem(2, Block(2, 1, 0))).optimum == 3
    assert exhaustive_oracle(SearchProblem(2, Block(2, 1, 1))).optimum == 4


def test_regression_three_rows():
    # frozen after first oracle computation
    p = SearchProblem(3, Block(2, 1, 1))
    assert exhaustive_oracle(p).optimum == 5
    assert exact_max(p).optimum == 5


def test_pattern_wider_than_rows_is_vacuous():
    # the pattern cannot fit: every subset of the 2 columns is admissible
    p = SearchProblem(1, Block(2, 1, 1))
    assert exhaustive_oracle(p).optimum == 2
    assert exact_max(p).optimum == 2
    # t + ell > m, also with t > m: no split exists, so every column is free
    for m, block in ((3, Block(2, 4, 0)), (3, Block(2, 2, 2)), (4, Block(2, 3, 2))):
        r = exact_max(SearchProblem(m, block))
        assert (r.optimum, r.proof_of_optimality) == (2**m, True), (m, block)


def test_design_extraction_instance():
    p = SearchProblem(7, Block(2, 2, 1), sums=frozenset({3}), policy="free")
    r = exact_max(p)
    assert r.optimum == 7 and r.proof_of_optimality
    assert r.optimum == design_tplus1_bound(2, 1, 1, 7).exact
    blocks = [s for s in r.witness.column_sets() if len(s) == 3]
    assert verify_design(blocks, 7, 3, 2, 1).ok


def test_sum_restricted_instance_obeys_design_bound():
    # columns of one fixed sum avoiding lam+1 full t-blocks
    p = SearchProblem(6, Block(2, 2, 0), sums=frozenset({3}), policy="free")
    r = exact_max(p)
    assert r.optimum <= designconfig_bound(2, 3, 1, 6).exact
    assert r.proof_of_optimality


def test_constructions_are_feasible_witnesses():
    q10 = q10_construction(5, 10)
    assert verify_witness(SearchProblem(10, Block(5, 1, 1)), q10)
    exc = exceeder_construction(2, 1, 1)
    assert verify_witness(SearchProblem(4, Block(3, 2, 1)), exc)


def test_constructions_lower_bound_the_optimum():
    # at m=4 the exceeder saturates the whole cube, so the optimum is 16
    exc = exceeder_construction(2, 1, 1)
    r = exact_max(SearchProblem(4, Block(3, 2, 1)))
    assert exc.ncols <= r.optimum == 16
    wit = exact_max(SearchProblem(4, Block(5, 1, 1)))
    assert wit.optimum == 16  # the q=5 small-m witness is also optimal here


def test_witness_rejection_paths():
    p = SearchProblem(3, Block(2, 1, 1), sums=frozenset({0, 1}))
    assert not verify_witness(p, BinMatrix(4, ()))  # wrong row count
    assert not verify_witness(p, BinMatrix.from_columns(3, [(1, 2)]))  # sum outside range
    dup = BinMatrix.from_columns(3, [(1,), (1,)])
    assert not verify_witness(p, dup)  # repeat under the simple policy
    containing = BinMatrix.from_columns(3, [(1,), (1, 2)])
    q = SearchProblem(3, Block(1, 1, 1))
    assert not verify_witness(q, containing)


def test_oracle_agreement_sweep_small():
    # m = 4 with all sums is 16 candidates, the benchmark's oracle size
    for m in (1, 2, 3, 4):
        for q in (1, 2, 3):
            for t in range(m + 1):
                for ell in range(m - t + 1):
                    p = SearchProblem(m, Block(q, t, ell))
                    oracle = exhaustive_oracle(p)
                    assert exact_max(p).optimum == oracle.optimum, (m, q, t, ell)
                    assert verify_witness(p, oracle.witness), (m, q, t, ell)


def brute_optimum(p: SearchProblem) -> int:
    """Largest pattern-free subset of the candidate columns, over all 2^n
    subsets, with containment decided by brute_contains."""
    pattern = p.config.pattern() if isinstance(p.config, Block) else p.config.pattern
    cand = [c for s in p.allowed_sums() for c in range(1 << p.m) if c.bit_count() == s]
    best = 0
    for pick in range(1 << len(cand)):
        cols = tuple(c for i, c in enumerate(cand) if pick >> i & 1)
        if len(cols) > best and not brute_contains(pattern, BinMatrix(p.m, cols)):
            best = len(cols)
    return best


def test_oracle_matches_subset_brute_force():
    # the oracle is the general-pattern search; this check shares no code with it
    problems = [SearchProblem(3, General(BinMatrix.from_columns(2, [(1,), (2,)])))]
    for m in (1, 2, 3):
        for q in (1, 2, 3):
            for t in range(m + 1):
                for ell in range(m - t + 1):
                    problems.append(SearchProblem(m, Block(q, t, ell)))
    for p in problems:
        assert exhaustive_oracle(p).optimum == brute_optimum(p), p


def test_oracle_visits_only_pattern_free_sets():
    r = exhaustive_oracle(SearchProblem(4, Block(2, 1, 1)))
    assert r.optimum == 6
    assert r.nodes <= 1_000  # the sweep over all 2^16 subsets decoded 55,655 of them


def test_oracle_agreement_sum_restricted_m4():
    # wider rows than the main sweep; sum restrictions keep the oracle in range
    for sums in (frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 2, 4}), frozenset({1, 3})):
        for q in (1, 2, 3, 4):
            for t in range(4):
                for ell in range(4 - t):
                    if t == 0 and ell == 0:
                        continue
                    p = SearchProblem(4, Block(q, t, ell), sums=sums)
                    assert exact_max(p).optimum == exhaustive_oracle(p).optimum, (sums, q, t, ell)


def test_repeat_policy_small_m_probe():
    # exact proof-of-optimality values; all three sit above the asymptotic
    # bound (14, 61/3, 28), which is the whole point of the small-m regime
    expected = {4: 16, 5: 22, 6: 29}
    for m, want in expected.items():
        r = exact_max(SearchProblem(m, Block(3, 2, 1), policy="paper"))
        assert r.proof_of_optimality
        assert r.optimum == want
        assert r.optimum > genl_bound(2, 1, 1, m).exact


def test_free_policy_unbounded_detection():
    with pytest.raises(ValueError, match="unbounded"):
        exact_max(SearchProblem(4, Block(3, 2, 1), policy="free"))


def test_empty_pattern_has_no_maximum():
    with pytest.raises(ValueError):
        exact_max(SearchProblem(3, Block(0, 1, 1)))
    with pytest.raises(ValueError):
        exhaustive_oracle(SearchProblem(3, Block(0, 1, 1)))
    # a general pattern without columns has no maximum either
    with pytest.raises(ValueError, match="empty pattern"):
        exact_max(SearchProblem(3, General(BinMatrix(2, ()))))


def test_paper_policy_repeats_only_middle_sums():
    p = SearchProblem(7, Block(3, 2, 1), policy="paper")
    assert p.unrepeatable_sums() == frozenset({0, 1, 2, 7})
    r = exact_max(p)
    assert r.optimum == 37 and r.proof_of_optimality
    assert verify_witness(p, r.witness)
    assert r.nodes == 633  # 227,223 with the fractional covering bound, 2.25M without symmetry breaking


@pytest.mark.slow
def test_paper_policy_m8_proof():
    # the first proof where the divisibility condition fails: no 2-(8,3,1)
    # design exists, since C(8,2)/3 is not an integer, and the optimum is one
    # below the 47 columns genl_bound allows.  It takes over a minute, not yet
    # under the 60 s wanted before m = 8 joins the search-deep benchmark.
    p = SearchProblem(8, Block(3, 2, 1), policy="paper")
    r = exact_max(p)
    assert (r.optimum, r.proof_of_optimality, r.nodes) == (46, True, 1_272_746)
    assert int(genl_bound(2, 1, 1, 8).exact) == 47
    assert verify_witness(p, r.witness)


def test_node_budget_gives_best_effort():
    p = SearchProblem(7, Block(3, 2, 1), policy="paper", node_budget=10)
    r = exact_max(p)
    assert not r.proof_of_optimality
    assert r.optimum >= 1
    assert verify_witness(SearchProblem(7, Block(3, 2, 1), policy="paper"), r.witness)


def test_node_budget_must_be_nonnegative():
    with pytest.raises(ValueError):
        SearchProblem(7, Block(2, 2, 1), node_budget=-1)
    # budget 0 still runs: the greedy incumbent, reported without a proof
    p = SearchProblem(7, Block(2, 2, 1), sums=frozenset({3}), policy="free", node_budget=0)
    r = exact_max(p)
    assert not r.proof_of_optimality and r.optimum >= 1
    assert verify_witness(p, r.witness)


def test_general_pattern_search_tiny():
    pattern = General(BinMatrix.from_columns(2, [(1,), (2,)]))
    p = SearchProblem(3, pattern)
    r = exact_max(p)
    assert r.optimum == exhaustive_oracle(p).optimum == 4  # a chain plus the complement chain top
    assert r.proof_of_optimality


def test_general_pattern_rejects_nonsimple_policy():
    pattern = General(BinMatrix.from_columns(2, [(1,), (2,)]))
    with pytest.raises(ValueError):
        exact_max(SearchProblem(3, pattern, policy="free"))


def test_oracle_caps_candidates():
    with pytest.raises(ValueError):
        exhaustive_oracle(SearchProblem(5, Block(2, 1, 1)))  # 32 candidates > 24


def test_symmetry_breaking_prunes_free_instance():
    p = SearchProblem(7, Block(2, 2, 1), sums=frozenset(range(3, 7)), policy="free")
    r = exact_max(p)
    assert r.optimum == 7 and r.proof_of_optimality
    assert r.nodes <= 100  # about 5.6k nodes without row-symmetry breaking


def test_kernel_candidate_order():
    # the lex-leader test assumes sum ascending, then 1-positions lexicographic
    for p in (SearchProblem(5, Block(3, 2, 1), policy="paper"),
              SearchProblem(6, Block(2, 1, 2), sums=frozenset({1, 3, 4}))):
        cols = _Kernel(p).cols
        positions = [[r for r in range(p.m) if c >> r & 1] for c in cols]
        keys = list(zip((len(x) for x in positions), positions))
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_split_mask_matches_enumeration():
    # every column of every m <= 7: the product mask is the OR of the
    # brute-force splits, ranked by position in colex order
    for m in range(1, 8):
        rank = {}
        for k in range(m + 1):
            for i, sub in enumerate(sorted(combinations(range(m), k), key=lambda s: s[::-1])):
                rank[sub] = i
        for t in range(m + 1):
            for ell in range(m - t + 1):
                kernel = _Kernel(SearchProblem(m, Block(1, t, ell)))
                width = comb(m, ell)
                for c in range(1 << m):
                    ones = [r for r in range(m) if c >> r & 1]
                    zeros = [r for r in range(m) if not c >> r & 1]
                    want = 0
                    for T in combinations(ones, t):
                        for Z in combinations(zeros, ell):
                            want |= 1 << (width * rank[T] + rank[Z])
                    got = kernel.mask(c)
                    assert got == want, (m, t, ell, c)
                    assert got.bit_count() == comb(len(ones), t) * comb(len(zeros), ell)


def test_greedy_incumbent_sizes():
    # first-fit incumbents (free columns included), as computed with
    # per-split hit counts before split masks replaced them
    for p, want in ((SearchProblem(5, Block(3, 2, 1), policy="paper"), 20),
                    (SearchProblem(6, Block(3, 2, 1), policy="paper"), 27),
                    (SearchProblem(7, Block(3, 2, 1), policy="paper"), 37),
                    (SearchProblem(5, Block(3, 1, 2)), 18),
                    (SearchProblem(6, Block(4, 2, 1), sums=frozenset({2, 3, 4}), policy="free"), 45)):
        kernel = _Kernel(p)
        assert len(kernel.free_cols) + len(kernel.greedy()) == want, p


def test_search_wide_regime():
    # simple policy over all 2^m candidates, as in the search-wide benchmark
    # the greedy incumbent meets the root bound, so no child is pushed
    for m, block, want, nodes in ((12, Block(2, 2, 2), 92, 1), (13, Block(2, 2, 1), 93, 1)):
        p = SearchProblem(m, block)
        r = exact_max(p)
        assert (r.optimum, r.proof_of_optimality, r.nodes) == (want, True, nodes)
        assert verify_witness(p, r.witness)


def test_oversized_kernel_is_refused():
    with pytest.raises(ValueError, match="candidate columns"):
        exact_max(SearchProblem(30, Block(2, 2, 1)))
    assert comb(20, 3) ** 2 > xfc.search.MAX_MASK_BITS
    with pytest.raises(ValueError, match="split masks"):
        exact_max(SearchProblem(20, Block(2, 3, 3), sums=frozenset({3})))
    # the largest benchmarked kernel, 8,192 candidates and 22,308 bits, fits
    kernel = _Kernel(SearchProblem(13, Block(2, 3, 2)))
    assert len(kernel.cols) + len(kernel.free_cols) <= xfc.search.MAX_CANDIDATES
    assert kernel.root_levels[0].bit_length() == 22_308 <= xfc.search.MAX_MASK_BITS
    # 89,982 frames of 9,999 level masks each: refused before the search runs
    with pytest.raises(ValueError, match="stack"):
        _Kernel(SearchProblem(9, Block(9999, 1, 0), sums=frozenset({1}), policy="free"))


def test_witness_replay_failure_raises(monkeypatch):
    monkeypatch.setattr(xfc.search, "verify_witness", lambda p, A: False)
    with pytest.raises(RuntimeError, match="replay"):
        exact_max(SearchProblem(3, Block(2, 1, 1)))


# Proven optima of every Block(q <= 3, t, ell) at m <= 5, computed by the
# search without row-symmetry breaking.  Columns: m q t ell, then the
# optimum under the simple, free and paper policies; "-" marks an
# instance the policy leaves unbounded.
BLOCK_OPTIMA = """
1 1 0 0   0   0   0
1 1 0 1   1   -   1
1 1 1 0   1   -   1
1 2 0 0   1   1   1
1 2 0 1   2   -   2
1 2 1 0   2   -   2
1 3 0 0   2   2   2
1 3 0 1   2   -   2
1 3 1 0   2   -   2
2 1 0 0   0   0   0
2 1 0 1   1   -   1
2 1 0 2   3   -   3
2 1 1 0   1   -   1
2 1 1 1   2   -   2
2 1 2 0   3   -   3
2 2 0 0   1   1   1
2 2 0 1   3   -   3
2 2 0 2   4   -   4
2 2 1 0   3   -   3
2 2 1 1   4   -   4
2 2 2 0   4   -   4
2 3 0 0   2   2   2
2 3 0 1   4   -   5
2 3 0 2   4   -   4
2 3 1 0   4   -   4
2 3 1 1   4   -   4
2 3 2 0   4   -   4
3 1 0 0   0   0   0
3 1 0 1   1   -   1
3 1 0 2   4   -   4
3 1 0 3   7   -   7
3 1 1 0   1   -   1
3 1 1 1   2   -   2
3 1 1 2   5   -   5
3 1 2 0   4   -   4
3 1 2 1   5   -   5
3 1 3 0   7   -   7
3 2 0 0   1   1   1
3 2 0 1   4   -   4
3 2 0 2   7   -   7
3 2 0 3   8   -   8
3 2 1 0   4   -   4
3 2 1 1   5   -   5
3 2 1 2   8   -   8
3 2 2 0   7   -   7
3 2 2 1   8   -   8
3 2 3 0   8   -   8
3 3 0 0   2   2   2
3 3 0 1   5   -   7
3 3 0 2   8   -  10
3 3 0 3   8   -   8
3 3 1 0   5   -   5
3 3 1 1   8   -   8
3 3 1 2   8   -   8
3 3 2 0   8   -   8
3 3 2 1   8   -   8
3 3 3 0   8   -   8
4 1 0 0   0   0   0
4 1 0 1   1   -   1
4 1 0 2   5   -   5
4 1 0 3  11   -  11
4 1 0 4  15   -  15
4 1 1 0   1   -   1
4 1 1 1   2   -   2
4 1 1 2   6   -   6
4 1 1 3  12   -  12
4 1 2 0   5   -   5
4 1 2 1   6   -   6
4 1 2 2  10   -  10
4 1 3 0  11   -  11
4 1 3 1  12   -  12
4 1 4 0  15   -  15
4 2 0 0   1   1   1
4 2 0 1   5   -   5
4 2 0 2  11   -  11
4 2 0 3  15   -  15
4 2 0 4  16   -  16
4 2 1 0   5   -   5
4 2 1 1   6   -   6
4 2 1 2  12   -  12
4 2 1 3  16   -  16
4 2 2 0  11   -  11
4 2 2 1  12   -  12
4 2 2 2  16   -  16
4 2 3 0  15   -  15
4 2 3 1  16   -  16
4 2 4 0  16   -  16
4 3 0 0   2   2   2
4 3 0 1   7   -   9
4 3 0 2  12   -  17
4 3 0 3  16   -  19
4 3 0 4  16   -  16
4 3 1 0   7   -   7
4 3 1 1  10   -  10
4 3 1 2  16   -  18
4 3 1 3  16   -  16
4 3 2 0  12   -  12
4 3 2 1  16   -  16
4 3 2 2  16   -  16
4 3 3 0  16   -  16
4 3 3 1  16   -  16
4 3 4 0  16   -  16
5 1 0 0   0   0   0
5 1 0 1   1   -   1
5 1 0 2   6   -   6
5 1 0 3  16   -  16
5 1 0 4  26   -  26
5 1 0 5  31   -  31
5 1 1 0   1   -   1
5 1 1 1   2   -   2
5 1 1 2   7   -   7
5 1 1 3  17   -  17
5 1 1 4  27   -  27
5 1 2 0   6   -   6
5 1 2 1   7   -   7
5 1 2 2  12   -  12
5 1 2 3  22   -  22
5 1 3 0  16   -  16
5 1 3 1  17   -  17
5 1 3 2  22   -  22
5 1 4 0  26   -  26
5 1 4 1  27   -  27
5 1 5 0  31   -  31
5 2 0 0   1   1   1
5 2 0 1   6   -   6
5 2 0 2  16   -  16
5 2 0 3  26   -  26
5 2 0 4  31   -  31
5 2 0 5  32   -  32
5 2 1 0   6   -   6
5 2 1 1   7   -   7
5 2 1 2  17   -  17
5 2 1 3  27   -  27
5 2 1 4  32   -  32
5 2 2 0  16   -  16
5 2 2 1  17   -  17
5 2 2 2  22   -  22
5 2 2 3  32   -  32
5 2 3 0  26   -  26
5 2 3 1  27   -  27
5 2 3 2  32   -  32
5 2 4 0  31   -  31
5 2 4 1  32   -  32
5 2 5 0  32   -  32
5 3 0 0   2   2   2
5 3 0 1   8   -  11
5 3 0 2  18   -  26
5 3 0 3  27   -  36
5 3 0 4  32   -  36
5 3 0 5  32   -  32
5 3 1 0   8   -   8
5 3 1 1  12   -  12
5 3 1 2  22   -  27
5 3 1 3  32   -  37
5 3 1 4  32   -  32
5 3 2 0  18   -  18
5 3 2 1  22   -  22
5 3 2 2  32   -  32
5 3 2 3  32   -  32
5 3 3 0  27   -  27
5 3 3 1  32   -  32
5 3 3 2  32   -  32
5 3 4 0  32   -  32
5 3 4 1  32   -  32
5 3 5 0  32   -  32
"""


def test_block_optima_table():
    for line in BLOCK_OPTIMA.strip().splitlines():
        m, q, t, ell, *optima = line.split()
        for policy, want in zip(POLICIES, optima):
            p = SearchProblem(int(m), Block(int(q), int(t), int(ell)), policy=policy)
            if want == "-":
                with pytest.raises(ValueError, match="unbounded"):
                    exact_max(p)
                continue
            r = exact_max(p)
            assert (r.optimum, r.proof_of_optimality) == (int(want), True), (line, policy)
