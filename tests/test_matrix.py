"""Matrix core: representation, text format, containment decisions."""

import os
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from conftest import brute_contains

from xfc.analysis import AuditCheck
from xfc.constructions import split_1100_construction
from xfc.designs import DesignCheck
from xfc.matrix import (
    MAX_ROW_MASK_BITS,
    TEXT_CHUNK,
    BinMatrix,
    Block,
    General,
    MatrixFormatError,
    block_support_count,
    contains_config,
    layer_range,
    mask_of,
    max_block_multiplicity,
    read_matrix,
    rows_of,
)
from xfc.search import SearchResult


def kms(m, s):
    return BinMatrix(m, tuple(mask_of(c) for c in combinations(range(1, m + 1), s)))


def full_cube(m):
    cols = []
    for s in range(m + 1):
        cols.extend(mask_of(c) for c in combinations(range(1, m + 1), s))
    return BinMatrix(m, tuple(cols))


FANO_BLOCKS = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def fano_matrix():
    return BinMatrix(7, tuple(mask_of(b) for b in FANO_BLOCKS))


def random_matrix(rng, m, max_cols=10):
    n = rng.randint(0, max_cols)
    return BinMatrix(m, tuple(rng.randrange(1 << m) for _ in range(n)))


def test_rows_of_matches_bit_scan():
    # every mask on up to 10 rows, and a few wide ones
    def scan(mask):
        return tuple(r + 1 for r in range(mask.bit_length()) if mask >> r & 1)

    for mask in range(1 << 10):
        assert rows_of(mask) == scan(mask), mask
    for mask in (1 << 36, (1 << 37) - 1, 1 << 36 | 1 << 18 | 1, 1 << 4000 | 1 << 17):
        assert rows_of(mask) == scan(mask)
        assert mask_of(rows_of(mask)) == mask


# ---------------------------------------------------------------- text format


def test_text_round_trip():
    A = fano_matrix()
    assert read_matrix(A.to_text()).cols == A.cols


def test_text_round_trip_edge_cases():
    for A in (BinMatrix(3, ()), BinMatrix(1, (0, 1)), full_cube(4)):
        B = read_matrix(A.to_text())
        assert (B.m, B.cols) == (A.m, A.cols)


def test_text_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        m = rng.randint(0, 8)
        n = rng.randint(0, 10)
        A = BinMatrix(m, tuple(rng.randrange(1 << m) if m else 0 for _ in range(n)))
        B = read_matrix(A.to_text())
        assert (B.m, B.cols) == (A.m, A.cols)


def test_text_format_is_column_down_lines():
    A = BinMatrix.from_columns(3, [(1, 3), (2,)])
    assert A.to_text() == "3 2\n10\n01\n10\n"


def test_text_is_cut_into_chunks_of_columns_exactly():
    # entry by entry, across two chunk boundaries and a short last chunk
    rng = random.Random(7)
    A = BinMatrix(9, tuple(rng.randrange(1 << 9) for _ in range(2 * TEXT_CHUNK + 5)))
    rows = ["".join(str(c >> r & 1) for c in A.cols) for r in range(A.m)]
    assert A.to_text() == "\n".join([f"9 {A.ncols}", *rows]) + "\n"


def test_write_text_holds_about_one_copy_of_the_text():
    A = layer_range(16, range(17))  # 2^16 columns, 1 MiB of row text
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            A.write_text(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # rendering the text as one string first peaks at 5.6 times it
    assert peak < 1.5 * 16 * 65536


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n10\n01", 1),
        ("2 2\n10\n0", 3),
        ("2 2\n1x\n01", 2),
        ("1 1\n1\njunk", 3),
        # two defects: the header, the first missing line, the first bad
        # row and a trailing line win in that order
        ("2\n10\n01\njunk", 1),
        ("3 2\n1x\n01", 4),
        ("2 2\n10\n0x\n\njunk", 3),
        ("2 2\n1\n0x", 2),
    ],
)
def test_text_format_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(text)
    assert err.value.line == line


# ------------------------------------------------------------- matrix algebra


def test_complement_of_layers():
    # complement(K_5^2) = K_5^3 as column multisets
    assert sorted(kms(5, 2).complement().cols) == sorted(kms(5, 3).cols)


def test_complement_is_involution():
    rng = random.Random(7)
    for _ in range(20):
        A = random_matrix(rng, rng.randint(1, 6))
        assert A.complement().complement().cols == A.cols


def test_complement_of_zero_column():
    A = BinMatrix(5, (0,))
    assert A.complement().cols == ((1 << 5) - 1,)


def test_concat_counts_and_identity():
    assert kms(3, 0).concat(kms(3, 1)).ncols == 4
    A = fano_matrix()
    assert A.concat(BinMatrix(7, ())).cols == A.cols
    assert kms(7, 2).concat(fano_matrix()).ncols == 28


def test_concat_row_mismatch():
    with pytest.raises(ValueError):
        kms(3, 1).concat(kms(4, 1))


def test_is_simple():
    assert full_cube(3).is_simple()
    assert not BinMatrix(3, (0, 0)).is_simple()
    assert kms(7, 2).concat(fano_matrix()).is_simple()


# ------------------------------------------------------------ support counts


def test_block_support_count_examples():
    K4 = full_cube(4)
    # exactly the columns 1100 and 1101
    assert block_support_count(K4, (1, 2), (3,)) == 2
    three = BinMatrix(2, (mask_of({1}),) * 3)
    assert block_support_count(three, (1,), (2,)) == 3
    zeros = BinMatrix(5, (0,) * 4)
    assert block_support_count(zeros, (2,), ()) == 0


def test_row_split_validation():
    A = BinMatrix(5, (0,) * 4)
    with pytest.raises(ValueError, match="must be disjoint"):
        block_support_count(A, (1, 2), (2,))
    for ones, zeros in (((1,), (9,)), ((0,), ()), ((), (6,))):
        with pytest.raises(ValueError, match=r"split rows outside 1\.\.5"):
            block_support_count(A, ones, zeros)


def test_matrix_and_block_validation():
    with pytest.raises(ValueError, match="row count must be nonnegative"):
        BinMatrix(-1)
    for cols in ((1, 4), (1, -1)):
        with pytest.raises(ValueError, match=r"column 1 has 1-positions outside 1\.\.2"):
            BinMatrix(2, cols)
    for q, t, ell in ((-1, 2, 1), (3, -2, 1), (3, 2, -1)):
        with pytest.raises(ValueError, match="Block parameters must be nonnegative"):
            Block(q, t, ell)


def test_values_compare_and_hash_by_fields_and_refuse_assignment():
    A = fano_matrix()
    same = BinMatrix(7, list(A.cols))  # any iterable of columns is stored as a tuple
    assert A == same and hash(A) == hash(same) and isinstance(same.cols, tuple)
    assert A != A.complement() and A != BinMatrix(8, A.cols)
    assert len({A, same, A.complement()}) == 2
    assert Block(3, 2, 1) == Block(3, 2, 1) != Block(3, 1, 2)
    assert len({Block(3, 2, 1), Block(3, 2, 1), Block(2, 2, 1)}) == 2
    assert General(A) == General(same) and hash(General(A)) == hash(General(same))
    result = SearchResult(A, 5, True)
    assert result == SearchResult(same, 5, True) != SearchResult(A, 5, False)
    assert hash(result) == hash(SearchResult(same, 5, True)) and result.optimum == 7
    audit = AuditCheck("degree_cap", {"tset": (1, 2)}, "d(S) + mu(S) <= 2")
    assert audit == AuditCheck("degree_cap", {"tset": (1, 2)}, "d(S) + mu(S) <= 2")
    assert not audit.passed and AuditCheck("degree_cap", None, "").passed
    design = DesignCheck(((1, 2), 0))
    assert design == DesignCheck(((1, 2), 0)) != DesignCheck()
    assert hash(design) == hash(DesignCheck(((1, 2), 0))) and not design.ok and DesignCheck().ok
    # verdicts and optima are read off the witness, never stored beside it
    assert SearchResult._fields == ("witness", "nodes", "proof_of_optimality")
    assert AuditCheck._fields == ("name", "witness", "detail")
    assert DesignCheck._fields == ("witness",)
    for value, field in ((A, "cols"), (A, "m"), (Block(3, 2, 1), "q"), (General(A), "pattern"),
                         (result, "witness"), (result, "optimum"),
                         (audit, "witness"), (audit, "passed"), (design, "witness"), (design, "ok")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_max_block_multiplicity_exhaustive_oracle():
    K4 = full_cube(4)
    best = max(
        sum(
            1
            for c in K4.cols
            if all(c >> (r - 1) & 1 for r in T) and not any(c >> (r - 1) & 1 for r in L)
        )
        for T in combinations(range(1, 5), 2)
        for L in combinations([r for r in range(1, 5) if r not in T], 1)
    )
    count, ones, zeros = max_block_multiplicity(K4, 2, 1)
    assert count == best == 2
    assert (ones, zeros) == ((1, 2), (3,))  # lexicographically least maximizer


def test_max_block_multiplicity_design_and_empty():
    assert max_block_multiplicity(fano_matrix(), 2, 0)[0] == 1  # every pair lies in exactly one block
    assert max_block_multiplicity(BinMatrix(4, ()), 2, 1) == (0, (1, 2), (3,))
    with pytest.raises(ValueError):
        max_block_multiplicity(BinMatrix(3, ()), 2, 2)


def test_block_support_counts_sum_to_closed_form():
    # a column of sum s supports C(s, t) * C(m - s, ell) of the (t, ell) splits
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(1, 6)
        A = random_matrix(rng, m)
        t = rng.randint(0, m)
        ell = rng.randint(0, m - t)
        total = sum(
            block_support_count(A, T, L)
            for T in combinations(range(1, m + 1), t)
            for L in combinations([r for r in range(1, m + 1) if r not in T], ell)
        )
        assert total == sum(
            comb(c.bit_count(), t) * comb(m - c.bit_count(), ell) for c in A.cols
        )


def brute_splits(A, t, ell):
    """(count, ones, zeros) for every (t, ell) split, in lexicographic order."""
    rows = range(1, A.m + 1)
    return [(block_support_count(A, T, Z), T, Z)
            for T in combinations(rows, t) for Z in combinations([r for r in rows if r not in T], ell)]


def test_split_search_matches_brute_force():
    # columns drawn partly from a small pool that holds the all-zeros and
    # all-ones columns, so repeats, tied splits and columns whose sum lies
    # outside t..m-ell, which no split counts, are common
    rng = random.Random(2024)
    ties = unfit = 0
    for _ in range(200):
        m = rng.randint(0, 7)
        pool = [0, (1 << m) - 1, *(rng.randrange(1 << m) for _ in range(3))]
        n = rng.randint(0, 9)
        A = BinMatrix(m, tuple(rng.choice(pool) if rng.random() < 0.6 else rng.randrange(1 << m)
                               for _ in range(n)))
        for t in range(m + 2):
            for ell in range(m + 2 - t):
                splits = brute_splits(A, t, ell)
                best = max((count for count, _, _ in splits), default=None)
                for q in range(n + 2):
                    expected = q == 0 or best is not None and best >= q
                    assert contains_config(Block(q, t, ell), A) == expected, (q, t, ell, A)
                if t + ell > m:
                    with pytest.raises(ValueError):
                        max_block_multiplicity(A, t, ell)
                    continue
                lex_least = next(split for split in splits if split[0] == best)
                assert max_block_multiplicity(A, t, ell) == lex_least, (t, ell, A)
                ties += sum(count == best for count, _, _ in splits) > 1
                unfit += any(not t <= s <= m - ell for s in A.column_sums())
    assert ties > 100  # the lexicographic tie-break is really exercised
    assert unfit > 500  # and so are columns that fit no split


def test_split_search_pins():
    A19 = split_1100_construction(19, 1, 1)
    assert max_block_multiplicity(A19, 2, 2) == (4, (1, 2), (4, 5))
    A25 = split_1100_construction(25, 1, 1)
    assert not contains_config(Block(5, 2, 2), A25)
    assert contains_config(Block(4, 2, 2), A25)


def test_split_search_depth_is_not_bounded_by_the_call_stack():
    A = BinMatrix(1500, ((1 << 1500) - 1,))
    assert contains_config(Block(1, 1200, 0), A)
    assert max_block_multiplicity(A, 1200, 0) == (1, tuple(range(1, 1201)), ())


def test_split_search_cuts_ones_sets_without_zeros_rows():
    # no row of an all-ones or all-zeros column holds both a one and a zero,
    # so no (1200, 300) split completes; neither column's sum lies in
    # 1200..1200, so both are dropped before a walk of C(1500, 1200) ones-sets
    for A in (BinMatrix(1500, ((1 << 1500) - 1,)), BinMatrix(1500, ((1 << 1500) - 1, 0))):
        start = time.perf_counter()
        assert max_block_multiplicity(A, 1200, 300) == (0, tuple(range(1, 1201)), tuple(range(1201, 1501)))
        assert not contains_config(Block(1, 1200, 300), A)
        assert time.perf_counter() - start < 1.0


def test_row_map_search_looks_ahead_at_every_depth():
    # every column fits Block(2, 15, 2), and rows 41 and 42 keep two zeros at
    # the root, so the zeros group can start; but only the first two columns
    # share 15 ones, on rows 1..30, and they share no zero.  Once a ones-row
    # in 5..30 is chosen no row keeps two zeros, so a search that looked at
    # the zeros group only after the ones group completed would walk the
    # ones-sets of rows 1..30 (more than C(30, 15))
    runs = ((1, 40), (1, 30, 41, 50), (1, 4, 31, 40, 43, 50))
    A = BinMatrix.from_columns(50, [[r for lo, hi in zip(run[::2], run[1::2]) for r in range(lo, hi + 1)]
                                    for run in runs])
    start = time.perf_counter()
    assert not contains_config(Block(2, 15, 2), A)
    assert max_block_multiplicity(A, 15, 2) == (1, tuple(range(1, 16)), (31, 32))
    assert time.perf_counter() - start < 1.0


def test_oversized_row_masks_are_refused_before_building():
    P = BinMatrix(12, tuple(range(1 << 12)))
    A = BinMatrix(40, tuple(range(20000)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit of {MAX_ROW_MASK_BITS} bits"):
            contains_config(General(P), A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# ---------------------------------------------------------------- containment


def test_contains_single_one_in_cube():
    assert contains_config(General(BinMatrix(1, (1,))), full_cube(2))


def test_k2_avoids_two_disagreeing_copies():
    K2 = full_cube(2)
    assert not contains_config(Block(2, 1, 1), K2)
    assert not brute_contains(Block(2, 1, 1).pattern(), K2)


def test_design_pair_multiplicity():
    # pair-count oracle: each pair covered once, so no 3 columns agree on a pair
    cover = Counter()
    for b in FANO_BLOCKS:
        for pair in combinations(b, 2):
            cover[pair] += 1
    assert set(cover.values()) == {1}
    assert not contains_config(Block(3, 2, 0), fano_matrix())
    assert contains_config(Block(1, 2, 0), fano_matrix())


def test_vacuous_conventions():
    A = BinMatrix(3, ())
    assert contains_config(Block(0, 2, 1), A)
    assert contains_config(General(BinMatrix(2, ())), A)
    assert not contains_config(Block(1, 1, 0), A)


def test_pattern_larger_than_matrix():
    A = full_cube(2)
    assert not contains_config(Block(2, 2, 1), A)  # more rows than A
    assert not contains_config(General(BinMatrix(3, (0, 7))), A)
    assert not contains_config(Block(5, 1, 0), A)  # more columns than A


def test_block_matches_general_and_brute_force():
    rng = random.Random(23)
    for m in range(2, 6):
        for _ in range(3):
            A = random_matrix(rng, m, max_cols=8)
            for q in range(5):
                for t in range(m + 1):
                    for ell in range(m - t + 1):
                        blk = Block(q, t, ell)
                        fast = contains_config(blk, A)
                        general = contains_config(General(blk.pattern()), A)
                        assert fast == general, (m, q, t, ell, A.cols)
                        assert fast == brute_contains(blk.pattern(), A), (m, q, t, ell, A.cols)
                        count = max_block_multiplicity(A, t, ell)[0]
                        assert fast == (count >= q)


def test_containment_invariant_under_permutations():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(2, 6)
        A = random_matrix(rng, m, max_cols=8)
        q, t = rng.randint(1, 3), rng.randint(1, m)
        ell = rng.randint(0, m - t)
        blk = Block(q, t, ell)
        before = contains_config(blk, A)

        perm = list(range(m))
        rng.shuffle(perm)
        shuffled_cols = [
            mask_of(perm[r - 1] + 1 for r in rows_of(c)) for c in A.cols
        ]
        rng.shuffle(shuffled_cols)
        B = BinMatrix(m, tuple(shuffled_cols))
        assert contains_config(blk, B) == before

        # permuting the general pattern's rows must not matter either
        pat = blk.pattern()
        pperm = list(range(pat.m))
        rng.shuffle(pperm)
        pat2 = BinMatrix(pat.m, tuple(mask_of(pperm[r - 1] + 1 for r in rows_of(c)) for c in pat.cols))
        assert contains_config(General(pat2), A) == before


def test_complement_duality():
    rng = random.Random(17)
    for _ in range(30):
        m = rng.randint(2, 5)
        A = random_matrix(rng, m, max_cols=7)
        t = rng.randint(0, m)
        ell = rng.randint(0, m - t)
        q = rng.randint(1, 3)
        blk = Block(q, t, ell)
        flipped = Block(q, ell, t)  # complement of the block pattern
        assert contains_config(blk, A) == contains_config(flipped, A.complement())


def test_general_containment_nontrivial_pattern():
    # identity-like 2x2 pattern inside the cube but not inside nested chains
    P = BinMatrix.from_columns(2, [(1,), (2,)])
    assert contains_config(General(P), full_cube(2))
    chain = BinMatrix.from_columns(3, [(1,), (1, 2), (1, 2, 3)])
    assert not contains_config(General(P), chain)
    assert brute_contains(P, full_cube(2))
    assert not brute_contains(P, chain)


def test_general_containment_matches_brute_force():
    # patterns of at least two distinct columns, so more than one segment,
    # against matrices that often hold the all-zeros and all-ones columns
    rng = random.Random(41)
    checked = equal_rows = mixed_sums = 0
    while checked < 600:
        pm, pn = rng.randint(1, 4), rng.randint(2, 4)
        P = BinMatrix(pm, tuple(rng.randrange(1 << pm) for _ in range(pn)))
        if len(set(P.cols)) < 2:
            continue
        A = random_matrix(rng, rng.randint(pm, 6), max_cols=8)
        if rng.random() < 0.5:
            A = A.concat(BinMatrix(A.m, (0, (1 << A.m) - 1)))
        assert contains_config(General(P), A) == brute_contains(P, A), (P.cols, A.m, A.cols)
        checked += 1
        rows = [tuple(c >> r & 1 for c in P.cols) for r in range(pm)]
        equal_rows += len(set(rows)) < pm and len(set(P.cols)) == 2
        mixed_sums += len(set(P.column_sums())) > 1
    assert equal_rows >= 100  # groups of equal pattern rows are really exercised
    assert mixed_sums >= 300  # and distinct columns that fit different column sums


def test_general_containment_cuts_runs_of_equal_columns():
    # P: one row of n ones and a zero; A: n columns 1 over 0 and one 1 over
    # 1.  No row of A holds n ones and a zero; a search that placed the n
    # equal pattern columns one by one would walk about 2^n assignments
    n = 40
    P = BinMatrix(1, (1,) * n + (0,))
    A = BinMatrix(2, (1,) * n + (3,))
    start = time.perf_counter()
    assert not contains_config(General(P), A)
    assert time.perf_counter() - start < 1.0
    # long runs of two distinct columns, against brute force
    rng = random.Random(43)
    for _ in range(300):
        pm = rng.randint(1, 2)
        a, b = rng.sample(range(1 << pm), 2)
        P = BinMatrix(pm, tuple(rng.choice((a, a, b)) for _ in range(rng.randint(3, 6))))
        A = random_matrix(rng, rng.randint(pm, 4), max_cols=8)
        assert contains_config(General(P), A) == brute_contains(P, A), (P.cols, A.m, A.cols)
