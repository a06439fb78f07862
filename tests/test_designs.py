"""Design verification, divisibility, and the triple-system generators."""

import hashlib
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from xfc.designs import (
    MAX_FOLD_BLOCKS,
    MAX_STS_BLOCKS,
    Design,
    DesignFormatError,
    divisibility_check,
    lambda_fold,
    read_design,
    sts,
    verify_design,
    write_design,
)
from xfc.matrix import Block, RowSplit, block_support_count, contains_config

FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def pair_cover(blocks):
    cover = Counter()
    for b in blocks:
        for p in combinations(sorted(b), 2):
            cover[p] += 1
    return cover


def test_verify_fano():
    assert verify_design(FANO, 7, 3, 2, 1).ok
    # oracle: direct pair count over all 21 pairs
    cover = pair_cover(FANO)
    assert all(cover[p] == 1 for p in combinations(range(1, 8), 2))


def test_verify_fano_minus_block():
    check = verify_design(FANO[1:], 7, 3, 2, 1)
    assert not check.ok
    witness_tset, count = check.witness
    assert count == 0
    assert set(witness_tset) < set(FANO[0])


def test_all_triples_on_five_points():
    blocks = list(combinations(range(1, 6), 3))
    assert verify_design(blocks, 5, 3, 2, 3).ok


def test_lambda_zero_witness_is_the_first_covered_tset():
    # at lam = 0 the verdict comes from the blocks alone; it must name the
    # t-set a scan in combination order meets first, with its count.  At
    # lam > 0 the witness is the first t-set whose count is not lam
    def scan(blocks, m, t, lam):
        cover = Counter(s for b in blocks for s in combinations(sorted(b), t))
        first = next((s for s in combinations(range(1, m + 1), t) if cover[s] != lam), None)
        return None if first is None else (first, cover[first])

    for t in range(4):
        for blocks in ([], FANO, FANO[3:], [(2, 5, 6), (1, 4, 7), (2, 5, 6)]):
            assert verify_design(blocks, 7, 3, t, 0).witness == scan(blocks, 7, t, 0), (t, blocks)
    rng = random.Random(26)
    designs = [(FANO, 7, 3, 2, 1), (FANO * 2, 7, 3, 2, 2), (list(combinations(range(1, 6), 3)), 5, 3, 2, 3)]
    for _ in range(600):
        m = rng.randint(1, 8)
        k = rng.randint(0, m)
        blocks = [rng.sample(range(1, m + 1), k) for _ in range(rng.randint(0, 6))]
        designs.append((blocks, m, k, rng.randint(0, k), rng.randint(0, 3)))
    for blocks, m, k, t, lam in designs:
        assert verify_design(blocks, m, k, t, lam).witness == scan(blocks, m, t, lam), (blocks, m, t, lam)
    assert sum(verify_design(*d).ok for d in designs) >= 3


def test_coverage_count_is_refused_past_the_fold_limit():
    # at lam > 0 the t-subsets of the distinct blocks are counted only up to
    # MAX_FOLD_BLOCKS of them, each weighted by its block's copies; at lam 0
    # none are counted
    blocks = [tuple(p for p in range(1, 1026) if p != i) for i in range(1, 1026)]
    assert 1024 * comb(1024, 1) == MAX_FOLD_BLOCKS
    assert verify_design(blocks[1:], 1025, 1024, 1, 1023).witness == ((1,), 1024)
    limit = rf"1025 distinct blocks x C\(1024, 1\) t-subsets exceed the limit of {MAX_FOLD_BLOCKS}"
    with pytest.raises(ValueError, match=limit):
        verify_design(blocks, 1025, 1024, 1, 1024)
    assert verify_design(blocks, 1025, 1024, 1, 0).witness == ((1,), 1024)
    # a fold is refused only when its design is: 350,000 blocks of sts(7)
    # hold 1,050,000 block t-subsets, but only 7 distinct blocks
    fold = lambda_fold(sts(7), 50000)
    assert verify_design(fold.blocks, 7, 3, 2, 50000).ok


def test_verify_design_structural_errors():
    with pytest.raises(ValueError):
        verify_design([(1, 2)], 7, 3, 2, 1)
    with pytest.raises(ValueError):
        verify_design([(1, 2, 9)], 7, 3, 2, 1)


def test_divisibility_examples():
    assert divisibility_check(2, 3, 1, 7).ok
    bad = divisibility_check(2, 3, 1, 8)
    assert not bad.ok and bad.per_index[1] is False
    for m in range(3, 40):
        assert divisibility_check(2, 3, 6, m).ok


def test_divisibility_matches_residue_classes():
    for m in range(3, 101):
        expected = m % 6 in (1, 3)
        assert divisibility_check(2, 3, 1, m).ok == expected


@pytest.mark.parametrize("m", [7, 9, 13, 15, 19, 21, 25])
def test_sts_generator(m):
    d = sts(m)
    assert d.nblocks == m * (m - 1) // 6
    assert d.incidence().is_simple()
    cover = pair_cover(d.blocks)
    assert all(cover[p] == 1 for p in combinations(range(1, m + 1), 2))


def test_sts_blocks_are_pinned():
    # sha256 of repr(blocks), first 16 hex digits, for every admissible
    # m <= 45: the generator may change how triples are made, never their
    # order, so construct output stays the same
    pins = {7: "f8f8e3dab27ce958", 9: "6f1b46922a95fbb2", 13: "9bb5d5a91dc05da5",
            15: "bf0f447d6ffcf7bf", 19: "baa8c7a91742e0b7", 21: "9ed592ce6bfeeeba",
            25: "0289a8a395c316c5", 27: "5769bca2fa3bc348", 31: "f99c75c17e1a5303",
            33: "1c793df9b265d8f6", 37: "ac730d658254b0d2", 39: "d792f91d9c3e3001",
            43: "62843395b5aa1326", 45: "bc38f03a8969f33b"}
    assert sorted(pins) == [m for m in range(46) if m >= 7 and m % 6 in (1, 3)]
    for m, digest in pins.items():
        assert hashlib.sha256(repr(sts(m).blocks).encode()).hexdigest()[:16] == digest, m


def test_sts_rejects_bad_orders():
    for m in (5, 8, 11, 12):
        with pytest.raises(ValueError):
            sts(m)


def test_oversized_designs_are_refused_before_building():
    # 633 is the least admissible order past 2^16 triples
    assert 627 * 626 // 6 <= MAX_STS_BLOCKS < 633 * 632 // 6
    for m in (633, 100003):
        with pytest.raises(ValueError, match=f"exceed the triple system limit of {MAX_STS_BLOCKS}"):
            sts(m)
    assert 7 * 149796 <= MAX_FOLD_BLOCKS < 7 * 149797
    with pytest.raises(ValueError, match=f"1048579 blocks exceed the design limit of {MAX_FOLD_BLOCKS}"):
        lambda_fold(sts(7), 149797)
    with pytest.raises(ValueError, match="design limit"):
        lambda_fold(sts(7), 10**9)


def test_sts_incidence_cross_check():
    # every pair supports exactly lambda=1 full columns and never lambda+1
    d = sts(9)
    A = d.incidence()
    for pair in combinations(range(1, 10), 2):
        assert block_support_count(A, RowSplit(pair, ())) == 1
    assert contains_config(Block(1, 2, 0), A)
    assert not contains_config(Block(2, 2, 0), A)


def test_lambda_fold():
    d = sts(7)
    f = lambda_fold(d, 2)
    assert (f.lam, f.nblocks) == (2, 14)
    assert verify_design(f.blocks, 7, 3, 2, 2).ok
    assert lambda_fold(d, 1).blocks == d.blocks
    assert lambda_fold(sts(9), 3).nblocks == 36


def test_block_count_identity():
    from math import comb

    for d in (sts(7), sts(9), lambda_fold(sts(7), 3)):
        assert d.nblocks * comb(d.k, d.t) == d.lam * comb(d.m, d.t)


def test_design_text_round_trip():
    d = sts(7)
    back = read_design(write_design(d))
    assert (back.m, back.k, back.t, back.lam) == (7, 3, 2, 1)
    assert back.blocks == d.blocks


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("7 3 2 1\n", 1),
        ("7 3 2 1 2\n1 2 3\n", 3),
        ("7 3 2 1 1\n1 2\n", 2),
        ("7 3 2 1 1\n3 2 1\n", 2),
        ("7 3 2 1 2\n1 2 3\n1 1 2\n", 3),
        ("7 3 2 1 2\n1 2 3\n1 2 8\n", 3),
        ("-7 3 2 1 0\n", 1),
        # two defects: the header, the first missing line, the first bad
        # block and a trailing line win in that order
        ("7 3 2 1\n1 2 x\n", 1),
        ("7 3 2 1 3\n1 2 x\n1 2 3\n", 4),
        ("7 3 2 1 2\n1 2 3\n1 1 2\n\njunk\n", 3),
        ("7 3 2 1 2\n1 2\n3 2 1\n", 2),
    ],
)
def test_design_text_errors(text, line):
    with pytest.raises(DesignFormatError) as err:
        read_design(text)
    assert err.value.line == line


def test_design_validation():
    with pytest.raises(ValueError, match="is not a 3-subset"):
        Design(7, 3, 2, 1, ((1, 2, 2),))
    with pytest.raises(ValueError, match=r"has points outside 1\.\.7"):
        Design(7, 3, 2, 1, ((5, 6, 8),))
    d = Design(7, 3, 2, 1, [(3, 2, 1)])
    assert d.blocks == ((1, 2, 3),) and d == Design(7, 3, 2, 1, ((1, 2, 3),))
    with pytest.raises(AttributeError):
        d.blocks = ()
