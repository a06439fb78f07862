"""t-set tables, audit verdicts, row-set splits."""

import json
import random
import sys
import tracemalloc
from itertools import combinations, islice
from math import comb

import pytest

import xfc.analysis
from xfc.analysis import lemma_audit, tset_table
from xfc.constructions import genl_equality_construction
from xfc.designs import sts
from xfc.matrix import MAX_CELLS, BinMatrix, layer_range, mask_of


def design_plus_pairs(m):
    return layer_range(m, (2,)).concat(sts(m).incidence())


def random_matrix(rng, m, max_cols=12):
    n = rng.randint(0, max_cols)
    return BinMatrix(m, tuple(rng.randrange(1 << m) for _ in range(n)))


def dense_table(A, t):
    """The reference: every t-subset of [m] as a tuple, in colexicographic
    order, mapped to its mu and to its d."""
    tsets = sorted(combinations(range(1, A.m + 1), t), key=lambda s: s[::-1])
    mu, d = dict.fromkeys(tsets, 0), dict.fromkeys(tsets, 0)
    for rows in A.column_sets():
        if len(rows) == t:
            mu[rows] = 1
        elif len(rows) == t + 1:
            for s in combinations(rows, t):
                d[s] += 1
    return mu, d


def test_mask_table_matches_a_dense_reference():
    rng = random.Random(17)
    for _ in range(600):
        m = rng.randint(1, 8)
        t, lam = rng.randint(1, m), rng.randint(0, 3)
        ell = rng.randint(0, m - t)
        # mostly sum-t and sum-(t+1) columns, so that degrees pass lam + 1
        sums = [rng.choice((t, t + 1, t + 1, rng.randint(0, m))) for _ in range(rng.randint(0, 14))]
        A = BinMatrix.from_columns(m, [rng.sample(range(1, m + 1), min(s, m)) for s in sums])
        rows = [r for r in range(1, m + 1) if rng.random() < 0.3]
        mu, d = dense_table(A, t)
        masks = [mask_of(s) for s in mu]
        assert masks == sorted(masks)  # integer order of equal-size masks is colex order
        tab = tset_table(A, t, lam)
        assert tab.mu == {mask_of(s) for s, n in mu.items() if n}
        assert dict(tab.d) == {mask_of(s): n for s, n in d.items() if n}
        report = lemma_audit(A, t, ell, lam, rows_r=rows)
        over = next(({"tset": s, "d": d[s], "mu": mu[s]} for s in mu if d[s] + mu[s] > lam + 1), None)
        assert report.check("degree_cap").witness == over
        typical = {s for s in mu if mu[s] == 1 and d[s] == lam}
        assert (report.n_missing, report.n_typical) == (list(mu.values()).count(0), len(typical))
        w = {s for c in A.column_sets() if len(c) == t + 1 and set(c) & set(rows)
             for s in combinations(c, t)}
        assert (report.row_set["w_size"], report.row_set["z_size"]) == (len(w), len(typical - w))


def test_tset_table_size_limit():
    # a table holds at most min(C(m, t), a_t + (t+1) a_{t+1}) masks of m
    # bits, and is refused before anything is built when they pass
    # MAX_TSETS masks or MAX_CELLS bits
    cols = list(islice(combinations(range(1, 41), 21), 3200))
    assert 21 * 3120 <= xfc.analysis.MAX_TSETS < 21 * 3200
    assert sum(tset_table(BinMatrix.from_columns(40, cols[:3120]), 20, 1).d.values()) == 21 * 3120
    A = BinMatrix.from_columns(40, cols)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="analysis limit"):
            tset_table(A, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    # at t = 1, the m masks of m bits pass MAX_CELLS from 5,793 rows on
    for m in (5792, 5793):
        A = BinMatrix(m, tuple(1 << r for r in range(m)))
        if m * m <= MAX_CELLS:
            assert len(tset_table(A, 1, 1).mu) == m
        else:
            with pytest.raises(ValueError, match="analysis limit"):
                tset_table(A, 1, 1)
    # C(m, t) caps the count, and is counted only up to the columns' bound:
    # 30,000 sum-3 columns on 5 rows hold at most C(5, 2) = 10 pairs, not
    # 90,000, and no column holds none
    A = BinMatrix.from_columns(5, [(1, 2, 3)] * 30_000)
    assert tset_table(A, 2, 1).d == {mask_of(p): 30_000 for p in combinations((1, 2, 3), 2)}
    assert tset_table(BinMatrix(10**6, ()), 5 * 10**5, 1).mu == frozenset()


def test_table_on_design_union():
    A = design_plus_pairs(7)
    tab = tset_table(A, 2, 1)
    assert len(tab.mu) == comb(7, 2)
    assert all(tab.d[s] == 1 for s in tab.d)
    assert len(tab.typical_tsets()) == 21
    # the pairs inside {2..5}, each covered once by a triple through row 1,
    # are typical; the pairs through row 1 are missing
    pairs = list(combinations(range(2, 6), 2))
    B = BinMatrix.from_columns(5, pairs + [(1,) + p for p in pairs])
    assert tset_table(B, 2, 1).typical_tsets() == {mask_of(p) for p in pairs}


def test_degree_counts_multiplicity():
    # three sum-3 columns 123, 124, 124 give the pair {1,2} degree 3
    A = BinMatrix.from_columns(4, [(1, 2, 3), (1, 2, 4), (1, 2, 4)])
    tab = tset_table(A, 2, 1)
    assert tab.d[mask_of((1, 2))] == 3
    assert tab.d[mask_of((3, 4))] == 0


def test_table_empty_profile():
    A = BinMatrix.from_columns(5, [(1,), (1, 2, 3, 4)])  # no sum-2, no sum-3
    tab = tset_table(A, 2, 1)
    assert tab.mu == frozenset() and not tab.d
    assert tab.typical_tsets() == frozenset()


def test_identities_hold_on_random_matrices():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 7)
        t = rng.randint(1, m - 1)
        A = random_matrix(rng, m)
        tab = tset_table(A, t, 1)
        assert sum(tab.d.values()) == (t + 1) * A.column_sums().count(t + 1)
        assert len(tab.mu) == len({c for c in A.cols if c.bit_count() == t})


def test_audit_passes_on_restricted_equality_construction():
    A = genl_equality_construction(2, 1, 1, 7, sts(7)).restrict_sums({2, 3})
    report = lemma_audit(A, 2, 1, 1)
    assert report.all_passed
    assert report.profile == (21, 7, 0)
    assert report.n_missing == 0 and report.n_typical == 21


def test_audit_flags_corruption_with_witness():
    A = design_plus_pairs(7)
    extra = next(c for c in A.cols if c.bit_count() == 3)
    bad = A.concat(BinMatrix(7, (extra,) * 3))
    report = lemma_audit(bad, 2, 1, 1)
    failed = {c.name for c in report.checks if not c.passed}
    assert "degree_cap" in failed
    w = report.check("degree_cap").witness
    assert w["d"] + w["mu"] > 2
    assert set(w["tset"]) < set(range(1, 8))


def test_audit_reports_hypothesis_violations_without_rejecting():
    A = design_plus_pairs(7).concat(BinMatrix(7, ((1 << 7) - 1,)))  # add the ones column
    report = lemma_audit(A, 2, 1, 1)
    assert not report.check("column_sum_band").passed
    assert not report.check("zero_count_floor").passed
    assert report.check("degree_cap").passed


def test_audit_detects_repeated_low_sum_columns():
    A = BinMatrix.from_columns(5, [(1, 2), (1, 2), (3, 4)])
    report = lemma_audit(A, 2, 1, 1)
    assert not report.check("low_sum_unrepeated").passed


def test_every_audit_check_can_fail_alone():
    # over small random matrices, every check fails somewhere and no two
    # checks give the same verdict on every matrix: a check that cannot
    # fail, or that repeats another, would be caught here
    rng = random.Random(5)
    verdicts = []
    for _ in range(4000):
        m, t = rng.randint(3, 6), rng.randint(1, 2)
        ell, lam = rng.randint(0, min(2, m - t)), rng.randint(0, 2)
        report = lemma_audit(random_matrix(rng, m), t, ell, lam, rows_r=[1])
        verdicts.append({c.name: c.passed for c in report.checks})
    names = list(verdicts[0])
    for name in names:
        assert any(not v[name] for v in verdicts), name
    for a, b in combinations(names, 2):
        assert any(v[a] != v[b] for v in verdicts), (a, b)


def test_audit_empty_matrix_vacuous():
    report = lemma_audit(BinMatrix(6, ()), 2, 1, 1)
    assert report.all_passed


def test_audit_builds_the_tset_table_once(monkeypatch):
    calls = []
    built = xfc.analysis.tset_table
    monkeypatch.setattr(xfc.analysis, "tset_table", lambda *a: calls.append(a) or built(*a))
    A = genl_equality_construction(2, 1, 1, 13, sts(13)).restrict_sums(range(2, 13))
    lemma_audit(A, 2, 1, 1)
    assert len(calls) == 1
    calls.clear()
    lemma_audit(A, 2, 1, 1, rows_r=(1,))
    assert len(calls) == 1


def test_audit_refuses_exactly_the_counts_python_cannot_print():
    # on 2,200 rows the capacity C(m, t+ell) C(t+ell, ell) (lam+1) passes
    # 640 digits, the least limit Python allows, from t = 873, 857, 868
    # and 852 on, in the order of (ell, lam) below; every other count fits
    m, limit = 2200, sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for ell, lam in ((0, 0), (1, 0), (0, 9), (1, 9)):
            for t in range(848, 878):
                capacity = comb(m, t + ell) * comb(t + ell, ell) * (lam + 1)
                if capacity >= 10 ** 640:
                    with pytest.raises(ValueError, match=f"at m={m}, t={t} the capacity"):
                        lemma_audit(BinMatrix(m, ()), t, ell, lam)
                else:
                    json.dumps(lemma_audit(BinMatrix(m, ()), t, ell, lam))  # every count prints
    finally:
        sys.set_int_max_str_digits(limit)


def test_audit_row_set_section():
    A = design_plus_pairs(7)
    report = lemma_audit(A, 2, 1, 1, rows_r=[1])
    assert report.check("row_set_cap").passed
    assert report.row_set["count"] == 3  # blocks through point 1
    assert report.row_set["w_size"] == 9 and report.row_set["z_size"] == 12
    big = lemma_audit(A, 2, 1, 1, rows_r=[1, 2, 3])
    assert "outside the intended regime" in big.row_set["note"]


def test_w_z_sets_examples():
    A = design_plus_pairs(7)

    def sizes(rows):
        row_set = lemma_audit(A, 2, 1, 1, rows_r=rows).row_set
        return row_set["w_size"], row_set["z_size"]

    assert sizes([1]) == (9, 12)
    assert sizes([]) == (0, 21)
    covered = set()
    for c in A.column_sets():
        if len(c) == 3:
            covered.update(combinations(c, 2))
    assert sizes(range(1, 8)) == (len(covered), 0)


def test_w_size_bounded_by_column_contributions():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(3, 7)
        t = rng.randint(1, m - 2)
        A = random_matrix(rng, m)
        rows = [r for r in range(1, m + 1) if rng.random() < 0.4]
        row_set = lemma_audit(A, t, 0, 1, rows_r=rows).row_set
        rmask = mask_of(rows)
        a_r = sum(1 for c in A.cols if c.bit_count() == t + 1 and c & rmask)
        assert row_set["count"] == a_r and row_set["w_size"] <= (t + 1) * a_r
