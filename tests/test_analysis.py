"""t-set tables, audit verdicts, row-set splits."""

import random
from itertools import combinations
from math import comb

import pytest

import xfc.analysis
from xfc.analysis import lemma_audit, tset_table, tsets_colex, w_z_sets
from xfc.constructions import genl_equality_construction
from xfc.designs import sts
from xfc.matrix import BinMatrix, layer_range, mask_of


def design_plus_pairs(m):
    return layer_range(m, (2,)).concat(sts(m).incidence())


def random_matrix(rng, m, max_cols=12):
    n = rng.randint(0, max_cols)
    return BinMatrix(m, tuple(rng.randrange(1 << m) for _ in range(n)))


def test_tsets_colex_order():
    assert tsets_colex(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def test_tset_table_size_limit():
    # C(362, 2) = 65,341 t-sets fit under MAX_TSETS and C(363, 2) = 65,703
    # do not; the count stops growing past the limit, so a huge C(m, t) is
    # refused at once
    assert comb(362, 2) <= xfc.analysis.MAX_TSETS < comb(363, 2)
    assert len(tset_table(BinMatrix(362, ()), 2, 1).mu) == 65_341
    for m, t in ((363, 2), (363, 361), (10**6, 5 * 10**5)):
        with pytest.raises(ValueError, match="analysis limit"):
            tset_table(BinMatrix(m, ()), t, 1)


def test_table_on_design_union():
    A = design_plus_pairs(7)
    tab = tset_table(A, 2, 1)
    assert tab.missing_tsets() == ()
    assert all(tab.d[s] == 1 for s in tab.d)
    assert len(tab.typical_tsets()) == 21
    # the pairs inside {2..5}, each covered once by a triple through row 1,
    # are typical; the pairs through row 1 are missing
    pairs = list(combinations(range(2, 6), 2))
    B = BinMatrix.from_columns(5, pairs + [(1,) + p for p in pairs])
    assert set(tset_table(B, 2, 1).typical_tsets()) == set(pairs)


def test_degree_counts_multiplicity():
    # three sum-3 columns 123, 124, 124 give the pair {1,2} degree 3
    A = BinMatrix.from_columns(4, [(1, 2, 3), (1, 2, 4), (1, 2, 4)])
    tab = tset_table(A, 2, 1)
    assert tab.d[(1, 2)] == 3
    assert tab.d[(3, 4)] == 0


def test_table_empty_profile():
    A = BinMatrix.from_columns(5, [(1,), (1, 2, 3, 4)])  # no sum-2, no sum-3
    tab = tset_table(A, 2, 1)
    assert all(v == 0 for v in tab.mu.values())
    assert all(v == 0 for v in tab.d.values())
    assert tab.typical_tsets() == ()


def test_identities_hold_on_random_matrices():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 7)
        t = rng.randint(1, m - 1)
        A = random_matrix(rng, m)
        tab = tset_table(A, t, 1)
        prof = A.column_profile(t)
        assert sum(tab.d.values()) == (t + 1) * prof.a_t1
        distinct_t = len({c for c in A.cols if c.bit_count() == t})
        assert sum(tab.mu.values()) == distinct_t == comb(m, t) - len(tab.missing_tsets())


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
    table = tset_table(A, 2, 1)
    w, z = w_z_sets(A, table, [1])
    assert len(w) == 9 and len(z) == 12
    w0, z0 = w_z_sets(A, table, [])
    assert w0 == () and len(z0) == 21
    wall, _ = w_z_sets(A, table, range(1, 8))
    covered = set()
    for c in A.cols:
        if c.bit_count() == 3:
            covered.update(
                combinations(tuple(r for r in range(1, 8) if c >> (r - 1) & 1), 2)
            )
    assert set(wall) == covered


def test_w_size_bounded_by_column_contributions():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(3, 7)
        t = rng.randint(1, m - 2)
        A = random_matrix(rng, m)
        rows = [r for r in range(1, m + 1) if rng.random() < 0.4]
        w, _ = w_z_sets(A, tset_table(A, t, 1), rows)
        rmask = mask_of(rows)
        a_r = sum(1 for c in A.cols if c.bit_count() == t + 1 and c & rmask)
        assert len(w) <= (t + 1) * a_r
