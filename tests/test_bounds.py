"""Exact rational bound formulas."""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from xfc.bounds import (
    BoundValue,
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
from xfc.designs import divisibility_check


def test_bound_value_floor_and_sign():
    b = BoundValue(Fraction(7, 2))
    assert b.floor_int == 3
    assert type(BoundValue(5).exact) is Fraction and BoundValue(5).notes == ()
    with pytest.raises(ValueError, match="bound values are nonnegative"):
        BoundValue(Fraction(-1, 2))
    with pytest.raises(AttributeError):
        b.exact = Fraction(1)


def test_designconfig_bound():
    assert designconfig_bound(2, 3, 1, 7).exact == 7
    assert designconfig_bound(2, 3, 0, 9).exact == 0
    assert designconfig_bound(2, 3, 1, 9).exact == 12


def test_genl_bound():
    assert genl_bound(2, 1, 1, 7).exact == 37
    assert genl_bound(2, 1, 1, 4).exact == 14
    assert genl_bound(3, 1, 2, 10).exact == 237
    assert genl_bound(2, 1, 1, 9).exact == 59


def test_genl_bound_flags_inverted_parameters():
    b = genl_bound(1, 2, 1, 6)
    assert any("t > ell" in note for note in b.notes)


def test_layered_bounds_are_sums_of_binomials():
    # each of the five bounds against its own sum of math.comb terms, over
    # t <= m+2, l <= m+1, lam <= 3, m <= 15; genl refuses exactly l > m+1
    for m in range(16):
        for lam in range(4):
            assert bound_1100(lam, m).exact == 2 + 2 * m + 2 * comb(m, 2) + Fraction(lam * comb(m, 2), 3)
            assert design_1100_bound(lam, m).exact == Fraction(lam, 3) * comb(m, 2)
            for t in range(m + 3):
                design = Fraction(lam, t + 1) * comb(m, t)
                for k in range(t, m + 1):
                    assert designconfig_bound(t, k, lam, m).exact * comb(k, t) == lam * comb(m, t)
                for ell in range(m + 2):
                    notes = genl_bound(t, ell, lam, m).notes
                    assert (len(notes) == 2) == (t <= ell) and notes == design_tplus1_bound(t, ell, lam, m).notes
                    low = sum(comb(m, i) for i in range(t + 1))
                    high = sum(comb(m, i) for i in range(m - ell + 1, m + 1))
                    assert genl_bound(t, ell, lam, m).exact == low + design + high, (t, ell, lam, m)
                    assert design_tplus1_bound(t, ell, lam, m).exact == design
                for ell in (m + 2, 2 * m + 5):
                    with pytest.raises(ValueError, match=f"need l <= m \\+ 1, got l={ell}, m={m}"):
                        genl_bound(t, ell, lam, m)
    assert genl_bound(2, 8, 1, 7).exact == 1 + 7 + 21 + 7 + 2 ** 7 == 164


def test_genl_bound_sums_its_layers_in_one_pass():
    # one running binomial, not t + l separate ones: at m = 10,000 each
    # took about 5 s as t + l calls of math.comb; and none past C(m, m)
    m = 10_000
    for t, ell, want in ((5000, 0, (2 ** m + comb(m, 5000)) // 2),
                         (2, 5000, 1 + m + comb(m, 2) + (2 ** m - comb(m, 5000)) // 2),
                         (m, 0, 2 ** m), (0, m + 1, 1 + 2 ** m), (10 ** 9, 0, 2 ** m)):
        start = time.perf_counter()
        assert genl_bound(t, ell, 0, m).exact == want
        assert time.perf_counter() - start < 1.0, (t, ell)


def test_design_tplus1_bound():
    assert design_tplus1_bound(2, 1, 1, 7).exact == 7
    assert design_tplus1_bound(2, 1, 1, 9).exact == 12
    assert design_tplus1_bound(2, 1, 0, 11).exact == 0


def test_pigeonhole_terms():
    ok = pigeonhole_terms(2, 1, 1, 7, (21, 7, 0))
    assert (ok.lhs, ok.rhs, ok.holds) == (189, 210, True)
    assert pigeonhole_terms(2, 1, 1, 7, (0, 0, 0)).holds
    bad = pigeonhole_terms(2, 1, 1, 7, (21, 10, 0))
    assert bad.lhs == 225 and not bad.holds
    # classes that need more rows than m weigh nothing, also with ell = 0 at m = t
    assert pigeonhole_terms(2, 1, 1, 3, (1, 1, 5)).lhs == 1
    assert pigeonhole_terms(2, 0, 1, 2, (1, 4, 4)).lhs == 1


def test_q10_bounds():
    assert q10_lower(3, 11).exact == 24
    assert q10_upper(5, 4).exact == 16
    for q in (3, 4, 5, 6):
        for m in range(3, 31):
            assert q10_lower(q, m).exact <= q10_upper(q, m).exact
    with pytest.raises(ValueError):
        q10_upper(3, 2)


def test_1100_bounds():
    assert bound_1100(2, 7).exact == 72
    assert design_1100_bound(2, 7).exact == 14
    assert bound_1100(3, 9).exact == 128


def test_turan_threshold():
    assert turan_threshold(6, 2, 3).exact == 9
    assert turan_threshold(7, 2, 3).exact == Fraction(49, 4)
    assert turan_threshold(5, 2, 2).exact >= 0


def test_exceeder_gap():
    assert exceeder_gap(2, 1, 1).exact == 2
    assert exceeder_gap(3, 1, 1).exact == Fraction(5, 2)
    with pytest.raises(ValueError):
        exceeder_gap(1, 1, 1)


def test_exceeder_gap_refuses_exactly_the_gaps_python_cannot_print():
    # at 640 digits, the least limit Python allows, the gap's numerator
    # passes the limit from t = 2324, 2314 and 797 on, in the order of
    # (ell, lam) below; every gap before those is the exact value
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for ell, lam, first in ((1, 600, 2324), (2, 600, 2314), (3, 1500, 797)):
            for t in range(first - 5, first + 5):
                gap = Fraction(ell, t + 1) * comb(lam + t + ell, t)
                assert (gap.numerator >= 10 ** 640) == (t >= first)
                if t >= first:
                    with pytest.raises(ValueError, match=f"at t={t} the exceeder gap has more than the 640 digits"):
                        exceeder_gap(t, ell, lam)
                else:
                    assert exceeder_gap(t, ell, lam).exact == gap
    finally:
        sys.set_int_max_str_digits(limit)


def test_decomposition_identity():
    # genl bound minus the outer layers and the sum-t layer leaves exactly
    # the design-sized middle
    rng = random.Random(3)
    for _ in range(40):
        t = rng.randint(1, 4)
        ell = rng.randint(0, t - 1)
        lam = rng.randint(0, 5)
        m = rng.randint(t + ell + 1, 20)
        whole = genl_bound(t, ell, lam, m).exact
        low = sum(comb(m, i) for i in range(t))
        high = sum(comb(m, i) for i in range(m - ell + 1, m + 1))
        assert whole - low - high - comb(m, t) == design_tplus1_bound(t, ell, lam, m).exact


def test_integrality_follows_divisibility():
    for m in range(3, 101):
        if all(divisibility_check(2, 3, 1, m).values()):
            assert designconfig_bound(2, 3, 1, m).exact.denominator == 1


def test_all_exact_values_are_fractions():
    for bv in (
        designconfig_bound(3, 4, 2, 11),
        genl_bound(3, 2, 2, 11),
        q10_upper(5, 9),
        turan_threshold(9, 3, 4),
    ):
        assert isinstance(bv.exact, Fraction)
