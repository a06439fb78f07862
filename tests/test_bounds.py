"""Exact rational bound formulas."""

import random
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
        if divisibility_check(2, 3, 1, m).ok:
            assert designconfig_bound(2, 3, 1, m).exact.denominator == 1


def test_all_exact_values_are_fractions():
    for bv in (
        designconfig_bound(3, 4, 2, 11),
        genl_bound(3, 2, 2, 11),
        q10_upper(5, 9),
        turan_threshold(9, 3, 4),
    ):
        assert isinstance(bv.exact, Fraction)
