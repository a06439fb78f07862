"""Exact rational evaluation of the closed-form bounds, thresholds and gaps.

Everything here is pure Fraction arithmetic; no floats.  Bounds whose
underlying statements hold only for sufficiently large m are still
evaluated at any m and carry a note saying so.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb

ASYMPTOTIC_NOTE = "stated validity requires sufficiently large m"


class BoundValue(namedtuple("BoundValue", "exact attained_by notes")):
    """An exact nonnegative bound, the construction that attains it, if any,
    and notes on where it holds."""

    __slots__ = ()

    def __new__(cls, exact, attained_by: str | None = None, notes: tuple[str, ...] = ()):
        exact = Fraction(exact)
        if exact < 0:
            raise ValueError("bound values are nonnegative")
        return tuple.__new__(cls, (exact, attained_by, notes))

    @property
    def floor_int(self) -> int:
        return math.floor(self.exact)


class PigeonholeCheck(namedtuple("PigeonholeCheck", "lhs rhs")):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def designconfig_bound(t: int, k: int, lam: int, m: int) -> BoundValue:
    """lam * C(m,t) / C(k,t): max columns of sum k avoiding lam+1 repeats of
    a full t-row block."""
    if not 0 <= t <= k <= m:
        raise ValueError("need 0 <= t <= k <= m")
    _nonnegative(lam=lam)
    return BoundValue(_design(t, k, lam, m), attained_by="design incidence")


def _design(t: int, k: int, lam: int, m: int) -> Fraction:
    """lam C(m,t) / C(k,t), the blocks of a t-(m, k, lam) design by double
    counting: each layered bound's one term that is not a complete layer."""
    return Fraction(lam * comb(m, t), comb(k, t))


def _nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name}={value} must be nonnegative")


def _print_limit():
    """The most digits Python prints of an int (0 when any int prints, as
    before 3.11), and count_layers, to size a binomial against them unbuilt."""
    from .matrix import count_layers  # here, so that the bounds command starts without it
    return getattr(sys, "get_int_max_str_digits", int)(), count_layers


def _tplus1_notes(t: int, ell: int) -> tuple[str, ...]:
    return (ASYMPTOTIC_NOTE, f"stated for t > ell, got t={t}, ell={ell}") if t <= ell else (ASYMPTOTIC_NOTE,)


def genl_bound(t: int, ell: int, lam: int, m: int) -> BoundValue:
    """Sum_{i<=t} C(m,i) + lam C(m,t)/(t+1) + Sum_{i>m-ell} C(m,i), ell <= m + 1;
    one pass of C(m,i), i <= m, sums both layer ranges, as C(m, m-i) = C(m,i)."""
    _nonnegative(t=t, ell=ell, lam=lam, m=m)
    if ell > m + 1:
        raise ValueError(f"need l <= m + 1, got l={ell}, m={m}")
    layers, c = 0, 1
    for i in range(min(max(t + 1, ell), m + 1)):
        layers += c * ((i <= t) + (i < ell))
        c = c * (m - i) // (i + 1)
    return BoundValue(layers + _design(t, t + 1, lam, m), attained_by="genl equality construction",
                      notes=_tplus1_notes(t, ell))


def design_tplus1_bound(t: int, ell: int, lam: int, m: int) -> BoundValue:
    """lam/(t+1) * C(m,t): max columns with sums in {t+1..m-1} avoiding
    lam+1 copies of the t-ones/ell-zeros column."""
    _nonnegative(t=t, ell=ell, lam=lam, m=m)
    return BoundValue(_design(t, t + 1, lam, m), attained_by="design with block size t+1",
                      notes=_tplus1_notes(t, ell))


def pigeonhole_terms(t: int, ell: int, lam: int, m: int, profile) -> PigeonholeCheck:
    """Weighted column-count inequality.

    lhs weights the profile (a_t, a_{t+1}, a_{>=t+2}) by the number of
    t-ones/ell-zeros supports each column class provides; rhs is the
    capacity C(m, t+ell) * C(t+ell, ell) * (lam+1), refused before any
    binomial is built when it has more digits than Python prints.
    """
    a_t, a_t1, a_higher = profile
    _nonnegative(t=t, ell=ell, lam=lam, m=m, a_t=a_t, a_t1=a_t1, a_higher=a_higher)
    if m < t + ell:
        raise ValueError("need m >= t + ell")
    digits, count_layers = _print_limit()
    most = 10 ** digits - 1
    if digits and count_layers(m, (t + ell,), most) * count_layers(t + ell, (ell,), most) * (lam + 1) > most:
        raise ValueError(f"at m={m}, t={t} the capacity C(m, t+l) C(t+l, l) (lambda+1) has more "
                         f"than the {digits} digits Python prints")

    def supports(s: int) -> int:
        """Supports of one sum-s column; none when no such column exists."""
        return comb(s, t) * comb(m - s, ell) if s <= m else 0

    lhs = supports(t) * a_t + supports(t + 1) * a_t1 + supports(t + 2) * a_higher
    rhs = comb(m, t + ell) * comb(t + ell, ell) * (lam + 1)
    return PigeonholeCheck(lhs, rhs)


def q10_lower(q: int, m: int) -> BoundValue:
    """floor((q+1) m / 2) + 2, met by the regular-graph construction."""
    if q < 3 or m < 3:
        raise ValueError("need q >= 3 and m >= 3")
    return BoundValue(Fraction((q + 1) * m // 2 + 2), attained_by="q10 construction")


def q10_upper(q: int, m: int) -> BoundValue:
    """floor((q+1) m / 2 + (q-3) m / (2 (m-2))) + 2."""
    if q < 3 or m < 3:
        raise ValueError("need q >= 3 and m >= 3")
    exact = Fraction((q + 1) * m, 2) + Fraction((q - 3) * m, 2 * (m - 2))
    return BoundValue(Fraction(math.floor(exact) + 2))


def bound_1100(lam: int, m: int) -> BoundValue:
    """2 + 2m + (2 + lam/3) C(m,2) for avoiding lam+3 copies of the
    two-ones/two-zeros column."""
    _nonnegative(lam=lam, m=m)
    return BoundValue(2 + 2 * m + 2 * comb(m, 2) + _design(2, 3, lam, m),
                      attained_by="split 1100 construction", notes=(ASYMPTOTIC_NOTE,))


def design_1100_bound(lam: int, m: int) -> BoundValue:
    """lam/3 * C(m,2) for column sums in {3..m-3}."""
    _nonnegative(lam=lam, m=m)
    return BoundValue(_design(2, 3, lam, m), attained_by="split 1100 middle layers",
                      notes=(ASYMPTOTIC_NOTE,))


def turan_threshold(m: int, t: int, k: int) -> BoundValue:
    """C(m,t) - (m-k+1)/(m-t+1) * C(m,t) / C(k-1,t-1).

    A family of strictly more than this many t-sets forces a complete
    k-vertex sub-hypergraph.  Comparison must be strict: at (6,2,3) the
    threshold is exactly 9 and the balanced complete bipartite graph has
    9 edges and no triangle.
    """
    if not 1 <= t <= k <= m:
        raise ValueError("need 1 <= t <= k <= m")
    exact = comb(m, t) - Fraction(m - k + 1, m - t + 1) * Fraction(comb(m, t), comb(k - 1, t - 1))
    return BoundValue(exact)


def exceeder_rows(t: int, ell: int, lam: int) -> int:
    """lam+t+ell, the small-m exceeder's row count m, for t > ell >= 1 and lam >= 1 only."""
    if not t > ell >= 1:
        raise ValueError("need t > ell >= 1")
    if lam < 1:
        raise ValueError("need lam >= 1")
    return lam + t + ell


def exceeder_gap(t: int, ell: int, lam: int) -> BoundValue:
    """ell/(t+1) * C(m, t): how far the exceeder sits above genl_bound at its
    m.  Exact rational; not always an integer even though the column-count
    difference it equals is.  Refused, before C(m, t) is built, when its
    numerator has more digits than Python prints."""
    m = exceeder_rows(t, ell, lam)
    digits, count_layers = _print_limit()
    # a count past this limit puts the gap, and so its numerator, past 10^digits
    c = count_layers(m, (t,), (t + 1) * 10 ** digits // ell) if digits else comb(m, t)
    gap = Fraction(ell * c, t + 1)
    if digits and gap.numerator >= 10 ** digits:
        raise ValueError(f"at t={t} the exceeder gap has more than the {digits} digits Python prints")
    return BoundValue(gap)
