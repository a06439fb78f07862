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
    return BoundValue(Fraction(lam * comb(m, t), comb(k, t)), attained_by="design incidence")


def _nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name}={value} must be nonnegative")


def genl_bound(t: int, ell: int, lam: int, m: int) -> BoundValue:
    """Sum_{i<t} C(m,i) + (1 + lam/(t+1)) C(m,t) + Sum_{i>m-ell} C(m,i)."""
    _nonnegative(t=t, ell=ell, lam=lam, m=m)
    notes = [ASYMPTOTIC_NOTE]
    if t <= ell:
        notes.append(f"stated for t > ell, got t={t}, ell={ell}")
    low = sum(comb(m, i) for i in range(t))
    mid = (1 + Fraction(lam, t + 1)) * comb(m, t)
    high = sum(comb(m, i) for i in range(m - ell + 1, m + 1))
    return BoundValue(low + mid + high, attained_by="genl equality construction", notes=tuple(notes))


def design_tplus1_bound(t: int, ell: int, lam: int, m: int) -> BoundValue:
    """lam/(t+1) * C(m,t): max columns with sums in {t+1..m-1} avoiding
    lam+1 copies of the t-ones/ell-zeros column."""
    _nonnegative(t=t, ell=ell, lam=lam, m=m)
    notes = [ASYMPTOTIC_NOTE]
    if t <= ell:
        notes.append(f"stated for t > ell, got t={t}, ell={ell}")
    return BoundValue(
        Fraction(lam, t + 1) * comb(m, t),
        attained_by="design with block size t+1",
        notes=tuple(notes),
    )


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
    from .matrix import count_layers  # here, so that the bounds command starts without it
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0 (or no such limit): any int prints
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
    return BoundValue(
        2 + 2 * m + (2 + Fraction(lam, 3)) * comb(m, 2),
        attained_by="split 1100 construction",
        notes=(ASYMPTOTIC_NOTE,),
    )


def design_1100_bound(lam: int, m: int) -> BoundValue:
    """lam/3 * C(m,2) for column sums in {3..m-3}."""
    _nonnegative(lam=lam, m=m)
    return BoundValue(
        Fraction(lam, 3) * comb(m, 2),
        attained_by="split 1100 middle layers",
        notes=(ASYMPTOTIC_NOTE,),
    )


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


def exceeder_gap(t: int, ell: int, lam: int) -> BoundValue:
    """ell/(t+1) * C(lam+t+ell, t): how far the small-m construction sits
    above genl_bound at m = lam+t+ell.  Exact rational; not always an
    integer even though the column-count difference it equals is."""
    if not t > ell >= 1:
        raise ValueError("need t > ell >= 1")
    if lam < 1:
        raise ValueError("need lam >= 1")
    return BoundValue(Fraction(ell, t + 1) * comb(lam + t + ell, t))
