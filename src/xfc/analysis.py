"""Per-matrix t-set quantities and the hypothesis and inequality audit.

Given a matrix and parameters (t, ell, lam), this module tabulates which
t-sets appear as sum-t columns, how many sum-(t+1) columns sit over each
t-set, and the derived "typical" t-sets, then audits the paper's standing
hypotheses and the counting inequalities of its bound.  Audits never
reject their input: a matrix violating the standing hypotheses
(column sums within {t..m-ell}, sum-t columns unrepeated) gets a failed
verdict with a witness instead.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .bounds import pigeonhole_terms
from .matrix import BinMatrix, count_layers, mask_of, rows_of

# t-set tables are refused above 2**16 t-sets, counted before enumerating:
# C(362, 2) = 65,341 fits and takes about 9 MB and 0.2 s to tabulate, where
# C(2000, 2) took 326 MB; the audit sweep's largest is C(37, 2) = 666.
MAX_TSETS = 1 << 16


def tsets_colex(m: int, t: int):
    """All t-subsets of [m] in colexicographic order."""
    return sorted(combinations(range(1, m + 1), t), key=lambda s: tuple(reversed(s)))


class TsetTable(namedtuple("TsetTable", "m t lam mu d")):
    """mu and d map each t-set of [m], in colexicographic order, to its
    counts (see tset_table)."""

    __slots__ = ()

    def is_typical(self, s) -> bool:
        s = tuple(sorted(s))
        return self.mu[s] == 1 and self.d[s] == self.lam

    def missing_tsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s, n in self.mu.items() if n == 0)

    def typical_tsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s in self.mu if self.is_typical(s))


def tset_table(A: BinMatrix, t: int, lam: int) -> TsetTable:
    """Tabulate, for every t-set S: whether S appears as a sum-t column
    (mu) and how many sum-(t+1) columns contain S, multiplicity counted
    (d)."""
    if not 0 <= t <= A.m:
        raise ValueError(f"t={t} outside 0..{A.m}")
    if count_layers(A.m, (t,), MAX_TSETS) > MAX_TSETS:
        raise ValueError(f"the C({A.m}, {t}) t-sets exceed the analysis limit of {MAX_TSETS}")
    mu = dict.fromkeys(tsets_colex(A.m, t), 0)
    d = dict.fromkeys(mu, 0)
    for c in A.cols:
        k = c.bit_count()
        if k == t:
            mu[rows_of(c)] = 1
        elif k == t + 1:
            for s in combinations(rows_of(c), t):
                d[s] += 1
    return TsetTable(A.m, t, lam, mu, d)


class AuditCheck(namedtuple("AuditCheck", "name witness detail")):
    """One audited inequality.  witness: None when it holds, else a dict
    naming what broke it."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.witness is None


class AnalysisReport(namedtuple("AnalysisReport", "m t ell lam profile n_missing n_typical checks "
                                                  "per_row_counts row_set ratios")):
    """What lemma_audit found: the profile (a_t, a_t1, a_higher), the
    t-set counts, every check, and row_set only when a row set was given."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _per_row_counts(A: BinMatrix, t: int) -> dict[int, int]:
    """a^r: sum-(t+1) columns having a 1 in row r, for every row."""
    out = {r: 0 for r in range(1, A.m + 1)}
    for c in A.cols:
        if c.bit_count() == t + 1:
            for r in rows_of(c):
                out[r] += 1
    return out


def w_z_sets(A: BinMatrix, table: TsetTable, rows_r) -> tuple[tuple, tuple]:
    """Split the typical t-sets by the sum-(t+1) columns meeting a row set,
    on the t-set table of A.

    First element: t-sets S with some x such that S + x is a sum-(t+1)
    column carrying a 1 somewhere in rows_r.  Second: typical t-sets not
    of that kind.  Both in colexicographic order.
    """
    return _row_set(A, table, rows_r)[2:]


def _row_set(A: BinMatrix, table: TsetTable, rows_r):
    """(R sorted, a^R, W, Z) in one pass over the sum-(t+1) columns
    meeting R, the rows checked before they become a mask; W and Z as in
    w_z_sets."""
    rows_r = sorted(set(rows_r))
    if any(r < 1 or r > A.m for r in rows_r):
        raise ValueError(f"rows outside 1..{A.m}: {rows_r}")
    rmask, t = mask_of(rows_r), table.t
    touched: set[tuple[int, ...]] = set()
    a_r = 0
    for c in A.cols:
        if c.bit_count() == t + 1 and c & rmask:
            a_r += 1
            touched.update(combinations(rows_of(c), t))
    w = tuple(s for s in table.mu if s in touched)
    z = tuple(s for s in table.mu if table.is_typical(s) and s not in touched)
    return rows_r, a_r, w, z


def lemma_audit(A: BinMatrix, t: int, ell: int, lam: int, rows_r=None) -> AnalysisReport:
    """Audit the standing hypotheses and the counting inequalities on a
    concrete matrix.

    Checks (each with a concrete witness on failure):
      column_sum_band     all column sums within {t .. m-ell}
      low_sum_unrepeated  sum-t columns pairwise distinct
      degree_cap          d(S) + mu(S) <= lam+1 for every t-set S
      support_pigeonhole  weighted profile count within capacity
      per_row_cap         a^r <= (lam+1)/t * C(m-1, t-1) for every row
      zero_count_floor    every column has at least lam+ell zeros
      row_set_cap         (only with rows_r) a^R <= |R| * per-row cap

    Each fails on some matrix, and no two agree on every matrix.  The
    double-counting identities are not checked: sum d(S) = (t+1) a_{t+1}
    holds on every matrix, since tset_table counts d that way, and
    a_t = C(m,t) - #missing holds iff the sum-t columns are unrepeated,
    which low_sum_unrepeated already decides.
    """
    if not 1 <= t <= A.m:
        raise ValueError(f"t={t} outside 1..{A.m}")
    if ell < 0:
        raise ValueError(f"ell={ell} must be nonnegative")
    if lam < 0:
        raise ValueError(f"lam={lam} must be nonnegative")
    prof = A.column_profile(t)
    table = tset_table(A, t, lam)
    per_row = _per_row_counts(A, t)
    row_cap = Fraction(lam + 1, t) * comb(A.m - 1, t - 1)
    need_zeros = lam + ell
    n_missing = len(table.missing_tsets())
    ph = pigeonhole_terms(t, ell, lam, A.m, (prof.a_t, prof.a_t1, prof.a_higher))
    first: dict[int, int] = {}  # sum-t column -> index of its first copy
    # each check is built from its first violation, or None when it holds
    checks = [
        AuditCheck(
            "column_sum_band",
            next(({"column_index": j, "sum": c.bit_count()} for j, c in enumerate(A.cols)
                  if not t <= c.bit_count() <= A.m - ell), None),
            f"column sums within {{{t}..{A.m - ell}}}",
        ),
        AuditCheck(
            "low_sum_unrepeated",
            next(({"column_index": j, "first_index": first[c], "rows": rows_of(c)}
                  for j, c in enumerate(A.cols)
                  if c.bit_count() == t and first.setdefault(c, j) != j), None),
            "sum-t columns distinct",
        ),
        AuditCheck(
            "degree_cap",
            next(({"tset": s, "d": d, "mu": table.mu[s]} for s, d in table.d.items()
                  if d + table.mu[s] > lam + 1), None),
            f"d(S) + mu(S) <= {lam + 1}",
        ),
        AuditCheck(
            "support_pigeonhole",
            None if ph.holds else {"lhs": ph.lhs, "rhs": ph.rhs},
            f"weighted profile {ph.lhs} <= capacity {ph.rhs}",
        ),
        AuditCheck(
            "per_row_cap",
            next(({"row": r, "count": n, "cap": f"{row_cap}"} for r, n in per_row.items()
                  if n > row_cap), None),
            f"per-row sum-(t+1) count <= {row_cap}",
        ),
        AuditCheck(
            "zero_count_floor",
            next(({"column_index": j, "zeros": A.m - c.bit_count(), "need": need_zeros}
                  for j, c in enumerate(A.cols) if A.m - c.bit_count() < need_zeros), None),
            f"every column has >= {need_zeros} zeros",
        ),
    ]

    row_set = None
    if rows_r is not None:
        rows_r, a_r, w, z = _row_set(A, table, rows_r)
        cap = len(rows_r) * row_cap
        note = ""
        if len(rows_r) >= lam + ell:
            note = f"|R| = {len(rows_r)} >= lam + ell = {lam + ell}: outside the intended regime"
        row_set = {
            "rows": tuple(rows_r),
            "count": a_r,
            "w_size": len(w),
            "z_size": len(z),
            "note": note,
        }
        checks.append(
            AuditCheck(
                "row_set_cap",
                None if a_r <= cap else {"rows": tuple(rows_r), "count": a_r, "cap": f"{cap}"},
                f"sum-(t+1) columns meeting R <= {cap}",
            )
        )

    n_typical = len(table.typical_tsets())
    scale = float(A.m ** (t - 1))
    ratios = {
        "missing_over_m_pow": n_missing / scale,
        "higher_over_m_pow": prof.a_higher / scale,
        "typical_deficit_over_m_pow": (comb(A.m, t) - n_typical) / scale,
    }
    return AnalysisReport(
        m=A.m,
        t=t,
        ell=ell,
        lam=lam,
        profile=(prof.a_t, prof.a_t1, prof.a_higher),
        n_missing=n_missing,
        n_typical=n_typical,
        checks=tuple(checks),
        per_row_counts=per_row,
        row_set=row_set,
        ratios=ratios,
    )

