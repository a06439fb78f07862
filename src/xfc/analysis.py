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

from collections import Counter, namedtuple
from fractions import Fraction
from math import comb

from .bounds import pigeonhole_terms
from .matrix import MAX_CELLS, BinMatrix, count_layers, mask_of, rows_of

# A t-set table holds at most min(C(m, t), a_t + (t+1) a_{t+1}) masks, and
# it is refused before it is built when that many masks pass 2**16 or their
# m bits each pass MAX_CELLS.  The 51,444 pairs of 21,845 random triples on
# 512 rows peak at 7.2 MiB; the audit sweep's largest table holds 666 masks.
MAX_TSETS = 1 << 16


class TsetTable(namedtuple("TsetTable", "lam mu d")):
    """The t-sets a matrix's columns hold, as row masks like its columns:
    mu is the frozenset of the sum-t columns, and the Counter d maps each
    t-set inside a sum-(t+1) column to how many such columns contain it,
    multiplicity counted.  A t-set absent from d has d = 0.  Among masks
    of one size, integer order is colexicographic order."""

    __slots__ = ()

    def typical_tsets(self) -> frozenset[int]:
        """The t-sets S with mu(S) = 1 and d(S) = lam."""
        return frozenset(s for s in self.mu if self.d[s] == self.lam)


def tset_table(A: BinMatrix, t: int, lam: int) -> TsetTable:
    """Tabulate mu and d (see TsetTable): the t-subsets of a sum-(t+1)
    column c are c less one of its rows."""
    if not 0 <= t <= A.m:
        raise ValueError(f"t={t} outside 0..{A.m}")
    low = [c for c in A.cols if c.bit_count() == t]
    high = [c for c in A.cols if c.bit_count() == t + 1]
    most = len(low) + (t + 1) * len(high)
    masks = min(count_layers(A.m, (t,), most), most)
    if masks > MAX_TSETS or masks * A.m > MAX_CELLS:
        raise ValueError(f"a table of up to {masks} t-sets on {A.m} rows exceeds the analysis "
                         f"limit of {MAX_TSETS} t-sets and {MAX_CELLS} cells")
    d = Counter(c ^ 1 << r - 1 for c in high for r in rows_of(c))
    return TsetTable(lam, frozenset(low), d)


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


def _row_set(A: BinMatrix, t: int, typical: frozenset[int], rows_r):
    """(R sorted, a^R, |W|, |Z|), the rows checked before they become a
    mask.  W: the t-sets inside a sum-(t+1) column that meets R.  Z: the
    typical t-sets outside W."""
    rows_r = sorted(set(rows_r))
    if any(r < 1 or r > A.m for r in rows_r):
        raise ValueError(f"rows outside 1..{A.m}: {rows_r}")
    rmask = mask_of(rows_r)
    meeting = [c for c in A.cols if c.bit_count() == t + 1 and c & rmask]
    w = {c ^ 1 << r - 1 for c in meeting for r in rows_of(c)}
    return rows_r, len(meeting), len(w), len(typical - w)


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
    # one tally: the column sums, and a^r for every row r
    sums, per_row = Counter(), dict.fromkeys(range(1, A.m + 1), 0)
    for c in A.cols:
        k = c.bit_count()
        sums[k] += 1
        if k == t + 1:
            for r in rows_of(c):
                per_row[r] += 1
    profile = (sums[t], sums[t + 1], sum(n for s, n in sums.items() if s > t + 1))
    # refuses ell < 0, lam < 0 and a capacity, the largest count printed, too long to print
    ph = pigeonhole_terms(t, ell, lam, A.m, profile)
    table = tset_table(A, t, lam)
    row_cap = Fraction(lam + 1, t) * comb(A.m - 1, t - 1)
    need_zeros = lam + ell
    n_tsets = comb(A.m, t)
    n_missing = n_tsets - len(table.mu)
    typical = table.typical_tsets()
    # the first t-set in colexicographic order over its cap, if any
    over = min((s for s, n in table.d.items() if n + (s in table.mu) > lam + 1), default=None)
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
            None if over is None
            else {"tset": rows_of(over), "d": table.d[over], "mu": int(over in table.mu)},
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
        rows_r, a_r, w_size, z_size = _row_set(A, t, typical, rows_r)
        cap = len(rows_r) * row_cap
        note = ""
        if len(rows_r) >= lam + ell:
            note = f"|R| = {len(rows_r)} >= lam + ell = {lam + ell}: outside the intended regime"
        row_set = {
            "rows": tuple(rows_r),
            "count": a_r,
            "w_size": w_size,
            "z_size": z_size,
            "note": note,
        }
        checks.append(
            AuditCheck(
                "row_set_cap",
                None if a_r <= cap else {"rows": tuple(rows_r), "count": a_r, "cap": f"{cap}"},
                f"sum-(t+1) columns meeting R <= {cap}",
            )
        )

    scale = A.m ** (t - 1)
    ratios = {"missing_over_m_pow": n_missing / scale, "higher_over_m_pow": profile[2] / scale,
              "typical_deficit_over_m_pow": (n_tsets - len(typical)) / scale}
    return AnalysisReport(
        m=A.m,
        t=t,
        ell=ell,
        lam=lam,
        profile=profile,
        n_missing=n_missing,
        n_typical=len(typical),
        checks=tuple(checks),
        per_row_counts=per_row,
        row_set=row_set,
        ratios=ratios,
    )

