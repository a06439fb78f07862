"""Core (0,1)-matrix values, complete layers and configuration containment.

A matrix is an ordered multiset of columns over rows 1..m.  Each column is
stored as a packed bitmask (bit i-1 set <=> the column has a 1 in row i).
``_row_strings`` is the one transposition from columns to rows: the text
writer and the containment search read rows through it, and the text
reader inverts it with one base-2 parse per column.
Containment of blocks and general patterns, and maximum multiplicity, run
one search over injective maps of the pattern's rows into A's rows.  All
values are immutable named tuples, compared and hashed by their fields;
every operation returns fresh objects.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations

# Containment refuses a pattern whose row masks, one per distinct pattern
# row and row of A, each (distinct columns) x (columns of A) bits wide,
# would pass 256 MiB in all.
MAX_ROW_MASK_BITS = 1 << 31
# layer_range refuses more than 2^25 cells (m per column), counted before
# enumerating: all 21 million of m = 20 take 56 MB, 163 MB as text.
MAX_CELLS = 1 << 25


class MatrixFormatError(ValueError):
    """Malformed matrix or design text (designs raise it under the name
    DesignFormatError).  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def mask_of(rows) -> int:
    """Pack 1-based row positions into a column bitmask."""
    m = 0
    for r in rows:
        m |= 1 << (r - 1)
    return m


def rows_of(mask: int) -> tuple[int, ...]:
    """Unpack a column bitmask into ascending 1-based row positions."""
    out = []
    while mask:
        low = mask & -mask  # peel off the lowest set bit
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class BinMatrix(namedtuple("BinMatrix", "m cols")):
    """An m-rowed (0,1)-matrix as an ordered multiset of column bitmasks.

    ``m`` may be 0 only for degenerate patterns (a configuration with no
    rows); real inputs always have m >= 1.
    """

    __slots__ = ()

    def __new__(cls, m: int, cols=()):
        if m < 0:
            raise ValueError("row count must be nonnegative")
        cols = tuple(cols)
        limit = 1 << m
        for j, c in enumerate(cols):
            if not 0 <= c < limit:
                raise ValueError(f"column {j} has 1-positions outside 1..{m}")
        return tuple.__new__(cls, (m, cols))

    @classmethod
    def from_columns(cls, m: int, columns) -> "BinMatrix":
        """Build from an iterable of 1-position collections (1-based rows)."""
        return cls(m, tuple(mask_of(c) for c in columns))

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.cols)

    def column_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(rows_of(c) for c in self.cols)

    def is_simple(self) -> bool:
        """True iff no column repeats (the matrix encodes a set system)."""
        return len(set(self.cols)) == len(self.cols)

    def complement(self) -> "BinMatrix":
        """Flip every entry; a column of sum s becomes one of sum m-s."""
        full = (1 << self.m) - 1
        return BinMatrix(self.m, tuple(full ^ c for c in self.cols))

    def concat(self, other: "BinMatrix") -> "BinMatrix":
        """Column-multiset union [self | other]; row counts must agree."""
        if self.m != other.m:
            raise ValueError(f"row-count mismatch: {self.m} vs {other.m}")
        return BinMatrix(self.m, self.cols + other.cols)

    def restrict_sums(self, sums) -> "BinMatrix":
        """Keep only columns whose sum lies in ``sums`` (order preserved)."""
        allowed = set(sums)
        return BinMatrix(self.m, tuple(c for c in self.cols if c.bit_count() in allowed))

    def to_text(self) -> str:
        """Render in the matrix text format (see read_matrix)."""
        rows = [s[::-1] for s in _row_strings(self.m, self.cols)]
        return "\n".join([f"{self.m} {self.ncols}", *rows]) + "\n"


def _layer(m: int, s: int) -> tuple[int, ...]:
    """The C(m, s) column masks of sum s, in lexicographic order of their
    1-position sets."""
    if not 0 <= s <= m:
        raise ValueError(f"sum {s} outside 0..{m}")
    return tuple(map(sum, combinations([1 << r for r in range(m)], s)))


def count_layers(m: int, sums, limit: int) -> int:
    """The columns of sum in sums, C(m, s) each, or limit + 1 once they
    pass limit.  C(m, i) only grows for i = 1..min(s, m - s), so it is
    built upward and the count stops as soon as it passes limit."""
    n = 0
    for s in sums:
        c = 1
        for i in range(min(s, m - s)):
            c = c * (m - i) // (i + 1)
            if n + c > limit:
                return limit + 1
        n += c
    return min(n, limit + 1)


def layer_range(m: int, sums) -> BinMatrix:
    """Concatenation of complete layers over the given sums, ascending,
    each in lexicographic order of its columns' 1-position sets."""
    sums = sorted(set(sums))
    most = MAX_CELLS // max(m, 1)
    if count_layers(m, sums, most) > most:
        raise ValueError(f"layers on {m} rows exceed the limit of {MAX_CELLS} cells")
    return BinMatrix(m, tuple(c for s in sums for c in _layer(m, s)))


class RowSplit(namedtuple("RowSplit", "ones zeros")):
    """A disjoint (ones-rows, zeros-rows) pair of row subsets, each sorted."""

    __slots__ = ()

    def __new__(cls, ones, zeros):
        ones, zeros = tuple(sorted(ones)), tuple(sorted(zeros))
        if set(ones) & set(zeros):
            raise ValueError("ones-rows and zeros-rows must be disjoint")
        return tuple.__new__(cls, (ones, zeros))

    def valid_for(self, m: int) -> bool:
        pts = self.ones + self.zeros
        return all(1 <= r <= m for r in pts)


class Block(namedtuple("Block", "q t ell")):
    """The (t+ell) x q pattern of q identical columns: t ones over ell zeros."""

    __slots__ = ()

    def __new__(cls, q: int, t: int, ell: int):
        if q < 0 or t < 0 or ell < 0:
            raise ValueError(f"Block parameters must be nonnegative, got {q},{t},{ell}")
        return tuple.__new__(cls, (q, t, ell))

    @property
    def nrows(self) -> int:
        return self.t + self.ell

    def pattern(self) -> BinMatrix:
        """Expand to the equivalent general (0,1)-pattern."""
        col = (1 << self.t) - 1
        return BinMatrix(self.nrows, (col,) * self.q)


class General(namedtuple("General", "pattern")):
    """An arbitrary (0,1)-pattern regarded up to row and column permutation."""

    __slots__ = ()


Configuration = Block | General


def block_support_count(A: BinMatrix, split: RowSplit) -> int:
    """Columns of A (with multiplicity) that are all-1 on the ones-rows and
    all-0 on the zeros-rows of the split: one AND per column."""
    if not split.valid_for(A.m):
        raise ValueError(f"split rows outside 1..{A.m}")
    tmask, rows = mask_of(split.ones), mask_of(split.ones + split.zeros)
    return sum(1 for c in A.cols if c & rows == tmask)


def max_block_multiplicity(A: BinMatrix, t: int, ell: int) -> tuple[int, RowSplit]:
    """Maximum of block_support_count over all (t, ell) row splits, with the
    lexicographically least maximizing split.  Requires t + ell <= m."""
    if t < 0 or ell < 0:
        raise ValueError("t and ell must be nonnegative")
    if t + ell > A.m:
        raise ValueError(f"t + ell = {t + ell} exceeds row count {A.m}")
    best = 0, RowSplit(range(1, t + 1), range(t + 1, t + ell + 1))  # when every count is 0
    for counts, rows in _row_maps(A, t + ell, {(1 << t) - 1: 1}):
        best = counts[0], RowSplit(rows[:t], rows[t:])
    return best


def contains_config(config: Configuration, A: BinMatrix) -> bool:
    """True iff some submatrix of A is a row and column permutation of the
    configuration.  A pattern wider or taller than A is never contained;
    patterns with zero columns (or zero multiplicity) are contained
    vacuously.  A block is searched as its one distinct column and never
    expanded."""
    if isinstance(config, Block):
        k, want = config.nrows, {(1 << config.t) - 1: config.q}
    else:
        k, want = config.pattern.m, Counter(config.pattern.cols)
    total = sum(want.values())
    if not total:
        return True
    return k <= A.m and total <= A.ncols and next(_row_maps(A, k, want), None) is not None


def _row_maps(A: BinMatrix, k: int, want: dict[int, int]):
    """Yield (counts, rows) for each injective map of a k-row pattern's rows
    into A's rows, in lexicographic order, under which every distinct
    pattern column c (of k rows) has at least want[c] >= 1 matching columns
    of A, and which beats every count of the yield before it.  counts
    follows want's order; rows holds the 1-based A rows of the pattern rows
    sorted descending, each run of equal pattern rows ascending.

    An A column matches at most one pattern column, so a row map contains
    the pattern iff every count reaches want.  Segment j of the mask for a
    pattern row and A row r (bits j*n.., n = A.ncols) holds the columns of
    A that agree in row r with distinct column j in that pattern row, so
    the search is an iterative DFS over the pattern rows carrying the AND
    of the chosen masks.  A row only shrinks the AND, so a branch whose
    popcount is below the total wanted is cut, and so is one where some
    later group of equal pattern rows has fewer A rows keeping that total
    on their own than it has rows.  A leaf is injective once every count
    reaches want: two pattern rows differ in some column, whose segment a
    shared A row empties."""
    need, n, nseg = list(want.values()), A.ncols, len(want)
    prow, end, starts = _pattern_rows(k, tuple(want))
    distinct = set(prow)
    if len(distinct) * A.m * nseg * n > MAX_ROW_MASK_BITS:
        raise ValueError(f"containment row masks exceed the limit of {MAX_ROW_MASK_BITS} bits")
    reps = [int("0" + s * nseg, 2) for s in _row_strings(A.m, A.cols)]  # a row's ones, per segment
    masks = {}
    for v in distinct:  # flip the segments of the columns with a 0 in pattern row v
        flip = int("0" + "".join("0" * n if v >> j & 1 else "1" * n for j in reversed(range(nseg))), 2)
        masks[v] = [rep ^ flip for rep in reps]
    rowmasks = [masks[v] for v in prow]
    # later[e]: (masks, rows) of each group starting at depth e or after
    later = {e: [(rowmasks[s], end[s] - s) for s in starts if s >= e] for e in {0, *end}}
    aheads = [later[e] for e in end]
    total = sum(need)

    def keeps(support: int, groups) -> bool:
        """Each group has as many A rows keeping ``total`` of the support as it has rows."""
        for group_masks, left in groups:
            for mk in group_masks:
                if (support & mk).bit_count() >= total:
                    left -= 1
                    if not left:
                        break
            else:
                return False
        return True

    acc = [(1 << nseg * n) - 1] * (k + 1)  # acc[d]: AND of the masks chosen above depth d
    row = [0] * (k + 1)  # row[d]: next A row to try at depth d, so the chosen row's number
    d = 0 if keeps(acc[0], later[0]) else -1
    while d >= 0:
        if d < k:
            masks_d, ahead = rowmasks[d], aheads[d]
            for r in range(row[d], A.m - end[d] + d + 1):  # leaves rows for the rest of d's group
                support = acc[d] & masks_d[r]
                if support.bit_count() >= total and (not ahead or keeps(support, ahead)):
                    row[d], acc[d + 1] = r + 1, support
                    d += 1
                    row[d] = 0 if end[d - 1] == d else r + 1  # a new group, or the same
                    break
            else:
                d -= 1
            continue
        counts = [(acc[k] >> j * n & (1 << n) - 1).bit_count() for j in range(nseg)]
        if all(c >= w for c, w in zip(counts, need)):
            yield counts, row[:k]
            need = [c + 1 for c in counts]
            total = sum(need)
        d -= 1


@lru_cache(maxsize=16)
def _pattern_rows(k: int, cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The pattern side of _row_maps, built once per k and column order:
    the k pattern rows sorted descending, bit j of a row being distinct
    column j's entry in it; end[d], one past the last depth of d's group of
    equal pattern rows; and the depths where the groups start."""
    prow = sorted((int("0" + s, 2) for s in _row_strings(k, cols)), reverse=True)
    end = [k] * k
    for d in range(k - 2, -1, -1):
        end[d] = end[d + 1] if prow[d] == prow[d + 1] else d + 1
    starts = [d for d in range(k) if d == 0 or prow[d] != prow[d - 1]]
    return tuple(prow), tuple(end), tuple(starts)


def _row_strings(m: int, cols) -> list[str]:
    """Row r + 1 of m-row columns as a binary string, last column first."""
    bits = "".join([format(c | 1 << m, "b")[1:] for c in reversed(cols)])  # m digits each
    return [bits[m - 1 - r::m] for r in range(m)]


def _read_text(text: str, header: str, count: int, what: str, parse_line) -> tuple[list, list]:
    """The layout both text formats share: a header of the nonnegative
    integers named in header, as many body lines as its field number
    count, then blank lines only.  Returns the header's fields and
    parse_line(fields, line number, line) of each body line.  The first
    error wins in this order: the header, the first missing line, the
    first bad body line, the first trailing line."""
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError(1, f"empty input, expected header '{header}'")
    if len(lines[0].split()) != len(header.split()):
        raise MatrixFormatError(1, f"expected header '{header}', got {lines[0]!r}")
    try:
        fields = [int(x) for x in lines[0].split()]
    except ValueError:
        raise MatrixFormatError(1, f"non-integer header fields in {lines[0]!r}") from None
    if min(fields) < 0:
        raise MatrixFormatError(1, "header fields must be nonnegative")
    n = fields[count]
    if len(lines) < n + 1:
        raise MatrixFormatError(len(lines) + 1, f"expected {n} {what} lines, got {len(lines) - 1}")
    body = [parse_line(fields, no, line) for no, line in enumerate(lines[1:n + 1], 2)]
    for no, line in enumerate(lines[n + 1:], n + 2):
        if line.strip():
            raise MatrixFormatError(no, "trailing non-empty line")
    return fields, body


def _matrix_row(fields: list, no: int, row: str) -> str:
    """Row line no: exactly n characters from {0,1}."""
    if len(row) != fields[1]:
        raise MatrixFormatError(no, f"expected {fields[1]} characters, got {len(row)}")
    if bad := row.lstrip("01"):
        raise MatrixFormatError(no, f"invalid character {bad[0]!r}")
    return row


def read_matrix(text: str) -> BinMatrix:
    """Parse the matrix text format.

    First line "m n"; then m lines of exactly n characters from {0,1};
    column j is read down line positions j.  Round-trips with to_text().
    """
    (m, n), rows = _read_text(text, "m n", 0, "row", _matrix_row)
    # the inverse of _row_strings: column j is every n-th digit from row m
    # up to row 1, behind a 0 that gives the m = 0 columns a digit
    bits = "0" * n + "".join(reversed(rows))
    return BinMatrix(m, tuple(int(bits[j::n], 2) for j in range(n)))
