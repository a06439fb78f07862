"""Core (0,1)-matrix values, complete layers and configuration containment.

A matrix is an ordered multiset of columns over rows 1..m.  Each column is
stored as a packed bitmask (bit i-1 set <=> the column has a 1 in row i).
Block containment and maximum multiplicity transpose A once into row sets
and run one split search over them.  All values are immutable; every
operation returns fresh objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations


class MatrixFormatError(ValueError):
    """Malformed matrix text.  Carries the 1-based offending line number."""

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
    r = 1
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return tuple(out)


@dataclass(frozen=True)
class BinMatrix:
    """An m-rowed (0,1)-matrix as an ordered multiset of column bitmasks.

    ``m`` may be 0 only for degenerate patterns (a configuration with no
    rows); real inputs always have m >= 1.
    """

    m: int
    cols: tuple[int, ...] = ()

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("row count must be nonnegative")
        object.__setattr__(self, "cols", tuple(self.cols))
        limit = 1 << self.m
        for j, c in enumerate(self.cols):
            if not 0 <= c < limit:
                raise ValueError(f"column {j} has 1-positions outside 1..{self.m}")

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

    def column_profile(self, t: int) -> "ColumnProfile":
        """Counts a_t, a_{t+1}, a_{>=t+2} and the full sum histogram."""
        hist = [0] * (self.m + 1)
        for c in self.cols:
            hist[c.bit_count()] += 1
        a_t = hist[t] if 0 <= t <= self.m else 0
        a_t1 = hist[t + 1] if 0 <= t + 1 <= self.m else 0
        a_higher = sum(hist[s] for s in range(t + 2, self.m + 1))
        return ColumnProfile(a_t, a_t1, a_higher, tuple(hist))

    def to_text(self) -> str:
        """Render in the matrix text format (see read_matrix)."""
        lines = [f"{self.m} {self.ncols}"]
        for r in range(self.m):
            lines.append("".join("1" if c >> r & 1 else "0" for c in self.cols))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ColumnProfile:
    a_t: int
    a_t1: int
    a_higher: int
    histogram: tuple[int, ...]


def complete_layer(m: int, s: int) -> BinMatrix:
    """All C(m, s) distinct columns of sum s, in lexicographic order of
    their 1-position sets."""
    if not 0 <= s <= m:
        raise ValueError(f"sum {s} outside 0..{m}")
    return BinMatrix(m, tuple(map(sum, combinations([1 << r for r in range(m)], s))))


def layer_range(m: int, sums) -> BinMatrix:
    """Concatenation of complete layers over the given sums, ascending."""
    return BinMatrix(m, tuple(c for s in sorted(set(sums)) for c in complete_layer(m, s).cols))


@dataclass(frozen=True)
class RowSplit:
    """A disjoint (ones-rows, zeros-rows) pair of row subsets."""

    ones: tuple[int, ...]
    zeros: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ones", tuple(sorted(self.ones)))
        object.__setattr__(self, "zeros", tuple(sorted(self.zeros)))
        if set(self.ones) & set(self.zeros):
            raise ValueError("ones-rows and zeros-rows must be disjoint")

    def valid_for(self, m: int) -> bool:
        pts = self.ones + self.zeros
        return all(1 <= r <= m for r in pts)


@dataclass(frozen=True)
class Block:
    """The (t+ell) x q pattern of q identical columns: t ones over ell zeros."""

    q: int
    t: int
    ell: int

    def __post_init__(self):
        if self.q < 0 or self.t < 0 or self.ell < 0:
            raise ValueError(f"Block parameters must be nonnegative, got {self.q},{self.t},{self.ell}")

    @property
    def nrows(self) -> int:
        return self.t + self.ell

    def pattern(self) -> BinMatrix:
        """Expand to the equivalent general (0,1)-pattern."""
        col = (1 << self.t) - 1
        return BinMatrix(self.nrows, (col,) * self.q)


@dataclass(frozen=True)
class General:
    """An arbitrary (0,1)-pattern regarded up to row and column permutation."""

    pattern: BinMatrix


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
    for best in _rising_splits(A, t, ell, 1):
        pass
    return best


def contains_config(config: Configuration, A: BinMatrix) -> bool:
    """True iff some submatrix of A is a row and column permutation of the
    configuration.  A pattern wider or taller than A is never contained;
    patterns with zero columns (or zero multiplicity) are contained
    vacuously."""
    if isinstance(config, Block):
        return _contains_block(config.q, config.t, config.ell, A)
    return _contains_general(config.pattern, A)


def _contains_block(q: int, t: int, ell: int, A: BinMatrix) -> bool:
    """True iff some (t, ell) split has support at least q; the search stops at the first."""
    if q == 0:
        return True
    return t + ell <= A.m and next(_rising_splits(A, t, ell, q), None) is not None


def _rising_splits(A: BinMatrix, t: int, ell: int, need: int):
    """Yield (count, split) for each (t, ell) split, in lexicographic order,
    whose support is at least ``need`` (>= 1) and above every earlier count.

    An iterative DFS over the ones-rows, then the zeros-rows, each ascending,
    carrying the AND of the chosen rows' sets (bit j of ones[r]: column j has
    a 1 in row r + 1).  A row only shrinks the AND, so a branch whose popcount
    is below ``need`` is cut; a zeros-row that is a ones-row empties the AND.
    Every zeros-row of a completion keeps ``need`` of the AND on its zeros,
    so a ones-branch with fewer than ell such rows is cut too."""
    # m-digit column strings, last first: row r + 1 is every m-th digit from m-1-r
    bits = "".join([format(c | 1 << A.m, "b")[1:] for c in reversed(A.cols)])
    ones = [int("0" + bits[A.m - 1 - r::A.m], 2) for r in range(A.m)]
    zeros = [((1 << A.ncols) - 1) ^ s for s in ones]
    k = t + ell

    def completes(support: int) -> bool:
        """At least ell rows keep ``need`` of the support on their zeros."""
        left = ell
        for z in zeros:
            if not left:
                break
            if (support & z).bit_count() >= need:
                left -= 1
        return not left

    acc = [(1 << A.ncols) - 1] * (k + 1)  # acc[d]: AND of the sets chosen above depth d
    row = [0] * (k + 1)  # row[d]: next row index to try at depth d, so the chosen row's number
    d = 0 if completes(acc[0]) else -1
    while d >= 0:
        if d < k:
            sets, end = (ones, t) if d < t else (zeros, k)
            for r in range(row[d], A.m - end + d + 1):  # leaves rows for depths d+1..end-1
                support = acc[d] & sets[r]
                if support.bit_count() >= need and (d >= t or completes(support)):
                    row[d], acc[d + 1] = r + 1, support
                    d += 1
                    row[d] = 0 if d == t else r + 1
                    break
            else:
                d -= 1
            continue
        count = acc[k].bit_count()
        if count >= need:
            yield count, RowSplit(row[:t], row[t:k])
            need = count + 1
        d -= 1


def _contains_general(P: BinMatrix, A: BinMatrix) -> bool:
    """Depth-first assignment of P's columns to distinct columns of A.

    Pruning is by column-sum compatibility plus a row-signature multiset
    check: P's rows can be injected into A's rows consistently with a
    partial column assignment iff, for every 0/1 signature over the
    assigned columns, P has at most as many rows with that signature as A
    does.  At full depth that check is exact.  A signature is an int, bit i
    for assigned column i; A's are kept per depth and P's multisets are
    counted once per depth.  The search is iterative, so the pattern's
    width is not limited by the call stack.
    """
    k = P.ncols
    if k == 0:
        return True
    if P.m == 0:
        return A.ncols >= k
    if P.m > A.m or k > A.ncols:
        return False

    fcols = sorted(P.cols, key=lambda c: (-c.bit_count(), c))
    fsum = [c.bit_count() for c in fcols]
    asum = [c.bit_count() for c in A.cols]
    used = [False] * A.ncols
    # need[d]: P's row-signature multiset over its first d columns
    psig = [0] * P.m
    need = [Counter(psig).items()]
    for j, fc in enumerate(fcols):
        psig = [s | (fc >> i & 1) << j for i, s in enumerate(psig)]
        need.append(Counter(psig).items())

    # run[j]: pattern columns from j on equal to column j.  Equal columns take
    # A's columns in ascending order, so column j leaves room for run[j] - 1.
    run = [1] * k
    for j in range(k - 2, -1, -1):
        if fcols[j] == fcols[j + 1]:
            run[j] = run[j + 1] + 1

    asig = [[0] * A.m] + [None] * k  # asig[j]: A's row signatures over the first j assigned
    nxt = [0] * k  # nxt[j]: next column of A to try for pattern column j, so the chosen one + 1
    j = 0
    while j >= 0:
        for idx in range(nxt[j], A.ncols - run[j] + 1):
            if used[idx] or asum[idx] < fsum[j] or A.m - asum[idx] < P.m - fsum[j]:
                continue
            c = A.cols[idx]
            sig = [s | (c >> x & 1) << j for x, s in enumerate(asig[j])]
            have = Counter(sig)
            if not any(have[s] < n for s, n in need[j + 1]):
                break
        else:
            j -= 1
            if j >= 0:
                used[nxt[j] - 1] = False
            continue
        used[idx], nxt[j], asig[j + 1] = True, idx + 1, sig
        j += 1
        if j == k:
            return True
        # equal pattern columns take A's columns in ascending order
        nxt[j] = idx + 1 if fcols[j] == fcols[j - 1] else 0
    return False


def read_matrix(text: str) -> BinMatrix:
    """Parse the matrix text format.

    First line "m n"; then m lines of exactly n characters from {0,1};
    column j is read down line positions j.  Round-trips with to_text().
    """
    lines = text.splitlines()
    if not lines:
        raise MatrixFormatError(1, "empty input, expected header 'm n'")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError(1, f"expected header 'm n', got {lines[0]!r}")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixFormatError(1, f"non-integer header fields in {lines[0]!r}") from None
    if m < 0 or n < 0:
        raise MatrixFormatError(1, "m and n must be nonnegative")
    if len(lines) < m + 1:
        raise MatrixFormatError(len(lines) + 1, f"expected {m} row lines, got {len(lines) - 1}")
    cols = [0] * n
    for r in range(m):
        row = lines[r + 1]
        if len(row) != n:
            raise MatrixFormatError(r + 2, f"expected {n} characters, got {len(row)}")
        for j, ch in enumerate(row):
            if ch == "1":
                cols[j] |= 1 << r
            elif ch != "0":
                raise MatrixFormatError(r + 2, f"invalid character {ch!r}")
    for extra in range(m + 1, len(lines)):
        if lines[extra].strip():
            raise MatrixFormatError(extra + 1, "trailing non-empty line")
    return BinMatrix(m, tuple(cols))
