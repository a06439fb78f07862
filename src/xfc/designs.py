"""t-design representation, verification, divisibility checks and small
generators.

Designs are multisets of k-subsets of [m].  Verification is the coverage
count itself (every t-subset in exactly lam blocks); the generators below
run it at build time, so a returned design is always verified.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import comb
from operator import ge

from .matrix import BinMatrix, MatrixFormatError, _read_text, count_layers, mask_of

# malformed design text: the line-numbered error of both text formats
DesignFormatError = MatrixFormatError
# sts and lambda_fold refuse more blocks, counted before building: sts(627)
# takes 60 MB, genl-equality on a 2^20-block fold of sts(7) 180 MB.
MAX_STS_BLOCKS = 1 << 16
MAX_FOLD_BLOCKS = 1 << 20


def _check_blocks(blocks, m: int, k: int) -> None:
    """Each block, a tuple of sorted points, must be a k-subset of 1..m."""
    for b in blocks:
        if len(b) != k or len(set(b)) != k:
            raise ValueError(f"block {b} is not a {k}-subset")
        if b and (b[0] < 1 or b[-1] > m):
            raise ValueError(f"block {b} has points outside 1..{m}")


class Design(namedtuple("Design", "m k t lam blocks")):
    """A multiset of k-subsets of [m], blocks sorted, claimed to be a
    t-(m, k, lam) design; verify_design checks the claim.  The constructor
    sorts and checks every block; _make and _replace take blocks already
    sorted and checked."""

    __slots__ = ()

    def __new__(cls, m: int, k: int, t: int, lam: int, blocks):
        blocks = tuple(map(tuple, map(sorted, blocks)))
        _check_blocks(blocks, m, k)
        return tuple.__new__(cls, (m, k, t, lam, blocks))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def incidence(self) -> BinMatrix:
        """Point-block incidence matrix, one column per block in order."""
        return BinMatrix(self.m, tuple(mask_of(b) for b in self.blocks))


class DesignCheck(namedtuple("DesignCheck", "witness", defaults=(None,))):
    """witness: None, or the first (t-set, coverage count) that is off."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.witness is None


def verify_design(blocks, m: int, k: int, t: int, lam: int) -> DesignCheck:
    """Exact coverage check: every t-subset of [m] in exactly lam blocks,
    multiplicity counted.  On failure the witness is the first under- or
    over-covered t-set in combination order.  With lam = 0 that is decided
    from the blocks alone, without visiting the C(m, t) t-sets: the design
    is valid iff it has no block, and otherwise the witness is the least
    t-subset of any block, with its count.

    Structural problems (wrong block size, point out of range) raise, as
    do more than MAX_FOLD_BLOCKS t-subsets of distinct blocks at lam > 0.
    """
    if not 0 <= t <= k <= m:
        raise ValueError("need 0 <= t <= k <= m")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    mult = Counter(map(tuple, map(sorted, blocks)))  # each distinct block, with its copies
    _check_blocks(mult, m, k)  # once per distinct block
    if not lam:  # combination order is lexicographic, so b[:t] is b's least t-subset
        if not mult:
            return DesignCheck()
        s = min(b[:t] for b in mult)
        return DesignCheck((s, sum(n for b, n in mult.items() if set(s) <= set(b))))
    # copies are counted once, weighted, so a fold fits when its design does
    if mult and count_layers(k, (t,), MAX_FOLD_BLOCKS // len(mult)) * len(mult) > MAX_FOLD_BLOCKS:
        raise ValueError(f"{len(mult)} distinct blocks x C({k}, {t}) t-subsets exceed the limit of "
                         f"{MAX_FOLD_BLOCKS}")
    cover = Counter(s for b in mult for s in combinations(b, t))
    for b, n in mult.items():  # each further copy of a block covers its t-subsets again
        for s in combinations(b, t) if n > 1 else ():
            cover[s] += n - 1
    # every t-set the scan passes is covered, so it stops within len(cover) + 1 steps
    for s in combinations(range(1, m + 1), t):
        if cover[s] != lam:
            return DesignCheck((s, cover[s]))
    return DesignCheck()


def divisibility_check(t: int, k: int, lam: int, m: int) -> dict[int, bool]:
    """Necessary conditions C(k-i, t-i) | lam * C(m-i, t-i) for i = 0..t-1,
    as a dict from each index i to whether its condition holds.

    The i=0 condition is what makes the Steiner residue classes mod 6
    emerge.
    """
    if not 0 <= t <= k <= m:
        raise ValueError("need 0 <= t <= k <= m")
    return {i: (lam * comb(m - i, t - i)) % comb(k - i, t - i) == 0 for i in range(t)}


def lambda_fold(d: Design, c: int) -> Design:
    """Repeat every block c times: a t-(m, k, c*lam) design, non-simple for
    c > 1."""
    if c < 1:
        raise ValueError("fold factor must be >= 1")
    if d.nblocks * c > MAX_FOLD_BLOCKS:
        raise ValueError(f"{d.nblocks * c} blocks exceed the design limit of {MAX_FOLD_BLOCKS}")
    return d._replace(lam=c * d.lam, blocks=d.blocks * c)


def _quasigroup_triples(mod: int, op, lead) -> list[tuple[int, int, int]]:
    """The leading triples, then for each x < y in Z_mod and each level the
    triple (x, lvl), (y, lvl), (op(x, y), lvl + 1 mod 3) on Z_mod x {0,1,2},
    point (x, lvl) numbered 3x + lvl + 1."""
    triples = list(lead)
    for x in range(mod):
        for y in range(x + 1, mod):
            for lvl in range(3):
                triples.append((3 * x + lvl + 1, 3 * y + lvl + 1, 3 * op(x, y) + (lvl + 1) % 3 + 1))
    return triples


def sts(m: int) -> Design:
    """A verified Steiner triple system: 2-(m, 3, 1) with m(m-1)/6 blocks.

    Exists exactly for m congruent to 1 or 3 mod 6; built by quasigroup
    constructions, then checked.  For m = 6n+3 (Bose) the points are
    Z_{2n+1} x {0,1,2} with the idempotent commutative quasigroup
    x*y = (x+y)(n+1) mod 2n+1.  For m = 6n+1 (Skolem) they are
    Z_{2n} x {0,1,2} plus the point m, with the half-idempotent
    commutative quasigroup h(x+y mod 2n), h(2i) = i and h(2i+1) = n+i,
    which fixes the first n diagonal entries.
    """
    if m < 7 or not all(divisibility_check(2, 3, 1, m).values()):
        raise ValueError(f"no Steiner triple system on {m} points (need m = 1, 3 mod 6, m >= 7)")
    if m * (m - 1) // 6 > MAX_STS_BLOCKS:
        raise ValueError(f"{m * (m - 1) // 6} blocks exceed the triple system limit of {MAX_STS_BLOCKS}")
    n = m // 6
    if m % 6 == 3:
        mod = 2 * n + 1
        triples = _quasigroup_triples(mod, lambda x, y: (x + y) * (n + 1) % mod,
                                      [(3 * x + 1, 3 * x + 2, 3 * x + 3) for x in range(mod)])
    else:
        mod = 2 * n
        lead = [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(n)]
        lead += [(m, 3 * (n + i) + lvl + 1, 3 * i + (lvl + 1) % 3 + 1) for i in range(n) for lvl in range(3)]
        triples = _quasigroup_triples(mod, lambda x, y: (x + y) % mod // 2 + n * ((x + y) % 2), lead)
    d = Design(m, 3, 2, 1, tuple(triples))
    check = verify_design(d.blocks, m, 3, 2, 1)
    if not check.ok:
        raise RuntimeError(f"generated triple system failed verification: {check.witness}")
    return d


def write_design(d: Design) -> str:
    """Design text format: 'm k t lambda b' then b sorted block lines."""
    lines = [f"{d.m} {d.k} {d.t} {d.lam} {d.nblocks}"]
    for b in d.blocks:
        lines.append(" ".join(str(p) for p in b))
    return "\n".join(lines) + "\n"


def _block(fields: list, no: int, line: str) -> tuple[int, ...]:
    """Block line no: k strictly ascending points in 1..m."""
    m, k = fields[:2]
    try:
        pts = tuple(map(int, line.split()))
    except ValueError:
        raise DesignFormatError(no, f"non-integer point in {line!r}") from None
    if len(pts) != k:
        raise DesignFormatError(no, f"expected {k} points, got {len(pts)}")
    if any(map(ge, pts, pts[1:])):
        raise DesignFormatError(no, "block points must be strictly ascending")
    if pts and (pts[0] < 1 or pts[-1] > m):
        raise DesignFormatError(no, f"block points outside 1..{m}")
    return pts


def read_design(text: str) -> Design:
    """Parse the design text format.  Round-trips with write_design()."""
    (m, k, t, lam, _), blocks = _read_text(text, "m k t lambda b", 4, "block", _block)
    return Design._make((m, k, t, lam, tuple(blocks)))  # _block has sorted and checked each
