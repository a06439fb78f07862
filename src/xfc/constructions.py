"""Generators for the explicit extremal matrix constructions.

Every generator is fail-closed: before returning, it re-checks its
avoidance claim with the containment decision procedure, and its column
count where no verified design implies it.  genl-equality and split-1100
count by their verified designs, since a t-(m, t+1, lam) design has
lam C(m,t)/(t+1) blocks; the others check against ``xfc.bounds``,
imported where used, so the first two load neither it nor ``fractions``.
No input can fail these checks, so a failure is a RuntimeError.  Inputs
with no construction raise ConstructionError; instances past the cell
limit of ``xfc.matrix``, the block limit of ``xfc.designs`` or the
exceeder's self-check limit, a ValueError before they are built.
"""

from __future__ import annotations

from .designs import Design, lambda_fold, sts, verify_design
from .matrix import (MAX_CELLS, MAX_ROW_MASK_BITS, BinMatrix, Block, contains_config, count_layers,
                     layer_range, mask_of)


class ConstructionError(ValueError):
    """No construction exists for these parameters: a given design that does
    not match or fails verification, q10 on m <= 3 rows whose layers collide,
    or the small-m witness at q = 3."""


def _certified(A: BinMatrix, forbidden: Block, what: str, want=None) -> BinMatrix:
    """A, once its column count is the bound want, when one is given, and
    it avoids forbidden; otherwise a RuntimeError naming what."""
    if want is not None and A.ncols != want:
        raise RuntimeError(f"{what}: column count {A.ncols} != bound {want}")
    if contains_config(forbidden, A):
        raise RuntimeError(f"{what}: built matrix contains the forbidden {forbidden.q} x "
                           f"(ones={forbidden.t}, zeros={forbidden.ell}) block")
    return A


def genl_equality_construction(t: int, ell: int, lam: int, m: int,
                               design: Design | None = None) -> BinMatrix:
    """All columns of sums 0..t and m-ell+1..m once each, plus the
    incidence of a t-(m, t+1, lam) design, by default the lam-fold of
    sts(m) (t = 2 only), or at lam = 0 the empty design (any t).  Avoids
    lam+2 copies of the t-ones/ell-zeros column.

    The design is verified, and each of its blocks covers t+1 t-sets, so
    it has lam C(m,t)/(t+1) blocks.  The column count is then
    Sum_{i<=t} C(m,i) + lam C(m,t)/(t+1) + Sum_{i>m-ell} C(m,i), the genl
    bound exactly."""
    if not t > ell >= 0:
        raise ValueError("need t > ell >= 0")
    if m < t + 1:
        raise ValueError(f"need m >= t + 1 = {t + 1}, got m={m}")
    if design is None and lam:
        if t != 2:
            raise ValueError("built-in designs cover t=2 only, or any t at lambda 0")
        design = lambda_fold(sts(m), lam)  # sts verified its triples; a fold of a design is a design
    else:
        if design is None:  # a t-design with lambda 0 has no block; verified as a given one is
            design = Design(m, t + 1, t, 0, ())
        params = (m, t + 1, t, lam)  # a Design's fields m, k, t, lam
        if design[:4] != params:
            raise ConstructionError(f"design parameters {design[:4]} do not match required {params}")
        check = verify_design(design.blocks, m, t + 1, t, lam)
        if not check.ok:
            raise ConstructionError(f"design failed verification, witness {check.witness}")
    A = layer_range(m, range(t + 1)).concat(design.incidence())
    A = A.concat(layer_range(m, range(m - ell + 1, m + 1)))
    return _certified(A, Block(lam + 2, t, ell), "genl equality construction")


def exceeder_construction(t: int, ell: int, lam: int) -> BinMatrix:
    """On m = lam+t+ell rows: all columns of sums 0..t+1 and m-ell+1..m.

    Avoids lam+2 copies of the t-ones/ell-zeros column yet exceeds the
    genl bound by exceeder_gap(t, ell, lam); only possible because m is
    small.  Every split holds lam+1 columns, so the self-check walks all
    C(m,t) C(m-t,ell) splits; past MAX_ROW_MASK_BITS for that product
    times the column count, the instance is refused before it is built."""
    from .bounds import exceeder_gap, exceeder_rows, genl_bound  # the other constructions start without it
    m, most = exceeder_rows(t, ell, lam), MAX_ROW_MASK_BITS
    low, high = range(t + 2), range(m - ell + 1, m + 1)
    if ((count_layers(m, low, most) + count_layers(m, high, most)) * count_layers(m, (t,), most)
            * count_layers(m - t, (ell,), most) > most):
        raise ValueError(f"exceeder self-check at m={m}: splits times columns exceed the limit of {most}")
    A = layer_range(m, [*low, *high])
    want = genl_bound(t, ell, lam, m).exact + exceeder_gap(t, ell, lam).exact
    return _certified(A, Block(lam + 2, t, ell), "exceeder construction", want)


def _near_regular_edges(m: int, d: int) -> list[tuple[int, int]]:
    """Edge list of a d-regular graph on vertices 1..m, or, when m*d is
    odd, one with a single vertex of degree d-1; q10_construction ensures
    0 <= d <= m - 1.

    Circulant with differences 1..d//2; odd d adds the chords j, j + m//2
    for j < m//2, a perfect matching (m even) or one that leaves vertex m
    short (m odd, so d <= m - 2 and the chords' difference passes d//2).
    """
    pairs = [(v, (v + delta) % m) for delta in range(1, d // 2 + 1) for v in range(m)]
    if d % 2:
        pairs += [(j, j + m // 2) for j in range(m // 2)]
    return sorted({(min(u, v) + 1, max(u, v) + 1) for u, v in pairs})


def q10_construction(q: int, m: int) -> BinMatrix:
    """[zero column | singletons | graph edge incidence | co-singletons |
    ones column] avoiding q copies of the one-1-over-one-0 column.

    The graph is (q-3)-regular when m(q-3) is even, else near-regular with
    one vertex of degree q-4.  Exactly floor((q+1)m/2) + 2 columns.  At
    m = 2, and at m = 3 with a nonempty graph, the layer sums collide, so
    the simplicity claim is unsatisfiable and the builder raises.
    """
    if q < 3:
        raise ValueError("need q >= 3")
    if m < q - 2:
        raise ValueError(f"need m >= q - 2 = {q - 2} for degree q - 3")
    from .bounds import q10_lower
    try:
        want = q10_lower(q, m).floor_int
    except ValueError as e:
        raise ConstructionError(f"count bound undefined at m={m}: {e}") from None
    if want > MAX_CELLS // m:
        raise ValueError(f"{want} columns on {m} rows exceed the limit of {MAX_CELLS} cells")
    H = BinMatrix(m, tuple(mask_of(e) for e in _near_regular_edges(m, q - 3)))
    A = layer_range(m, (0, 1)).concat(H).concat(layer_range(m, (m - 1, m)))
    if not A.is_simple():
        raise ConstructionError(f"q10 construction is not simple at (q={q}, m={m}): "
                                "layer sums collide for m <= 3")
    return _certified(A, Block(q, 1, 1), "q10 construction", want)


def small_m_pigeonhole_witness(q: int) -> BinMatrix:
    """On m = q-1 rows, the concatenation of the sum-0,1,2 layers with the
    co-singleton and ones layers; meets the q10 pigeonhole upper bound at
    m = q-1 exactly (as a column multiset) and avoids q copies of the
    one-1-over-one-0 column.

    For q = 3 the upper bound is undefined at m = 2 (its slack term
    divides by m - 2) and the multiset has 7 columns, so the size claim
    cannot be checked and this raises.
    """
    if q < 3:
        raise ValueError("need q >= 3")
    m = q - 1
    from .bounds import q10_upper
    try:
        want = q10_upper(q, m).floor_int
    except ValueError as e:
        raise ConstructionError(f"pigeonhole upper bound undefined at m={m}: {e}") from None
    A = layer_range(m, (0, 1, 2)).concat(layer_range(m, (m - 1, m)))
    return _certified(A, Block(q, 1, 1), "small-m pigeonhole witness", want)


def split_1100_construction(m: int, a: int, b: int) -> BinMatrix:
    """All columns of sums 0, 1, 2, m-2, m-1, m once each; sum-3 columns
    the blocks of a 2-(m, 3, a) design; sum-(m-3) columns the complements
    of the blocks of a 2-(m, 3, b) design.

    Avoids a+b+3 copies of the two-ones-over-two-zeros column.  sts(m)
    verifies itself, so it has C(m, 2)/3 triples, and the matrix has
    exactly 2 + 2m + (2 + (a+b)/3) C(m, 2) columns, the 1100 bound.  The
    equality characterization this realizes needs both a and b positive;
    a or b equal to 0 still builds but sits outside it.  For a or b above 1 the
    design layers repeat blocks, so the result is no longer simple.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 with a + b >= 1")
    base = sts(m)  # validates the residue classes
    A = layer_range(m, (0, 1, 2))
    if a:
        A = A.concat(lambda_fold(base, a).incidence())
    if b:
        A = A.concat(lambda_fold(base, b).incidence().complement())
    A = A.concat(layer_range(m, (m - 2, m - 1, m)))
    return _certified(A, Block(a + b + 3, 2, 2), "split 1100 construction")
