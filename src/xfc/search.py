"""Exact extremal search: maximum column count avoiding a block pattern.

The kernel is one iterative depth-first search over candidate columns in a
fixed order: sum ascending, then 1-positions lexicographic.  It appends
candidates at or after the last added index, so each column multiset is
met at most once.  A multiset never contains q copies of the
t-ones/ell-zeros column iff every split (T, Z), disjoint row sets of
sizes t and ell, is hit (ones on T, zeros on Z) by at most q-1 of its
columns.  The search keeps, for each k up to q-1, the bitmask of splits
hit at least k times, so feasibility of a candidate is one AND of its
split mask with the saturated set.  The masks are built once per run, in
candidate order, by the greedy incumbent as it goes.  It stops early only
at the root bound, where no DFS runs, so the other first-fit passes of the
incumbent and a DFS find every mask drawn.

With rows 0..m-1 and the colex rank sum_j C(r_j, j) of a subset
{r_1 < ... < r_k}, split (T, Z) is bit W*rank(T) + rank(Z), W = C(m, ell).
Let the selector E_k(S) be the sum of 2**rank(K) over the k-subsets K of
S.  Column c's mask is the product Z(~c) * T(c): Z(~c) = E_ell(~c) is
below 2**W, and T(c) spreads the set bits of E_t(c), the colex ranks of
c's t-sets, W bits apart, so the terms fill disjoint W-bit slots and the
product has no carries.  Adding a row r above every row of S extends a
selector by E_k(S + r) = E_k(S) | E_{k-1}(S) << C(r, k), and E_1(S) is S
itself since rank({r}) = r.  So one routine gives a column's mask and the
ranks of its t-sets, which the per-t-set bound below reads, from one pass
over its one rows when t > 1 and one over its zero rows when ell > 1.
Masks are C(m, t) * C(m, ell) bits wide since each slot has room for the
ell-sets meeting T, whose bits are never set; the bound counts only the
C(m, t) * C(m-t, ell) real splits.

Pruning follows the candidate-set discipline of maximum-clique branch and
bound (Carraghan and Pardalos 1990; Ostergard 2002).  Each node keeps the
list of candidates still feasible below it; a child's list is its
parent's from the child's own position on (the next one if the column
may not repeat), less the candidates that hit a split the child
saturates.  Saturation only grows along a path, so a dropped candidate
never returns; one that fails the row-symmetry test below stays listed,
since that test is made afresh at each depth and it may pass deeper
down.  Only splits in U, the OR of the listed masks, can still
be hit, each cap minus its count more times, so the live budget
sum_{k=1..cap} popcount(U & ~levels[k]) caps the total weight of the
columns still to come.  A column of sum s hits C(s, t) * C(m-s, ell)
splits, so the listed columns fall into a few weight classes, and the
most of them that fit in the budget, taken lightest first with a
repeatable column counted cap times, bounds the columns still to come:
a cardinality knapsack.  A child is pushed only if its depth plus its
knapsack beats the best, and a node stops when the knapsack over the
rest of its list does.  The root needs no masks: its budget is cap times
the split count, and when its knapsack does not beat the incumbent no
DFS runs.  The greedy, a first-fit in candidate order, stops once it
holds as many columns as the root knapsack: that bounds every feasible
multiset, so no later candidate could join, and the rest of the masks
are never built.  Every listed column weighs at least the least weight at or
after its position, and the live budget is at most cap
times the split count less the weights chosen, so each knapsack is at
most floor(budget / least remaining weight), the bound that counts every
split.  With an incumbent at least as large, the tree searched is a
subtree of that bound's tree.

A greedy that falls short of the root knapsack can be far from the
optimum when a heavy layer completes it: at paper 3,2,1 with m = 5 and 6
the optima hold every column of the sum m - 1 layer and no sum-3 column,
while the greedy takes a few sum-3 columns that crowd out the rest.  So
the incumbent is the first strictly largest of the greedy and one more
first-fit per layer s outside the lightest weight class, which takes
that class, then layer s, then every other column, each in candidate
order; the passes stop at one that meets the root knapsack.  They run
per layer, not per class, since two sums can share a weight (3 and 4 at
m = 5).  A larger incumbent only prunes more: a subtree the DFS cuts
holds no deeper node than the best it was cut against, so the best only
rises and the tree only shrinks.  Paper 3,2,1 is proven at the root for
m = 5 and 6 (20 and 29 nodes from the greedy).

The knapsack pools the splits of every t-set into one budget, while the
paper's bound argues per t-set, so a frame also keeps each t-set's room:
the sum, over the C(m-t, ell) splits (T, Z), of cap minus the count of
(T, Z), which is cap * C(m-t, ell) at the root.  A column of sum s takes
u = C(m-s, ell) of the room of each of its C(s, t) t-sets, so a completion
adds at most floor(room(T) / u) sum-s columns through T, and at most
floor(sum_T floor(room(T) / u) / C(s, t)) in all, since each holds C(s, t)
t-sets.  A child that passes the knapsack is tested again by the
knapsack with each class capped so, from the child's own room, taking the
least u and the least C(s, t) over the sums of the class.  The frame
keeps that double sum per class too, so a child's caps change only over
the t-sets of its own column, and a child pushed keeps the sums its test
computed.  This is the floor per point of
Schonheim's packing bound (1966): at paper m = 7 a pair whose own
column is chosen keeps a room of 10 - 5 = 5, enough for one triple
(u = 4) through it, where with 20 of the 21 pair columns chosen the
pooled budget still allows 8.75 triples.  The cap cuts only
subtrees that cannot beat the best, and the search meets the same
improvements in the same order, so the optima, proofs and witnesses are
those of the uncapped search: paper 3,2,1 is proven in 33 nodes at
m = 7 (39 uncapped), 1,175 at m = 8 (11,946) and 78 at m = 9 (109).

Row symmetry is broken by a lex-leader test (Crawford, Ginsberg, Luks and
Roy, KR 1996) under the row swaps that fix the chosen prefix, a form of
isomorphism pruning (Margot 2002).  Let tau_r swap rows r-1 and r.  The
search keeps ``bounds``, row 0 and each row r whose tau_r moves the chosen
multiset, and admits a candidate only if each run of ones in it starts at
a row of ``bounds``: ``runstart & ~bounds == 0`` with
``runstart = c & ~(c << 1)``.  Let F be the lexicographically least
row-permuted image of a feasible multiset, sorted in candidate order, and
x the column after a prefix P of F.  If tau_r fixes P and a run of ones of
x starts at r, then tau_r x, a one moved up to row r-1, comes before x, so
tau_r F, sorted, is less than F.  So F passes the test at every depth;
each depth's test is a necessary condition of its own, and a row may
leave ``bounds`` deeper down.  Row permutations preserve split counts,
allowed sums and the repeat policy, so the optimum and the proof are
those of the unrestricted search.  tau_r fixes the multiset iff each pair
{y, tau_r y} is chosen equally often, so the search counts the unequal
pairs per row; choosing x or undoing it changes only the pairs through x.

SearchProblem is the one gate for an instance: it refuses one without a
finite optimum, the empty pattern or, for a block, a repeatable sum whose
columns meet no split, so each engine keeps only the limits of its own
method: the kernel its mask bits, candidates and stack, the subset search
its 24 candidates and the simple policy.  That subset search is
exhaustive_oracle, which exact_max runs for general patterns and which
checks the kernel on blocks; it shares none of the kernel's machinery.
Containment only grows when columns are added, so a depth-first search
that extends only pattern-free sets, in candidate order, meets every
pattern-free set that could still beat the best, and each extension is
decided by the row-map search of ``xfc.matrix``, which the witness replay
runs too.  As in the clique search above, each set carries its free list:
the later candidates that keep it pattern-free.  A child's list is its
parent's after the child's column, less the members that now complete the
pattern, so a candidate is never tested again against a set it was
compatible with.  A set with its list bounds its descendants at len(set) +
len(list) columns, and a set, or a child still being filtered, stops once
that cannot beat the best.  Its ``nodes`` count the sets visited, the root
included, not the 2^n subsets of the candidates; the root's list is built
once the root is counted, so a budget of 0 makes no containment call.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from math import comb

from .matrix import BinMatrix, Block, Configuration, General, _layer, contains_config, count_layers

POLICIES = ("simple", "free", "paper")

# Kernel size limits: all columns of m = 15 and 16 KiB split masks, checked
# before enumerating (the benchmark's largest: 8,192 columns, 22,308 bits),
# and 256 MiB of level masks and candidate lists on the deepest DFS stack
# (m = 10, q = 200: 15 MB).
MAX_CANDIDATES = 1 << 15
MAX_MASK_BITS = 1 << 17
MAX_STACK_BYTES = 1 << 28


@dataclass(frozen=True)
class SearchProblem:
    """The most m-row columns, with sums in ``sums`` and repeats as
    ``policy`` allows, that avoid ``config``; a search stops after
    ``node_budget`` nodes when one is given."""

    m: int
    config: Configuration
    sums: frozenset[int] | None = None  # None: all column sums 0..m
    policy: str = "simple"
    node_budget: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.sums is not None:
            object.__setattr__(self, "sums", frozenset(self.sums))
            if any(s < 0 or s > self.m for s in self.sums):
                raise ValueError(f"sums outside 0..{self.m}")
        if self.policy == "paper" and not isinstance(self.config, Block):
            raise ValueError("the paper repeat policy needs a block configuration")
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError(f"node budget must be nonnegative, got {self.node_budget}")
        # the gate: an instance without a finite optimum is refused here, so
        # each engine checks only its own limits
        cfg = self.config
        if (cfg.q if isinstance(cfg, Block) else cfg.pattern.ncols) == 0:
            raise ValueError("every matrix contains the empty pattern; no maximum exists")
        # a sum-s column meets a split iff t <= s <= m - ell, as every sum
        # paper repeats does; all sums fail first, if at all, at 0 or m - ell + 1
        if self.policy == "free" and isinstance(cfg, Block):
            m, t, ell = self.m, cfg.t, cfg.ell
            for s in sorted(self.sums) if self.sums is not None else (0, m - ell + 1):
                if 0 <= s <= m and not t <= s <= m - ell:
                    raise ValueError(f"unbounded: repeatable sum-{s} columns never meet the pattern")

    def allowed_sums(self) -> tuple[int, ...] | range:
        return tuple(sorted(self.sums)) if self.sums is not None else range(self.m + 1)

    def unrepeatable_sums(self) -> frozenset[int]:
        """Allowed sums at which a column may appear at most once."""
        if self.policy == "free":
            return frozenset()
        if self.policy == "simple":
            return frozenset(self.allowed_sums())
        t, ell = self.config.t, self.config.ell
        return frozenset(s for s in self.allowed_sums() if not t < s <= self.m - ell)


class SearchResult(namedtuple("SearchResult", "witness nodes proof_of_optimality")):
    """A verified witness, the nodes searched, and whether the search ran to
    the end; the optimum is the witness's column count."""

    __slots__ = ()

    @property
    def optimum(self) -> int:
        return self.witness.ncols


def verify_witness(p: SearchProblem, A: BinMatrix) -> bool:
    """Independent replay of the problem constraints on a candidate."""
    if A.m != p.m:
        return False
    allowed = set(p.allowed_sums())
    if any(s not in allowed for s in A.column_sums()):
        return False
    unrep = p.unrepeatable_sums()
    seen = set()
    for c in A.cols:
        if c in seen and c.bit_count() in unrep:
            return False
        seen.add(c)
    return not contains_config(p.config, A)


def _layers(p: SearchProblem, limit: int, what: str) -> list[tuple[int, tuple[int, ...]]]:
    """Each allowed sum, ascending, with its columns in lexicographic order
    of their 1-positions; refused before enumeration when more than limit."""
    if count_layers(p.m, p.allowed_sums(), limit) > limit:
        raise ValueError(f"candidate columns exceed the {what} limit of {limit}")
    return [(s, _layer(p.m, s)) for s in p.allowed_sums()]


def _selector(x: int, k: int) -> int:
    """E_k over the rows set in x: bit rank(K) for each k-subset K, by the
    recurrence of the module docstring, row by row."""
    if k < 2:  # E_0 = 1 and E_1(S) = S: no row need be walked
        return x if k else 1
    sel = [1] + [0] * k
    while x:
        r = (x & -x).bit_length() - 1
        x &= x - 1
        for j in range(k, 0, -1):
            sel[j] |= sel[j - 1] << comb(r, j)
    return sel[k]


class _Kernel:
    """Shared state for one branch-and-bound run."""

    def __init__(self, p: SearchProblem):
        cfg = p.config
        m, t, ell = p.m, cfg.t, cfg.ell
        self.zwidth = comb(m, ell)
        width = comb(m, t) * self.zwidth
        if width > MAX_MASK_BITS:
            raise ValueError(f"split masks exceed the search limit of {MAX_MASK_BITS} bits")
        self.m, self.t, self.ell = m, t, ell
        self.cap = cfg.q - 1
        self.nsplits = comb(m, t) * comb(max(m - t, 0), ell)
        self.full = (1 << m) - 1
        # refused before a table per allowed sum is built
        layers = _layers(p, MAX_CANDIDATES, "search")
        unrep = p.unrepeatable_sums()
        weight = {s: comb(s, t) * comb(m - s, ell) for s, _ in layers}  # splits hit
        # masks and tsets hold the split masks and the (room drop, t-set
        # ranks) of the columns drawn so far, in cols order
        self.masks: list[int] = []
        self.tsets: list[tuple[int, list[int]]] = []
        # the bound counts columns per weight class, lightest first; a
        # repeatable column stands for cap copies of its weight.  Columns of
        # one sum share weight, class and repeat kind, so the tables grow by
        # whole layers.
        self.class_weights = sorted({w for w in weight.values() if w})
        index = {w: k for k, w in enumerate(self.class_weights)}
        # per class, lowered to the least over its sums below: the room a
        # column takes from each t-set it contains, C(m-s, ell), and the
        # count of those, C(s, t)
        self.class_drop = [comb(m, ell)] * len(self.class_weights)
        self.class_tsets = [comb(m, t)] * len(self.class_weights)
        # columns that hit no split are always addable, once each
        self.free_cols, self.cols = [], []
        self.repeatable, self.wclass, self.units = [], [], []
        self.root_counts = [0] * len(self.class_weights)
        for s, layer in layers:
            if not weight[s]:
                self.free_cols += layer
                continue
            n, k, rep = len(layer), index[weight[s]], s not in unrep
            u = self.cap if rep else 1
            self.cols += layer
            self.repeatable += [rep] * n
            self.wclass += [k] * n
            self.units += [u] * n
            self.root_counts[k] += n * u
            self.class_drop[k] = min(self.class_drop[k], comb(m - s, ell))
            self.class_tsets[k] = min(self.class_tsets[k], comb(s, t))
        # no path is longer than the root bound, and each frame holds q
        # level masks, which also bound the greedy's own; the rest of a
        # frame is checked in solve, once a DFS is known to run
        self.root_bound = self.knapsack(self.root_counts, self.cap * self.nsplits)
        self.frame_masks = cfg.q * (width // 8 + 36)
        self.guard_stack(self.frame_masks)
        # levels[k]: splits hit by at least k chosen columns; levels[cap] is
        # the saturated set, which is every split when cap is 0.  Built after
        # the guard, and only when a column can meet the pattern: with none,
        # the depth is 0 whatever q is and no level is ever read.
        self.root_levels = ((1 << width) - 1,) + (0,) * self.cap if self.cols else ()

    def knapsack(self, counts: list[int], budget: int) -> int:
        """Most columns whose weights fit in budget, counts[k] of them of
        weight class_weights[k]: fill from the lightest class up."""
        total = 0
        for w, c in zip(self.class_weights, counts):
            if c * w > budget:
                return total + budget // w
            budget -= c * w
            total += c
        return total

    def guard_stack(self, frame: int) -> None:
        """Refuse a root_bound-deep DFS stack of frame-byte frames."""
        if self.root_bound * frame > MAX_STACK_BYTES:
            raise ValueError(f"a {self.root_bound}-deep stack of {frame}-byte frames exceeds "
                             f"the search limit of {MAX_STACK_BYTES} bytes")

    def draw(self, c: int) -> int:
        """Append the split mask of c, the next column in candidate order,
        and the room C(m-s, ell) it takes from each of its t-sets, s its
        sum, with their colex ranks.  Return the mask."""
        tsets, z = _selector(c, self.t), _selector(self.full & ~c, self.ell)
        mask, ranks = 0, []
        while tsets:
            ranks.append((tsets & -tsets).bit_length() - 1)
            tsets &= tsets - 1
            mask |= z << self.zwidth * ranks[-1]
        self.masks.append(mask)
        self.tsets.append((comb(self.m - c.bit_count(), self.ell), ranks))
        return mask

    def first_fit(self, order) -> list[int]:
        """Take each candidate index of order, as many times as it may
        repeat, while it keeps every split under q hits.  It stops once it
        holds root_bound columns: that bounds every feasible multiset, so no
        later candidate could join.  A mask not yet drawn is drawn on first
        use, so an order that is not ascending needs every mask drawn."""
        levels, sol, bound, masks = self.root_levels, [], self.root_bound, self.masks
        if not bound:
            return sol
        for i in order:
            hm = masks[i] if i < len(masks) else self.draw(self.cols[i])
            while not hm & levels[-1]:
                levels = levels[:1] + tuple(lv | hm & below for lv, below in zip(levels[1:], levels))
                sol.append(i)
                if len(sol) == bound:
                    return sol
                if not self.repeatable[i]:
                    break
        return sol

    def greedy(self) -> list[int]:
        """First-fit in candidate order; once it meets root_bound the rest
        of the masks are never built."""
        return self.first_fit(range(len(self.cols)))

    def incumbent(self) -> list[int]:
        """The greedy, or when it falls short of root_bound, the first
        strictly largest of it and one more first-fit per layer s outside
        the lightest weight class, stopping at one that meets root_bound.
        Such a pass takes the lightest class, then layer s, then the rest,
        each in candidate order, so it can fill a heavy layer that the
        greedy's earlier layers crowd out; a pass in the greedy's own order
        is skipped.  Returned in candidate order."""
        best = self.greedy()
        if len(best) == self.root_bound:
            return best
        sums, wclass = [c.bit_count() for c in self.cols], self.wclass
        every = list(range(len(sums)))
        for s in sorted({s for s, k in zip(sums, wclass) if k}):
            order = sorted(every, key=lambda i: (wclass[i] > 0, sums[i] != s))
            sol = best if order == every else self.first_fit(order)  # a pass in the greedy's order is the greedy
            if len(sol) > len(best):
                best = sorted(sol)
                if len(best) == self.root_bound:
                    break
        return best

    def solve(self, incumbent: int, node_budget: int | None):
        """Iterative DFS over the canonical column multisets.

        Returns (best_sol or None, nodes, exhausted).  best_sol is None when
        no solution beat the incumbent.
        """
        if self.root_bound <= incumbent:
            return None, 1, False
        cols, cap, full = self.cols, self.cap, self.full
        # a frame also holds up to len(cols) candidates, C(m, t) t-set rooms
        # and one count per class
        nclasses = len(self.class_weights)
        self.guard_stack(self.frame_masks + 8 * (len(cols) + comb(self.m, self.t) + nclasses) + 56)
        # rows where a run of ones starts; admitted iff each is in bounds
        runstart = [c & ~(c << 1) for c in cols]
        wclass, units, repeatable, knapsack = self.wclass, self.units, self.repeatable, self.knapsack
        # every mask is drawn: a greedy short of root_bound ran to the end
        masks, tsets = self.masks, self.tsets
        drops, pers = self.class_drop, self.class_tsets
        best_n, best_sol = incumbent, None
        nodes, exhausted = 1, False
        # swaps[i]: (bit r, r, index of the swapped column) per swap of rows
        # r-1 and r that moves cols[i]; mult[i]: how often cols[i] is chosen;
        # moved[r]: the pairs {y, y swapped} chosen unequally often
        index, mult, moved = {c: i for i, c in enumerate(cols)}, [0] * len(cols), [0] * self.m
        swaps = [[(1 << r, r, index[c ^ 3 << r - 1]) for r in range(1, self.m) if (c >> r ^ c >> r - 1) & 1]
                 for c in cols]

        def tally(i: int, step: int, bounds: int) -> int:
            """Choose cols[i] step more times, and update bounds."""
            a = mult[i]
            mult[i] = a + step
            for b, r, j in swaps[i]:
                n = mult[j]
                moved[r] += (n == a) - (n == a + step)
                bounds = bounds | b if moved[r] else bounds & ~b
            return bounds

        # per node: its feasible candidates in order, the position of the
        # next child, the class counts of cands[pos:], the level masks, the
        # split budget (cap * nsplits at the root), each t-set's room, the
        # sum over its splits of cap minus the count, and per class k,
        # sum_T floor(room[T] / drops[k]); bounds is undone by tally on pop
        cands, pos, counts = list(range(len(cols))), 0, self.root_counts.copy()
        bounds, levels, budget = 1, self.root_levels, cap * self.nsplits
        room = [cap * comb(self.m - self.t, self.ell)] * comb(self.m, self.t)
        fits = [len(room) * (room[0] // d) for d in drops]
        stack: list[tuple] = []
        while True:
            depth, outside = len(stack), ~bounds
            while pos < len(cands) and depth + knapsack(counts, budget) > best_n:
                i = cands[pos]
                if not runstart[i] & outside:
                    hm = masks[i]
                    lv = levels[:1] + tuple(lk | hm & below for lk, below in zip(levels[1:], levels))
                    sat = lv[cap]
                    child, live, ccounts = [], 0, [0] * nclasses
                    for j in cands[pos if repeatable[i] else pos + 1:]:
                        mj = masks[j]
                        if not mj & sat:
                            child.append(j)
                            live |= mj
                            ccounts[wclass[j]] += units[j]
                    # only splits in live can still be hit, each cap - count times
                    cbudget = sum((live & ~lk).bit_count() for lk in lv[1:])
                    if depth + 1 + knapsack(ccounts, cbudget) > best_n:
                        # the child's fits, its column taking drop from each t-set in ranks;
                        # class k is capped at its fits over class_tsets[k]
                        drop, ranks = tsets[i]
                        cfits = [f - sum(room[r] // d - (room[r] - drop) // d for r in ranks)
                                 for f, d in zip(fits, drops)]
                        ccap = [min(c, f // per) for c, f, per in zip(ccounts, cfits, pers)]
                        if depth + 1 + knapsack(ccap, cbudget) > best_n:
                            break
                counts[wclass[i]] -= units[i]
                pos += 1
            else:  # no child left here, or the bound cuts the rest of the node
                if not stack:
                    break
                cands, pos, counts, levels, budget, room, fits = stack.pop()
                bounds = tally(cands[pos - 1], -1, bounds)
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                break
            # pushed past i, so the cands[pos - 1] on the stack are the columns chosen
            counts[wclass[i]] -= units[i]
            stack.append((cands, pos + 1, counts, levels, budget, room, fits))
            fits, room = cfits, room.copy()
            for r in ranks:
                room[r] -= drop
            cands, pos, counts, levels, budget = child, 0, ccounts, lv, cbudget
            bounds = tally(i, 1, bounds)
            if depth + 1 > best_n:
                best_n, best_sol = depth + 1, [c[p - 1] for c, p, *_ in stack]
        return best_sol, nodes, exhausted


def exact_max(p: SearchProblem) -> SearchResult:
    """Maximum column count over matrices satisfying the problem, with a
    witness.  Optimality is proven unless the node budget runs out.  A
    general pattern goes to the subset search of exhaustive_oracle."""
    if isinstance(p.config, General):
        result = exhaustive_oracle(p)
    else:
        kernel = _Kernel(p)
        incumbent = kernel.incumbent()
        best_sol, nodes, exhausted = kernel.solve(len(incumbent), p.node_budget)
        if best_sol is None:
            best_sol = incumbent
        witness = BinMatrix(p.m, tuple(kernel.free_cols) + tuple(kernel.cols[i] for i in best_sol))
        result = SearchResult(witness, nodes, not exhausted)
    if not verify_witness(p, result.witness):
        raise RuntimeError("search witness fails the independent constraint replay")
    return result


def exhaustive_oracle(p: SearchProblem) -> SearchResult:
    """The subset search of the module docstring: the optimum of a general
    pattern, or of a block as an oracle for the kernel, over at most 24
    candidates under the simple policy.  The witness is not replayed."""
    if p.policy != "simple":
        raise ValueError("general-pattern search supports only the simple policy")
    cand = list(chain.from_iterable(layer for _, layer in _layers(p, 24, "general-pattern search")))
    best: tuple[int, ...] = ()
    nodes = 0
    exhausted = False

    def free_list(cur: tuple[int, ...], rest: list[int]) -> list[int] | None:
        """The members of rest that keep cur pattern-free, or None once
        cur and its extensions by rest cannot beat the best."""
        kept: list[int] = []
        for j, c in enumerate(rest):
            if len(cur) + len(kept) + len(rest) - j <= len(best):
                return None
            if not contains_config(p.config, BinMatrix(p.m, cur + (c,))):
                kept.append(c)
        return kept if len(cur) + len(kept) > len(best) else None

    def dfs(cur: tuple[int, ...], free: list[int] | None) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if p.node_budget is not None and nodes > p.node_budget:
            exhausted = True
            return
        if free is None:  # the root, visited even with no free candidate
            free = free_list((), cand) or []
        if len(cur) > len(best):
            best = cur
        for k, c in enumerate(free):
            if len(cur) + len(free) - k <= len(best):
                return
            ext = cur + (c,)
            child = free_list(ext, free[k + 1:])
            if child is not None:
                dfs(ext, child)
                if exhausted:
                    return

    dfs((), None)  # the root's list is built once the root is counted
    return SearchResult(BinMatrix(p.m, best), nodes, not exhausted)
