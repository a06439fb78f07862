"""Exact extremal search: maximum column count avoiding a block pattern.

The kernel is one iterative depth-first search over candidate columns in a
fixed order: sum ascending, then 1-positions lexicographic.  It appends
candidates at or after the last added index, so each column multiset is
met at most once.  A multiset never contains q copies of the
t-ones/ell-zeros column iff every split (T, Z), disjoint row sets of
sizes t and ell, is hit (ones on T, zeros on Z) by at most q-1 of its
columns.  The search keeps, for each k up to q-1, the bitmask of splits
hit at least k times, so feasibility of a candidate is one AND of its
split mask (all built when a DFS is needed) with the saturated set.

With rows 0..m-1 and the colex rank sum_j C(r_j, j) of a subset
{r_1 < ... < r_k}, split (T, Z) is bit W*rank(T) + rank(Z), W = C(m, ell).
Column c's mask is the product Z(~c) * T(c) of two subset selectors:
Z(S), the sum of 2**rank(Z) over the ell-subsets Z of S, is below 2**W,
and T(c) is the sum of 2**(W*rank(T)) over the t-subsets T of c, so the
terms fill disjoint W-bit slots and the product has no carries.  One
ascending pass over the rows builds either selector: E_k(S + r) =
E_k(S) | E_{k-1}(S) << stride*C(r, k).  Masks are C(m, t) * C(m, ell)
bits wide since each slot has room for the ell-sets meeting T, whose bits
are never set; the bound counts only the C(m, t) * C(m-t, ell) real
splits.

Pruning follows the candidate-set discipline of maximum-clique branch and
bound (Carraghan and Pardalos 1990; Ostergard 2002).  Each node keeps the
list of candidates still feasible below it; a child's list is its
parent's from the child's own position on (the next one if the column
may not repeat), less the candidates that hit a split the child
saturates.  Saturation only grows along a path, so a dropped candidate
never returns; one that fails the row-symmetry test below stays listed,
since the cell starts only grow and it may pass deeper down.  Only splits in U, the OR of the listed masks, can still
be hit, each cap minus its count more times, so the live budget
sum_{k=1..cap} popcount(U & ~levels[k]) caps the total weight of the
columns still to come.  A column of sum s hits C(s, t) * C(m-s, ell)
splits, so the listed columns fall into a few weight classes, and the
most of them that fit in the budget, taken lightest first with a
repeatable column counted cap times, bounds the columns still to come:
a cardinality knapsack.  A child is pushed only if its depth plus its
knapsack beats the best, and a node stops when the knapsack over the
rest of its list does.  The root needs no masks: its budget is cap times
the split count, and when its knapsack does not beat the greedy
incumbent no DFS runs.  Every listed column weighs at least the least
weight at or after its position, and the live budget is at most cap
times the split count less the weights chosen, so each knapsack is at
most floor(budget / least remaining weight), the bound that counts every
split.  With an incumbent at least as large, the tree searched is a
subtree of that bound's tree.

Row symmetry is broken by a lex-leader test (Crawford, Ginsberg, Luks and
Roy, KR 1996).  Rows that agree on every chosen column form a cell.  In
the candidate order, a column is least in its orbit under the row
permutations that fix the chosen prefix exactly when its ones sit in the
lowest rows of each cell, and if every chosen column has that property,
every cell is an interval of consecutive rows.  The search keeps
``bounds``, the mask of first rows of the cells (1 at the root, and
``x ^ (x << 1)`` joins it when column x is chosen), and admits a
candidate only if each run of ones in it starts at a cell start:
``runstart & ~bounds == 0`` with ``runstart = c & ~(c << 1)``.  The
lexicographically least row-permuted image of any feasible multiset
passes this test at every depth, and row permutations preserve split
counts, allowed sums and the repeat policy, so the optimum and the proof
are those of the unrestricted search.

The exhaustive oracle below shares none of this machinery.  It is the
subset search for general patterns: containment only grows when columns
are added, so a depth-first search that extends only pattern-free sets,
in candidate order, meets every pattern-free set, and each extension is
decided by the general pattern backtracker.  Its ``nodes`` count the
sets visited, not the 2^n subsets of the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

from .matrix import BinMatrix, Block, Configuration, General, contains_config, mask_of

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
    m: int
    config: Configuration
    sums: frozenset[int] | None = None  # None: all column sums 0..m
    policy: str = "simple"
    node_budget: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need m >= 1")
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

    def allowed_sums(self) -> tuple[int, ...]:
        return tuple(sorted(self.sums)) if self.sums is not None else tuple(range(self.m + 1))

    def unrepeatable_sums(self) -> frozenset[int]:
        """Sums at which a column may appear at most once."""
        if self.policy == "simple":
            return frozenset(range(self.m + 1))
        if self.policy == "free":
            return frozenset()
        t, ell = self.config.t, self.config.ell
        low = set(range(t + 1))
        high = set(range(self.m - ell + 1, self.m + 1))
        return frozenset(low | high)


@dataclass
class SearchResult:
    optimum: int
    witness: BinMatrix
    nodes: int
    proof_of_optimality: bool


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


def _candidates(p: SearchProblem, limit: int, what: str) -> list[int]:
    """Columns of the allowed sums, sum ascending, then 1-positions
    lexicographic; refused before enumeration when more than limit."""
    n = sum(comb(p.m, s) for s in p.allowed_sums())
    if n > limit:
        raise ValueError(f"{n} candidate columns exceeds the {what} limit of {limit}")
    return [mask_of(pts) for s in p.allowed_sums() for pts in combinations(range(1, p.m + 1), s)]


def _selector(rows: int, steps: list[tuple[int, ...]]) -> int:
    """Sum of 2**(stride * rank(K)) over the k-subsets K of rows, where
    steps[r][i] is stride * C(r, k - i)."""
    e = [0] * len(steps[0]) + [1]  # e[i]: the same sum over (k - i)-subsets
    for r, shifts in enumerate(steps):
        if rows >> r & 1:
            for i, shift in enumerate(shifts):
                e[i] |= e[i + 1] << shift
    return e[0]


class _Kernel:
    """Shared state for one branch-and-bound run."""

    def __init__(self, p: SearchProblem):
        cfg = p.config
        if not isinstance(cfg, Block):
            raise TypeError("the fast kernel needs a block configuration")
        if cfg.q == 0:
            raise ValueError("every matrix contains the empty pattern; no maximum exists")
        m, t, ell = p.m, cfg.t, cfg.ell
        zwidth = comb(m, ell)
        width = comb(m, t) * zwidth
        if width > MAX_MASK_BITS:
            raise ValueError(f"{width}-bit split masks exceed the search limit of {MAX_MASK_BITS}")
        self.cap = cfg.q - 1
        self.nsplits = comb(m, t) * comb(max(m - t, 0), ell)
        self.full = (1 << m) - 1
        self.tsteps = [tuple(zwidth * comb(r, j) for j in range(t, 0, -1)) for r in range(m)]
        self.zsteps = [tuple(comb(r, j) for j in range(ell, 0, -1)) for r in range(m)]
        # levels[k]: splits hit by at least k chosen columns; levels[cap] is
        # the saturated set, which is every split when cap is 0
        self.root_levels = ((1 << width) - 1,) + (0,) * self.cap
        unrep = p.unrepeatable_sums()
        weight = {s: comb(s, t) * comb(m - s, ell) for s in p.allowed_sums()}  # splits hit
        for s, w in weight.items():
            if not w and s not in unrep:
                raise ValueError(f"unbounded: repeatable sum-{s} columns never meet the pattern")
        candidates = _candidates(p, MAX_CANDIDATES, "search")
        # columns that hit no split are always addable, once each
        self.free_cols = [c for c in candidates if not weight[c.bit_count()]]
        self.cols = cols = [c for c in candidates if weight[c.bit_count()]]
        weights = [weight[c.bit_count()] for c in cols]
        self.repeatable = [c.bit_count() not in unrep for c in cols]
        # rows where a run of ones starts; canonical iff all are cell starts
        self.runstart = [c & ~(c << 1) for c in cols]
        # the bound counts columns per weight class, lightest first; a
        # repeatable column stands for cap copies of its weight
        self.class_weights = sorted(set(weights))
        index = {w: k for k, w in enumerate(self.class_weights)}
        self.wclass = [index[w] for w in weights]
        self.units = [self.cap if r else 1 for r in self.repeatable]
        self.root_counts = [0] * len(self.class_weights)
        for k, u in zip(self.wclass, self.units):
            self.root_counts[k] += u
        # no path is longer than the root bound; each frame holds q level
        # masks and a list of at most len(cols) candidate indices
        self.root_bound = depth = self.knapsack(self.root_counts, self.cap * self.nsplits)
        if depth * (cfg.q * (width // 8 + 36) + 8 * len(cols) + 56) > MAX_STACK_BYTES:
            raise ValueError(f"a {depth}-deep stack of {cfg.q} masks per frame exceeds "
                             f"the search limit of {MAX_STACK_BYTES} bytes")

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

    def mask(self, c: int) -> int:
        """Split mask of column c: one carry-free product of its selectors."""
        return _selector(self.full & ~c, self.zsteps) * _selector(c, self.tsteps)

    def greedy(self) -> list[int]:
        """First-fit incumbent in candidate order."""
        levels, sol = self.root_levels, []
        for i, c in enumerate(self.cols):
            hm = self.mask(c)
            while not hm & levels[-1]:
                levels = levels[:1] + tuple(lv | hm & below for lv, below in zip(levels[1:], levels))
                sol.append(i)
                if not self.repeatable[i]:
                    break
        return sol

    def solve(self, incumbent: int, node_budget: int | None):
        """Iterative DFS over the canonical column multisets.

        Returns (best_sol or None, nodes, exhausted).  best_sol is None when
        no solution beat the incumbent.
        """
        if self.root_bound <= incumbent:
            return None, 1, False
        cols, runstart, cap, full = self.cols, self.runstart, self.cap, self.full
        wclass, units, repeatable, knapsack = self.wclass, self.units, self.repeatable, self.knapsack
        masks = [self.mask(c) for c in cols]
        nclasses = len(self.class_weights)
        best_n, best_sol = incumbent, None
        nodes, exhausted = 1, False
        cur: list[int] = []
        # per node: its feasible candidates in order, the position of the
        # next child, the class counts of cands[pos:], the row cell starts,
        # the level masks and the split budget (cap * nsplits at the root)
        cands, pos, counts = list(range(len(cols))), 0, self.root_counts.copy()
        bounds, levels, budget = 1, self.root_levels, cap * self.nsplits
        stack: list[tuple] = []
        while True:
            depth, outside = len(cur), ~bounds
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
                        break
                counts[wclass[i]] -= units[i]
                pos += 1
            else:  # no child left here, or the bound cuts the rest of the node
                if not stack:
                    break
                cands, pos, counts, bounds, levels, budget = stack.pop()
                i = cur.pop()
                counts[wclass[i]] -= units[i]
                pos += 1
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                break
            stack.append((cands, pos, counts, bounds, levels, budget))
            cur.append(i)
            x = cols[i]
            cands, pos, counts, levels, budget = child, 0, ccounts, lv, cbudget
            bounds |= full & (x ^ (x << 1))
            if depth + 1 > best_n:
                best_n, best_sol = depth + 1, cur.copy()
        return best_sol, nodes, exhausted


def exact_max(p: SearchProblem) -> SearchResult:
    """Maximum column count over matrices satisfying the problem, with a
    witness.  Optimality is proven unless the node budget runs out."""
    if isinstance(p.config, General):
        return _exact_max_general(p)
    kernel = _Kernel(p)
    greedy_sol = kernel.greedy()
    best_sol, nodes, exhausted = kernel.solve(len(greedy_sol), p.node_budget)
    if best_sol is None:
        best_sol = greedy_sol
    witness = BinMatrix(p.m, tuple(kernel.free_cols) + tuple(kernel.cols[i] for i in best_sol))
    if not verify_witness(p, witness):
        raise RuntimeError("search witness fails the independent constraint replay")
    return SearchResult(
        optimum=witness.ncols,
        witness=witness,
        nodes=nodes,
        proof_of_optimality=not exhausted,
    )


def _exact_max_general(p: SearchProblem) -> SearchResult:
    """Subset search for general patterns and the exhaustive oracle: extend
    pattern-free sets in candidate order, testing containment on every
    extension.  At most 24 candidates."""
    if p.policy != "simple":
        raise ValueError("general-pattern search supports only the simple policy")
    if p.config.pattern.ncols == 0:
        raise ValueError("every matrix contains the empty pattern; no maximum exists")
    cand = _candidates(p, 24, "general-pattern search")
    best: tuple[int, ...] = ()
    nodes = 0
    exhausted = False

    def dfs(start: int, cur: tuple[int, ...]) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if p.node_budget is not None and nodes > p.node_budget:
            exhausted = True
            return
        if len(cur) > len(best):
            best = cur
        if len(cur) + (len(cand) - start) <= len(best):
            return
        for i in range(start, len(cand)):
            ext = cur + (cand[i],)
            if not contains_config(p.config, BinMatrix(p.m, ext)):
                dfs(i + 1, ext)
            if exhausted:
                return

    dfs(0, ())
    witness = BinMatrix(p.m, best)
    return SearchResult(len(best), witness, nodes, not exhausted)


def exhaustive_oracle(p: SearchProblem) -> SearchResult:
    """Optimum by the general-pattern subset search, without a node budget;
    validation-only.  Requires the simple policy and at most 24 candidates.
    The search extends only pattern-free sets, which reaches all of them
    since a superset of a containing set contains the pattern too, and
    ``nodes`` counts the sets it visits.  Containment goes through the
    general pattern backtracker, not the split-count kernel."""
    if p.policy != "simple":
        raise ValueError("the oracle only handles the simple policy")
    pattern = p.config.pattern() if isinstance(p.config, Block) else p.config.pattern
    return _exact_max_general(replace(p, config=General(pattern), node_budget=None))
