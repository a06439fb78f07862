"""Exact extremal search: maximum column count avoiding a block pattern.

The kernel is one iterative depth-first search over candidate columns in a
fixed order: sum ascending, then 1-positions lexicographic.  It appends
candidates at or after the last added index, so each column multiset is
met at most once.  A multiset never contains q copies of the
t-ones/ell-zeros column over some split iff every split is hit by at most
q-1 of its columns.  The search keeps, for each k up to q-1, the bitmask
of splits hit at least k times, so feasibility of a candidate is one AND
of its split mask (built on first visit) with the saturated set.  Pruning
combines the per-split residual budgets into a fractional covering
bound: a column of sum s consumes C(s,t) * C(m-s,ell) units of the summed
residual capacity, so at most floor(budget / min remaining weight) more
columns fit.

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

The exhaustive oracle below shares none of this machinery: it enumerates
all subsets of the candidate columns and decides containment through the
general pattern backtracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matrix import BinMatrix, Block, Configuration, General, contains_config, mask_of

POLICIES = ("simple", "free", "paper")


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


def _candidates(m: int, sums) -> list[int]:
    out = []
    for s in sums:
        for pts in combinations(range(1, m + 1), s):
            out.append(mask_of(pts))
    return out


class _Kernel:
    """Shared state for one branch-and-bound run."""

    def __init__(self, p: SearchProblem):
        cfg = p.config
        if not isinstance(cfg, Block):
            raise TypeError("the fast kernel needs a block configuration")
        if cfg.q == 0:
            raise ValueError("every matrix contains the empty pattern; no maximum exists")
        self.p = p
        self.m = p.m
        self.q, self.t, self.ell = cfg.q, cfg.t, cfg.ell
        self.cap = cfg.q - 1
        unrep = p.unrepeatable_sums()

        rows = range(1, p.m + 1)
        split_index: dict[tuple[int, int], int] = {}
        for ones in combinations(rows, self.t):
            tmask = mask_of(ones)
            for zeros in combinations([r for r in rows if r not in set(ones)], self.ell):
                split_index[(tmask, mask_of(zeros))] = len(split_index)
        self.nsplits = len(split_index)

        cand = sorted(
            _candidates(p.m, p.allowed_sums()),
            key=lambda c: (c.bit_count(), tuple(i for i in range(p.m) if c >> i & 1)),
        )
        self.free_cols: list[int] = []  # hit no split: always addable once each
        cols, hits, repeatable = [], [], []
        for c in cand:
            s = c.bit_count()
            idxs = []
            for ones in combinations([r for r in rows if c >> (r - 1) & 1], self.t):
                for zeros in combinations([r for r in rows if not c >> (r - 1) & 1], self.ell):
                    idxs.append(split_index[(mask_of(ones), mask_of(zeros))])
            if not idxs:
                if s not in unrep:
                    raise ValueError(
                        f"unbounded: repeatable sum-{s} columns never meet the pattern"
                    )
                self.free_cols.append(c)
                continue
            cols.append(c)
            hits.append(tuple(idxs))
            repeatable.append(s not in unrep)
        self.cols = cols
        self.hits = hits
        self.repeatable = repeatable
        self.weights = [len(h) for h in hits]
        # rows where a run of ones starts; canonical iff all are cell starts
        self.runstart = [c & ~(c << 1) for c in cols]
        # min weight over candidates at or after each index, for the bound
        self.suffix_min = [0] * (len(cols) + 1)
        running = None
        for i in range(len(cols) - 1, -1, -1):
            running = self.weights[i] if running is None else min(running, self.weights[i])
            self.suffix_min[i] = running

    def _splitmask(self, idxs) -> int:
        """Bitmask of split indices, set byte-wise so wide masks stay linear."""
        buf = bytearray((self.nsplits + 7) // 8)
        for s in idxs:
            buf[s >> 3] |= 1 << (s & 7)
        return int.from_bytes(buf, "little")

    def greedy(self) -> list[int]:
        """First-fit incumbent in candidate order."""
        counts = [0] * self.nsplits
        sol: list[int] = []
        for i, hit in enumerate(self.hits):
            while all(counts[s] < self.cap for s in hit):
                for s in hit:
                    counts[s] += 1
                sol.append(i)
                if not self.repeatable[i]:
                    break
        return sol

    def solve(self, incumbent: int, node_budget: int | None):
        """Iterative DFS over the canonical column multisets.

        Returns (best_sol or None, nodes, exhausted).  best_sol is None when
        no solution beat the incumbent.
        """
        cols, hits, weights, runstart = self.cols, self.hits, self.weights, self.runstart
        suffix_min, repeatable, cap = self.suffix_min, self.repeatable, self.cap
        n = len(cols)
        full = (1 << self.m) - 1
        masks: list[int | None] = [None] * n  # split masks, built on first visit
        # levels[k]: splits hit by at least k chosen columns; levels[cap] is
        # the saturated set, which is every split when cap is 0
        levels = ((1 << self.nsplits) - 1,) + (0,) * cap
        # bounds: the first row of each cell; the root has one cell of all rows
        i, bounds, budget = 0, 1, cap * self.nsplits
        best_n, best_sol = incumbent, None
        nodes, exhausted = 1, False
        cur: list[int] = []
        stack: list[tuple[int, int, tuple[int, ...], int]] = []  # parent state per depth
        while True:
            depth, outside, sat = len(cur), ~bounds, levels[cap]
            while i < n and depth + budget // suffix_min[i] > best_n:
                if not runstart[i] & outside:
                    hm = masks[i]
                    if hm is None:
                        hm = masks[i] = self._splitmask(hits[i])
                    if not hm & sat:
                        break
                i += 1
            else:  # no child left here, or the bound cuts the rest (suffix_min grows with i)
                if not stack:
                    break
                i, bounds, levels, budget = stack.pop()
                cur.pop()
                i += 1
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = True
                break
            stack.append((i, bounds, levels, budget))
            cur.append(i)
            x = cols[i]
            bounds |= full & (x ^ (x << 1))
            budget -= weights[i]
            levels = levels[:1] + tuple(lv | hm & below for lv, below in zip(levels[1:], levels))
            if depth + 1 > best_n:
                best_n, best_sol = depth + 1, cur.copy()
            if not repeatable[i]:
                i += 1
        return best_sol, nodes, exhausted


def exact_max(p: SearchProblem) -> SearchResult:
    """Maximum column count over matrices satisfying the problem, with a
    witness.  Optimality is proven unless the node budget runs out."""
    if isinstance(p.config, General):
        return _exact_max_general(p)
    kernel = _Kernel(p)
    greedy_sol = kernel.greedy()
    best_sol, nodes, exhausted = kernel.solve(len(greedy_sol) - 1, p.node_budget)
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
    """Slow path for general patterns: branch over candidates and test
    containment on every extension.  Tiny instances only."""
    if p.policy != "simple":
        raise ValueError("general-pattern search supports only the simple policy")
    cand = _candidates(p.m, p.allowed_sums())
    if len(cand) > 24:
        raise ValueError(f"{len(cand)} candidate columns is beyond the general-pattern search")
    pattern = p.config
    best: list[int] = []
    cur: list[int] = []
    nodes = 0
    exhausted = False

    def dfs(start: int) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if p.node_budget is not None and nodes > p.node_budget:
            exhausted = True
            return
        if len(cur) > len(best):
            best = cur.copy()
        if len(cur) + (len(cand) - start) <= len(best):
            return
        for i in range(start, len(cand)):
            cur.append(cand[i])
            if not contains_config(pattern, BinMatrix(p.m, tuple(cur))):
                dfs(i + 1)
            cur.pop()
            if exhausted:
                return

    dfs(0)
    witness = BinMatrix(p.m, tuple(best))
    return SearchResult(len(best), witness, nodes, not exhausted)


def exhaustive_oracle(p: SearchProblem) -> SearchResult:
    """Brute-force optimum by enumerating every subset of the candidate
    columns; validation-only.  Requires the simple policy and at most 24
    candidates.  Containment goes through the general pattern backtracker,
    not the split-count kernel."""
    if p.policy != "simple":
        raise ValueError("the oracle only handles the simple policy")
    cand = _candidates(p.m, p.allowed_sums())
    if len(cand) > 24:
        raise ValueError(f"{len(cand)} candidate columns exceeds the oracle cap of 24")
    pattern = p.config.pattern() if isinstance(p.config, Block) else p.config.pattern
    if pattern.ncols == 0:
        raise ValueError("every matrix contains the empty pattern; no maximum exists")
    best_n = -1
    best_cols: tuple[int, ...] = ()
    checked = 0
    for pick in range(1 << len(cand)):
        n = pick.bit_count()
        if n <= best_n:
            continue
        cols = tuple(cand[i] for i in range(len(cand)) if pick >> i & 1)
        checked += 1
        if not contains_config(General(pattern), BinMatrix(p.m, cols)):
            best_n, best_cols = n, cols
    return SearchResult(best_n, BinMatrix(p.m, best_cols), checked, True)
