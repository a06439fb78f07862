"""Test helpers shared by more than one test module."""

from collections import Counter
from itertools import permutations

from xfc.matrix import BinMatrix


def brute_contains(P: BinMatrix, A: BinMatrix) -> bool:
    """Independent containment oracle: try every injective row map, then
    match column patterns by multiset counting."""
    if P.ncols == 0:
        return True
    if P.m > A.m or P.ncols > A.ncols:
        return False
    need = Counter(tuple(pc >> i & 1 for i in range(P.m)) for pc in P.cols)
    for rows in permutations(range(A.m), P.m):
        have = Counter(tuple(ac >> r & 1 for r in rows) for ac in A.cols)
        if all(have[sig] >= n for sig, n in need.items()):
            return True
    return False
