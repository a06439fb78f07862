"""One oracle-check job: the exhaustive oracle against exact_max.

The CLI has no subcommand for the oracle, so the benchmark runs this file
as a child process with the checkout's ``src`` on PYTHONPATH.  It prints
one JSON line with both optima.
"""

import argparse
import json

from xfc import Block, SearchProblem, exact_max, exhaustive_oracle


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--config", required=True, help="block pattern as q,t,l")
    ap.add_argument("--sums", default=None, help="comma-separated column sums")
    args = ap.parse_args()
    sums = frozenset(int(s) for s in args.sums.split(",")) if args.sums else None
    problem = SearchProblem(args.m, Block(*map(int, args.config.split(","))), sums=sums)
    brute = exhaustive_oracle(problem)
    result = exact_max(problem)
    print(json.dumps({
        "oracle_optimum": brute.optimum,
        "oracle_checked": brute.nodes,
        "optimum": result.optimum,
        "nodes": result.nodes,
        "proof_of_optimality": result.proof_of_optimality,
    }))


if __name__ == "__main__":
    main()
