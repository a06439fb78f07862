"""The benchmark's four workloads.

Each workload is a fixed list of jobs.  A job is one ``xfc`` command line
(or, for the oracle, one child process calling the public functions), a
check of its exit code and output, and an in-process replay of the same
work through the library, with a span around every call into a module.

Inputs are generated from the workload seed: the matrices fed to
``contains`` and ``analyze`` get a seeded row and column permutation,
which preserves every verdict, so the expected verdicts are those of the
unpermuted constructions.  The program only sees the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

from xfc import (
    BinMatrix,
    Block,
    General,
    SearchProblem,
    contains_config,
    exact_max,
    exhaustive_oracle,
    genl_equality_construction,
    lambda_fold,
    lemma_audit,
    max_block_multiplicity,
    read_matrix,
    split_1100_construction,
    sts,
    verify_design,
    verify_witness,
)

BENCH_DIR = Path(__file__).resolve().parent
XFC = ["-m", "xfc.cli"]

# Steiner-admissible row counts (m = 1, 3 mod 6) used by the audit sweep
AUDIT_MS = (7, 9, 13, 15, 19, 21, 25, 27, 31, 33, 37)


class CheckFailed(Exception):
    """A job exited with the wrong code or printed a wrong answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments after the interpreter
    check: Callable[[int, str], int]  # (exit code, stdout) -> search nodes
    replay: Callable | None = None  # replay(tracer), in-process


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1] if lines else "")
    except json.JSONDecodeError:
        raise CheckFailed(f"no JSON on the last output line: {stdout[-200:]!r}") from None


def first_json(stdout: str) -> dict:
    try:
        return json.loads(stdout.split("\n", 1)[0])
    except json.JSONDecodeError:
        raise CheckFailed(f"no JSON on the first output line: {stdout[:200]!r}") from None


# ---------------------------------------------------------------- inputs


def _layers(m: int, sums) -> list[int]:
    return [sum(1 << r for r in rows) for s in sums for rows in combinations(range(m), s)]


def _triples(m: int) -> list[int]:
    return [sum(1 << (p - 1) for p in b) for b in sts(m).blocks]


def split_1100_cols(m: int) -> list[int]:
    """The split-1100 construction with a = b = 1: avoids 5,2,2 and
    contains 4,2,2."""
    triples = _triples(m)
    full = (1 << m) - 1
    return _layers(m, (0, 1, 2)) + triples + [full ^ c for c in triples] + _layers(m, (m - 2, m - 1, m))


def genl_equality_cols(m: int) -> list[int]:
    """The genl-equality construction for t=2, l=1, lambda=1: avoids 3,2,1."""
    return _layers(m, (0, 1, 2)) + _triples(m) + _layers(m, (m,))


def genl_band_cols(m: int) -> list[int]:
    """genl-equality restricted to sums 2..m-1, as the audit restricts it:
    passes every inequality of the t=2, l=1, lambda=1 audit."""
    return _layers(m, (2,)) + _triples(m)


def permuted(m: int, cols: list[int], rng: random.Random) -> list[int]:
    rows = list(range(m))
    rng.shuffle(rows)
    out = [sum(1 << rows[r] for r in range(m) if c >> r & 1) for c in cols]
    rng.shuffle(out)
    return out


def matrix_text(m: int, cols: list[int]) -> str:
    lines = [f"{m} {len(cols)}"]
    lines += ["".join("1" if c >> r & 1 else "0" for c in cols) for r in range(m)]
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the workload's input files for this seed into ``work``."""
    rng = random.Random(f"inputs:{seed}")
    files: dict[str, tuple[int, list[int]]] = {}
    if workload == "construct-verify":
        for m in (19, 25):
            files[f"split-{m}.mat"] = (m, permuted(m, split_1100_cols(m), rng))
            files[f"band-{m}.mat"] = (m, permuted(m, genl_band_cols(m), rng))
    elif workload == "oracle-check":
        for m in (13, 19):
            files[f"genl-{m}.mat"] = (m, permuted(m, genl_equality_cols(m), rng))
        files["pattern-321.mat"] = (3, [0b011] * 3)
    for name, (m, cols) in files.items():
        (work / name).write_text(matrix_text(m, cols))


# ---------------------------------------------------------------- replays


def prove(tr, problem: SearchProblem, optimum: int) -> BinMatrix:
    """exact_max at node_budget=1 (kernel build, greedy, replay), then the
    full proof; returns the witness."""
    with tr.span("search.build"):
        greedy = exact_max(replace(problem, node_budget=1))
    with tr.span("search.exact_max") as counts:
        result = exact_max(problem)
    counts["nodes"] = result.nodes
    counts["greedy_gap"] = result.optimum - greedy.optimum
    expect(result.optimum == optimum, f"optimum {result.optimum} != {optimum}")
    expect(result.proof_of_optimality, "no proof of optimality")
    return result.witness


def replay_witness(tr, problem: SearchProblem, W: BinMatrix) -> None:
    with tr.span("search.replay"):
        ok = verify_witness(problem, W)
    expect(ok, "witness fails verify_witness")


def oracle(tr, problem: SearchProblem, optimum: int) -> None:
    with tr.span("search.oracle") as counts:
        result = exhaustive_oracle(problem)
    counts["checked"] = result.nodes
    counts["subsets"] = 2 ** sum(comb(problem.m, s) for s in problem.allowed_sums())
    expect(result.optimum == optimum, f"oracle optimum {result.optimum} != {optimum}")
    replay_witness(tr, problem, prove(tr, problem, optimum))


def selfcheck(tr, A: BinMatrix, forbidden: Block) -> None:
    with tr.span("constructions.selfcheck"):
        found = contains_config(forbidden, A)
    expect(not found, "construction contains its forbidden block")


def genl_equality(tr, m: int) -> BinMatrix:
    with tr.span("designs.sts"):
        design = lambda_fold(sts(m), 1)
    with tr.span("designs.verify"):
        ok = verify_design(design.blocks, m, 3, 2, 1).ok
    expect(ok, "triple system fails verification")
    with tr.span("constructions.call"):
        A = genl_equality_construction(2, 1, 1, m, design)
    selfcheck(tr, A, Block(3, 2, 1))
    return A


def read(tr, path: Path) -> BinMatrix:
    text = path.read_text()
    with tr.span("matrix.read"):
        return read_matrix(text)


def probe(tr) -> None:
    """One small call into every layer, so every per-layer metric is a
    measured time on every workload, also where the workload's own jobs
    do not reach that layer."""
    text = genl_equality(tr, 7).to_text()
    with tr.span("matrix.read"):
        A = read_matrix(text)
    with tr.span("matrix.contains_true"):
        expect(contains_config(Block(2, 2, 1), A), "probe: 2,2,1 not found")
    with tr.span("matrix.contains_false"):
        expect(not contains_config(Block(3, 2, 1), A), "probe: 3,2,1 found")
    with tr.span("matrix.max_multiplicity"):
        expect(max_block_multiplicity(A, 2, 1)[0] == 2, "probe: multiplicity != 2")
    with tr.span("matrix.contains_general"):
        found = contains_config(General(Block(3, 2, 1).pattern()), A)
    expect(not found, "probe: general 3,2,1 found")
    with tr.span("analysis.audit"):
        expect(lemma_audit(A.restrict_sums(range(2, 7)), 2, 1, 1).all_passed, "probe: audit failed")
    problem = SearchProblem(4, Block(3, 2, 1), policy="paper")
    replay_witness(tr, problem, prove(tr, problem, 16))
    oracle(tr, SearchProblem(3, Block(2, 1, 1)), 5)


# ---------------------------------------------------------------- jobs


def cli_start_job() -> Job:
    """The trivial command timed as cli_start_s."""

    def check(rc: int, out: str) -> int:
        expect(rc == 0 and last_json(out)["floor"] == 37, f"exit {rc}, genl bound != 37")
        return 0

    return Job("cli-start", XFC + ["bounds", "genl", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7"], check)


def search_job(m: int, config: str, policy: str, optimum: int, sums: str | None = None,
               witness: Path | None = None) -> Job:
    argv = XFC + ["search", "--m", str(m), "--config", config, "--policy", policy]
    allowed = None
    if sums:
        argv += ["--sums", sums]
        lo, hi = sums.split("..")
        allowed = frozenset(range(int(lo), int(hi) + 1))
    if witness:
        argv += ["--witness-out", str(witness)]
    problem = SearchProblem(m, Block(*map(int, config.split(","))), sums=allowed, policy=policy)

    def check(rc: int, out: str) -> int:
        rec = last_json(out)
        expect(rc == 0, f"exit {rc}")
        expect(rec["optimum"] == optimum == rec["witness_ncols"],
               f"optimum {rec['optimum']}, witness {rec['witness_ncols']} != {optimum}")
        expect(rec["proof_of_optimality"] is True, "no proof of optimality")
        if witness:
            W = read_matrix(witness.read_text())
            witness.unlink()  # a later pass must write its own
            expect(W.ncols == optimum, f"witness file has {W.ncols} columns")
            expect(verify_witness(problem, W), "witness file fails verify_witness")
        return rec["nodes"]

    def replay(tr) -> None:
        W = prove(tr, problem, optimum)
        if witness:
            with tr.span("matrix.read"):
                W = read_matrix(W.to_text())
        replay_witness(tr, problem, W)

    name = f"search m={m} {config} {policy}" + (f" sums={sums}" if sums else "")
    return Job(name, argv, check, replay)


def construct_job(kind: str, m: int, work: Path) -> Job:
    out = work / f"{kind}-{m}.out.mat"
    if kind == "split-1100":
        argv = XFC + ["construct", kind, "--m", str(m), "--a", "1", "--b", "1", "--meta", "-o", str(out)]
        ncols = 2 + 2 * m + 8 * comb(m, 2) // 3
    else:
        argv = XFC + ["construct", kind, "--t", "2", "--l", "1", "--lambda", "1", "--m", str(m),
                      "--meta", "-o", str(out)]
        ncols = 2 + m + 4 * comb(m, 2) // 3

    def check(rc: int, stdout: str) -> int:
        rec = first_json(stdout)
        expect(rc == 0, f"exit {rc}")
        bound = rec["claimed_bound"]
        expect(rec["ncols"] == ncols == bound["numerator"] and bound["denominator"] == 1,
               f"ncols {rec['ncols']}, claimed bound {bound}, expected {ncols}")
        header = out.read_text().split("\n", 1)[0]
        out.unlink()  # a later pass must write its own
        expect(header == f"{m} {ncols}", "written matrix has the wrong shape")
        return 0

    def replay(tr) -> None:
        if kind == "split-1100":
            with tr.span("constructions.call"):
                A = split_1100_construction(m, 1, 1)
            selfcheck(tr, A, Block(5, 2, 2))
        else:
            A = genl_equality(tr, m)
        expect(A.ncols == ncols, f"ncols {A.ncols} != {ncols}")

    return Job(f"construct {kind} m={m}", argv, check, replay)


def contains_job(q: int, path: Path, verdict: bool, multiplicity: bool = False) -> Job:
    argv = XFC + ["contains", "--config", f"{q},2,2", "--matrix", str(path), "--json"]

    def check(rc: int, out: str) -> int:
        expect(rc == 0 and last_json(out)["contains"] is verdict, f"exit {rc}, verdict != {verdict}")
        return 0

    def replay(tr) -> None:
        A = read(tr, path)
        with tr.span(f"matrix.contains_{str(verdict).lower()}"):
            found = contains_config(Block(q, 2, 2), A)
        expect(found is verdict, f"verdict != {verdict}")
        if multiplicity:
            # q-1 copies are contained and q are not: the maximum is q-1
            with tr.span("matrix.max_multiplicity"):
                mult = max_block_multiplicity(A, 2, 2)[0]
            expect(mult == q - 1, f"max multiplicity {mult} != {q - 1}")

    return Job(f"contains {q},2,2 {path.name}", argv, check, replay)


def analyze_job(path: Path) -> Job:
    argv = XFC + ["analyze", "--matrix", str(path), "--t", "2", "--l", "1", "--lambda", "1"]

    def check(rc: int, out: str) -> int:
        expect(rc == 0 and last_json(out)["all_passed"] is True, f"exit {rc}, audit not passed")
        return 0

    def replay(tr) -> None:
        A = read(tr, path)
        with tr.span("analysis.audit"):
            ok = lemma_audit(A, 2, 1, 1).all_passed
        expect(ok, "audit not passed")

    return Job(f"analyze {path.name}", argv, check, replay)


def audit_job() -> Job:
    argv = XFC + ["audit", "--m", ",".join(map(str, AUDIT_MS))]

    def check(rc: int, out: str) -> int:
        rec = last_json(out)
        expect(rc == 0 and rec["ok"] is True, f"exit {rc}, audit not ok")
        expect(len(rec["results"]) == 2 * len(AUDIT_MS), "audit skipped a row count")
        return 0

    def replay(tr) -> None:
        # the audit subcommand: each equality construction passes, and
        # three copies of one sum-3 column trip a check
        for m in AUDIT_MS:
            band = genl_equality(tr, m).restrict_sums(range(2, m))
            with tr.span("analysis.audit"):
                ok = lemma_audit(band, 2, 1, 1).all_passed
            extra = next(c for c in band.cols if c.bit_count() == 3)
            with tr.span("analysis.audit"):
                bad = lemma_audit(band.concat(BinMatrix(m, (extra,) * 3)), 2, 1, 1).all_passed
            expect(ok and not bad, f"audit at m={m}")

    return Job("audit", argv, check, replay)


def oracle_job(m: int, optimum: int, sums: tuple[int, ...] | None = None) -> Job:
    argv = [str(BENCH_DIR / "oracle_job.py"), "--m", str(m), "--config", "2,1,1"]
    if sums:
        argv += ["--sums", ",".join(map(str, sums))]
    problem = SearchProblem(m, Block(2, 1, 1), sums=sums)

    def check(rc: int, out: str) -> int:
        rec = last_json(out)
        expect(rc == 0, f"exit {rc}")
        expect(rec["oracle_optimum"] == rec["optimum"] == optimum,
               f"oracle {rec['oracle_optimum']}, search {rec['optimum']}, expected {optimum}")
        expect(rec["proof_of_optimality"] is True, "no proof of optimality")
        return rec["nodes"]

    return Job(f"oracle m={m} sums={sums}", argv, check, lambda tr: oracle(tr, problem, optimum))


def general_contains_job(pattern: Path, path: Path) -> Job:
    argv = XFC + ["contains", "--config-file", str(pattern), "--matrix", str(path), "--json"]

    def check(rc: int, out: str) -> int:
        expect(rc == 0 and last_json(out)["contains"] is False, f"exit {rc}, 3,2,1 pattern found")
        return 0

    def replay(tr) -> None:
        P, A = read(tr, pattern), read(tr, path)
        with tr.span("matrix.contains_general"):
            found = contains_config(General(P), A)
        expect(not found, "3,2,1 pattern found")

    return Job(f"contains pattern-321 {path.name}", argv, check, replay)


def build_jobs(workload: str, work: Path) -> list[Job]:
    """The workload's jobs; their inputs are written by make_inputs."""
    if workload == "search-deep":
        # 37 is genl_bound(2,1,1,7) and 7 is design_tplus1_bound(2,1,1,7)
        return [
            search_job(5, "3,2,1", "paper", 22),
            search_job(6, "3,2,1", "paper", 29),
            search_job(7, "3,2,1", "paper", 37),
            search_job(7, "2,2,1", "free", 7, sums="3..6"),
        ]
    if workload == "search-wide":
        return [
            search_job(12, "2,2,2", "simple", 92, witness=work / "witness-12-222.mat"),
            search_job(13, "2,2,1", "simple", 93, witness=work / "witness-13-221.mat"),
            search_job(13, "2,3,1", "simple", 379, witness=work / "witness-13-231.mat"),
            search_job(13, "2,3,2", "simple", 392, witness=work / "witness-13-232.mat"),
        ]
    if workload == "construct-verify":
        jobs = [construct_job("split-1100", m, work) for m in (13, 19, 25)]
        jobs += [construct_job("genl-equality", m, work) for m in (13, 15, 19, 21, 25, 27, 31, 33, 37)]
        for m in (19, 25):
            jobs += [contains_job(5, work / f"split-{m}.mat", False, multiplicity=m == 19),
                     contains_job(4, work / f"split-{m}.mat", True),
                     analyze_job(work / f"band-{m}.mat")]
        jobs.append(audit_job())
        # one small search, so that search_nodes is a count on every workload
        jobs.append(search_job(5, "3,2,1", "paper", 22))
        return jobs
    if workload == "oracle-check":
        return [
            oracle_job(4, 6),
            oracle_job(5, 5, sums=(1, 2)),
            general_contains_job(work / "pattern-321.mat", work / "genl-13.mat"),
            general_contains_job(work / "pattern-321.mat", work / "genl-19.mat"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("search-deep", "search-wide", "construct-verify", "oracle-check")
