"""Benchmark of the ``xfc`` command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 30 --trace 0

One benchmark process is a single closed-loop client: it runs the workload's
jobs one at a time, each a fresh ``python -m xfc.cli`` process (the oracle
jobs run ``perfbench/oracle_job.py``), timed from spawn to exit, and checks
every output.  It repeats passes over the jobs, in a seeded order, while
another pass fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced in-process replay of the same jobs.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
Python version, core count, platform and commit, and under ``raw`` the
seconds behind the relative end-to-end times.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 5
PROBES_PER_PASS = 8
REFERENCES_PER_PASS = 8
IMPORT_SAMPLES = 3
JOB_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    """The checkout's sources, and no stray node budget: a budget from the
    environment would silently turn proofs into non-proofs."""
    env = {k: v for k, v in os.environ.items() if k != "XFC_BUDGET_NODES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Spawns job processes and keeps the tallies of one run."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str]) -> tuple[int, str, float, float, float]:
        """Run one child to exit: (exit code, stdout, wall s, cpu s, peak RSS MB)."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, out_path.read_text(), wall, cpu, usage.ru_maxrss / 1024

    def run_job(self, job) -> tuple[float, float, float, int]:
        """Run and check one job: (wall s, cpu s, peak RSS MB, search nodes)."""
        rc, stdout, wall, cpu, rss = self.spawn(job.argv)
        self.attempted += 1
        nodes = 0
        try:
            nodes = job.check(rc, stdout)
        except Exception as e:  # any error while checking the output is a failed job
            self.failed += 1
            stderr = (self.work / "stderr.txt").read_text()[-500:]
            print(f"FAIL {job.name}: {e!r} {stderr}", file=sys.stderr)
        return wall, cpu, rss, nodes

    def replay(self, tracer, job) -> None:
        self.attempted += 1
        try:
            with tracer.job(job.name):
                job.replay(tracer)
        except Exception:  # a failed job is counted, and the run goes on
            self.failed += 1
            print(f"FAIL replay {job.name}:", file=sys.stderr)
            traceback.print_exc()


# A fresh interpreter that imports standard-library modules the CLI uses
# and runs a fixed branch and bound shaped like the search kernel (split
# counters in a list, a hit tuple per candidate), sharing no code with the
# program.  Its spawn-to-exit time is how fast this machine runs a short
# Python process at the moment, which no change to the program can move.
REFERENCE = """
import argparse, dataclasses, fractions, json
from itertools import combinations
pairs = {p: i for i, p in enumerate(combinations(range(9), 2))}
hits = [tuple(pairs[p] for p in combinations(t, 2)) for t in combinations(range(9), 3)]
counts = [0] * len(pairs)
nodes = 0
def dfs(first):
    global nodes
    nodes += 1
    for i in range(first, len(hits)):
        if nodes >= 5000:
            return
        hit = hits[i]
        if any(counts[s] for s in hit):
            continue
        for s in hit:
            counts[s] += 1
        dfs(i + 1)
        for s in hit:
            counts[s] -= 1
dfs(0)
print(nodes)
"""


def plain_job(name: str, code: str, output: str = ""):
    """A ``python -c`` process that must exit 0 and print ``output``."""
    from workloads import Job, expect

    def check(rc: int, out: str) -> int:
        expect(rc == 0 and out.strip() == output, f"exit {rc}, output {out[-200:]!r}")
        return 0

    return Job(name, ["-c", code], check)


def spread_over(i: int, n: int, k: int) -> int:
    """How many of k evenly spread extras follow item i of n."""
    return (i + 1) * k // n - i * k // n


def setup(workload: str, seed: int, work: Path, runner: Runner) -> float:
    """Input generation plus one warm-up process, timed."""
    from workloads import cli_start_job, make_inputs

    start = perf_counter()
    make_inputs(workload, seed, work)
    runner.run_job(cli_start_job())
    return perf_counter() - start


def measure_e2e(jobs, runner: Runner, rng: Random, seconds: float) -> dict:
    """Passes over the jobs in seeded order, with cli-start probes and
    reference processes spread through each pass.

    The speed of this kind of shared machine drifts by tens of percent
    from one minute to the next, so times are reported relative to the
    reference process of the same run (unit ``ref``); the seconds are kept
    in ``raw``.  Within a run every time is a mean: a run holds three to
    five passes, and dividing a mean by the mean of references taken over
    the same minutes cancels the drift best.  The median over runs then
    discards a run that met a stall."""
    from workloads import cli_start_job

    probe, ref = cli_start_job(), plain_job("reference", REFERENCE, "5000")
    passes, starts, refs = [], [], []
    rss = 0.0
    begin = perf_counter()
    while not passes or perf_counter() - begin + statistics.mean(p["wall"] for p in passes) <= seconds:
        order = jobs[:]
        rng.shuffle(order)
        tally = {"wall": 0.0, "cpu": 0.0, "nodes": 0, "jobs": {}}
        for i, job in enumerate(order):
            wall, cpu, job_rss, nodes = runner.run_job(job)
            tally["wall"] += wall
            tally["cpu"] += cpu
            tally["nodes"] += nodes
            tally["jobs"][job.name] = wall
            rss = max(rss, job_rss)
            for _ in range(spread_over(i, len(order), PROBES_PER_PASS)):
                starts.append(runner.run_job(probe)[0])
            for _ in range(spread_over(i, len(order), REFERENCES_PER_PASS)):
                refs.append(runner.run_job(ref)[:2])
        passes.append(tally)
    raw = {
        "wall_s": statistics.mean(p["wall"] for p in passes),
        "cpu_s": statistics.mean(p["cpu"] for p in passes),
        "cli_start_s": statistics.mean(starts),
        "reference_s": statistics.mean(r[0] for r in refs),
        "reference_cpu_s": statistics.mean(r[1] for r in refs),
    }
    return {
        "metrics": {
            "wall_rel": (raw["wall_s"] / raw["reference_s"], "ref"),
            "cpu_rel": (raw["cpu_s"] / raw["reference_cpu_s"], "ref"),
            "cli_start_rel": (raw["cli_start_s"] / raw["reference_s"], "ref"),
            "search_nodes": (statistics.median(p["nodes"] for p in passes), "count"),
            "peak_rss_mb": (rss, "MB"),
        },
        "raw": raw,
        "samples": {"passes": passes, "cli_start_s": starts, "references": refs},
    }


LAYER_UNITS = {
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.greedy_gap": "count",
    "search.oracle_checked_ratio": "ratio",
}


def cli_import_s(runner: Runner) -> float:
    """A fresh ``import xfc.cli`` minus a bare interpreter start (medians)."""
    bare, full = plain_job("bare start", "pass"), plain_job("import", "import xfc.cli")
    samples = [(runner.run_job(bare)[0], runner.run_job(full)[0]) for _ in range(IMPORT_SAMPLES)]
    return statistics.median(s[1] for s in samples) - statistics.median(s[0] for s in samples)


def measure_traced(jobs, runner: Runner, rng: Random, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced in-process passes over the jobs plus
    the layer probe; per-layer metrics are medians over traced passes."""
    from spans import Tracer, layer_metrics, with_self_times, write_spans
    from workloads import Job, probe

    jobs = jobs + [Job("layer-probe", [], None, probe)]
    walls = {False: [], True: []}
    per_pass, all_spans = [], []
    begin = perf_counter()
    while not per_pass or (perf_counter() - begin + statistics.median(walls[False])
                           + statistics.median(walls[True]) <= seconds):
        order = jobs[:]
        rng.shuffle(order)
        for enabled in (False, True):
            tracer = Tracer(enabled)
            start = perf_counter()
            for job in order:
                runner.replay(tracer, job)
            walls[enabled].append(perf_counter() - start)
        spans = with_self_times(tracer.spans)
        per_pass.append(layer_metrics(spans))
        all_spans += [dict(s, traced_pass=len(per_pass) - 1) for s in spans]
    write_spans(spans_path, all_spans)
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), LAYER_UNITS.get(name, "s"))
        for name in per_pass[0]
    }
    metrics["cli.import_s"] = (cli_import_s(runner), "s")
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    return {"metrics": metrics, "samples": {"passes": per_pass, "walls": walls}}


def environment() -> dict:
    sources = sorted((ROOT / "src" / "xfc").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xfc" / "cli.py").is_file():
        print(f"error: no xfc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    setups = [setup(args.workload, args.seed, work, runner) for _ in range(SETUP_REPEATS)]
    jobs = workloads.build_jobs(args.workload, work)
    rng = Random(f"order:{args.seed}")
    if args.trace:
        spans_path = work / f"spans-seed{args.seed}.jsonl"
        result = measure_traced(jobs, runner, rng, args.seconds, spans_path)
    else:
        result = measure_e2e(jobs, runner, rng, args.seconds)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["metrics"]["ok_frac"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    env = environment()
    record = {"args": vars(args), "env": env, "metrics": metrics, "raw": result.get("raw"), "setup_s": setups,
              "samples": result["samples"]}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": env, "raw": result.get("raw")}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
