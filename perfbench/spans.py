"""In-memory spans for the traced run, and the per-layer metrics derived
from them.

A span is opened by the benchmark around one call into an ``xfc`` module
(or around a whole job).  It records its name, start, end, parent span and
job id, plus any counts the caller attaches.  Spans are kept in memory and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans.  A disabled tracer runs the same code with no
    bookkeeping, which is the untraced side of ``trace.overhead_s``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: str | None = None

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block.  Yields a dict for counts."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "job": self._job,
            "parent": self._stack[-1] if self._stack else None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Group the spans of one job under a root span named ``job``."""
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None


def with_self_times(spans: list[dict]) -> list[dict]:
    """Add ``self_s`` to every span: its duration minus the time its
    children cover.  Children of one span run one after another, so the
    covered time is the sum of their durations."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        s["self_s"] = s["end"] - s["start"] - child_time[s["id"]]
    return spans


def write_spans(path, spans: list[dict]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans with self times)."""

    def self_s(name: str) -> float:
        return sum(s["self_s"] for s in spans if s["name"] == name)

    def count(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    build = self_s("search.build")
    exact = self_s("search.exact_max")
    nodes = count("search.exact_max", "nodes")
    selfcheck = self_s("constructions.selfcheck")
    return {
        "search.dfs_s": exact - build,
        "search.build_s": build,
        "search.nodes": nodes,
        # over the whole proving call: on trees of a few hundred nodes the
        # DFS share is within the noise of two kernel builds
        "search.nodes_per_s": nodes / exact,
        "search.greedy_gap": count("search.exact_max", "greedy_gap"),
        "search.replay_s": self_s("search.replay"),
        "search.oracle_s": self_s("search.oracle"),
        "search.oracle_checked_ratio": count("search.oracle", "checked")
        / count("search.oracle", "subsets"),
        "matrix.contains_false_s": self_s("matrix.contains_false"),
        "matrix.contains_true_s": self_s("matrix.contains_true"),
        "matrix.contains_general_s": self_s("matrix.contains_general"),
        "matrix.max_multiplicity_s": self_s("matrix.max_multiplicity"),
        "matrix.read_s": self_s("matrix.read"),
        "constructions.selfcheck_s": selfcheck,
        "constructions.build_s": self_s("constructions.call") - selfcheck,
        "designs.sts_s": self_s("designs.sts"),
        "designs.verify_s": self_s("designs.verify"),
        "analysis.audit_s": self_s("analysis.audit"),
    }
