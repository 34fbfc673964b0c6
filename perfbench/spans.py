"""Spans recorded in memory by the traced run, and the per-layer metrics
derived from them.

A span is (name, start, end, parent, run id), with times in integer
nanoseconds so that self times are exact.  A span's self time is its
duration minus the durations of its children; children of one span never
overlap because spans are recorded on a single stack.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns

KINDS = ("plane", "two_term", "cone", "smooth")

# Container spans: their self time is the replay's own loop and tallying,
# which the traced layer sum leaves out.
ROOT = "replay"
TASK = "enumeration.task"
SEPARATE = "separate"

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "cli.rows_write_s": ("cli.rows_write",),
    "enumeration.base_points_s": ("enumeration.base_points",),
    **{f"enumeration.fiber_s.{k}": (f"enumeration.fiber.{k}",) for k in KINDS},
    "enumeration.point_row_s": ("enumeration.point_row",),
    "enumeration.rows_sort_s": ("enumeration.rows_sort",),
    "geometry.bundle_point_s": ("geometry.bundle_point",),
    "classify.point_s": ("classify.point", "classify.miss"),
    "picard.rank_s": ("picard.rank",),
    "picard.galois_group_s": ("picard.galois_group",),
    "picard.segre_s": ("picard.segre",),
    "arith.is_cube_s": ("arith.is_cube",),
}

COUNTERS = (
    "cli.rows_bytes",
    "enumeration.base_points",
    *(f"enumeration.fiber_points.{k}" for k in KINDS),
    *(f"enumeration.fibers.{k}" for k in KINDS),
    "classify.points",
    "classify.profile_misses",
    "picard.surfaces",
)

# every per-layer metric with its unit; layer_metrics computes exactly these
UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS},
    **{name: "count" for name in COUNTERS},
    "cli.rows_bytes": "bytes",
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    "classify.miss_s": "s",
    "classify.profile_hit_ratio": "ratio",
    "enumeration.linear_point_share": "ratio",
    "enumeration.pool_task_s_max": "s",
    "enumeration.pool_task_s_sum": "s",
    "enumeration.pool_bound_s": "s",
    "enumeration.pool_efficiency": "ratio",
    "enumeration.tally_other_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "id")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.parent = stack[-1].id if stack else None
        self.id = len(self.tracer.spans)
        self.tracer.spans.append(self)
        stack.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter_ns()
        self.tracer.stack.pop()


class Tracer:
    """Keeps spans and counters in memory; `write` saves the spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: Counter = Counter()

    def span(self, name: str) -> Span:
        return Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": self.run_id, "id": s.id}
            for s in self.spans
        ]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


class _NullSpan:
    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Stands in for a Tracer in untraced runs and records nothing."""

    def span(self, name: str) -> _NullSpan:
        return _NullSpan()

    def count(self, name: str, n: int = 1) -> None:
        pass


def read_spans(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def self_times(records: list[dict]) -> dict[int, int]:
    """Span id -> self time in nanoseconds."""
    covered: dict[int, int] = defaultdict(int)
    for r in records:
        if r["parent"] is not None:
            covered[r["parent"]] += r["end"] - r["start"]
    return {r["id"]: r["end"] - r["start"] - covered[r["id"]] for r in records}


def subtree(records: list[dict], root_id: int) -> list[dict]:
    """The span `root_id` and all its descendants (parents precede children)."""
    inside = {root_id}
    out = []
    for r in records:
        if r["id"] == root_id or r["parent"] in inside:
            inside.add(r["id"])
            out.append(r)
    return out


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output.

    A module imported more than once keeps its first (real) import.
    """
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def layer_metrics(records, counters, untraced_wall_s, pool_wall_s, imports, scale=1.0) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    untraced_wall_s: wall of the same work in one process without tracing.
    pool_wall_s: measured wall of the workload itself (2 workers for count-2w).
    imports: cumulative import seconds per module from -X importtime.
    scale: factor from span seconds to reported seconds (see calibrate.py).
    """
    ns = scale / 1e9
    selfs = self_times(records)
    by_name: dict[str, int] = defaultdict(int)
    for r in records:
        by_name[r["name"]] += selfs[r["id"]]
    m: dict[str, float] = {
        metric: sum(by_name[n] for n in names) * ns for metric, names in SELF_TIME_METRICS.items()
    }
    m.update({name: counters.get(name, 0) for name in COUNTERS})

    root = next(r for r in records if r["name"] == ROOT)
    replay = subtree(records, root["id"])
    traced_wall = (root["end"] - root["start"]) * ns
    layer_sum = sum(selfs[r["id"]] for r in replay if r["name"] not in (ROOT, TASK)) * ns
    tasks = [(r["end"] - r["start"]) * ns for r in replay if r["name"] == TASK]
    points = sum(counters.get(f"enumeration.fiber_points.{k}", 0) for k in KINDS)
    linear = sum(counters.get(f"enumeration.fiber_points.{k}", 0) for k in KINDS[:2])
    hits = counters.get("classify.profile_hits", 0)
    misses = counters.get("classify.profile_misses", 0)
    pool_bound = max(max(tasks, default=0.0), sum(tasks) / 2)

    m["classify.miss_s"] = sum(r["end"] - r["start"] for r in records if r["name"] == "classify.miss") * ns
    m["classify.profile_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["enumeration.linear_point_share"] = linear / points if points else 0.0
    m["enumeration.pool_task_s_max"] = max(tasks, default=0.0)
    m["enumeration.pool_task_s_sum"] = sum(tasks)
    m["enumeration.pool_bound_s"] = pool_bound
    m["enumeration.pool_efficiency"] = pool_bound / pool_wall_s
    m["enumeration.tally_other_s"] = untraced_wall_s - layer_sum
    m["cli.import_s"] = imports.get("cubicbundle", 0) + imports.get("cubicbundle.cli", 0)
    m["cli.import_sympy_s"] = imports.get("sympy", 0)
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_ratio"] = traced_wall / untraced_wall_s - 1
    m["trace.spans"] = len(records)
    return m
