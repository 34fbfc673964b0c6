"""The work of each workload, untraced or replayed with spans.

Untraced, `count` work goes through cli.main exactly as a user runs it;
`surfaces` and `ranks` call enumerate_fiber, classify_point and
picard_rank directly.  Traced, the same work is replayed in one process
through the public functions of each module, with a span per layer for
each fiber and each chunk of its points, so that the outputs are
identical and each layer's self time can be read from the spans.
"""

from __future__ import annotations

import contextlib
import io
from bisect import bisect_left
from pathlib import Path

from cubicbundle import classify, cli
from cubicbundle.arith import is_cube, naive_height
from cubicbundle.classify import classify_point
from cubicbundle.enumeration import CLASS_LABELS, CountSeries, base_points, enumerate_fiber, point_row
from cubicbundle.geometry import PAIRINGS, BundlePoint
from cubicbundle.picard import DiagonalCubic, galois_group, picard_rank, segre_rank_one

from spans import KINDS, ROOT, SEPARATE, TASK, NullTracer
from workloads import COUNT_CSV, POINTS

CHUNK = 256


def fiber_kind(x) -> str:
    """plane, two_term, cone or smooth: by the number of nonzero coordinates."""
    return KINDS[sum(1 for c in x.coords if c) - 1]


def _profile_cache_info():
    """cache_info() of the fiber-profile cache, or None where there is none."""
    cached = getattr(classify, "_fiber_profile", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


class Tally:
    """Per-class counts on an ascending bounds grid, labelled as count_series labels them."""

    def __init__(self, bounds) -> None:
        self.bounds = list(bounds)
        self.first = {label: [0] * len(self.bounds) for label in CLASS_LABELS}

    def add(self, record, height: int) -> None:
        idx = bisect_left(self.bounds, height)
        if idx == len(self.bounds):
            return
        first = self.first
        first["ALL"][idx] += 1
        first["IN_Z" if record.in_Z else "NOT_IN_Z"][idx] += 1
        if any(record.in_V.values()):
            first["IN_SOME_V"][idx] += 1
        elif record.in_Z:
            first["LIFTABLE_ONLY"][idx] += 1
        if record.singular_fiber:
            first["SINGULAR_FIBER"][idx] += 1

    def counts(self) -> dict[str, list[int]]:
        out = {}
        for label, firsts in self.first.items():
            running, out[label] = 0, []
            for v in firsts:
                running += v
                out[label].append(running)
        return out


def _fiber(x, top: int, tracer, tally: Tally, rows) -> None:
    """Enumerate, build and classify the fiber above x and tally it; also
    format its rows when `rows` is a list.

    Points go through each layer in chunks of CHUNK, so that few objects
    are alive at once, as when count_series streams a fiber.
    """
    hx3 = naive_height(x) ** 3
    kind = fiber_kind(x)
    with tracer.span("enumeration.fiber." + kind):
        ys = enumerate_fiber(x, top // hx3)
    tracer.count("enumeration.fibers." + kind)
    tracer.count("enumeration.fiber_points." + kind, len(ys))
    for lo in range(0, len(ys), CHUNK):
        chunk = ys[lo:lo + CHUNK]
        with tracer.span("geometry.bundle_point"):
            points = [BundlePoint(x, y) for y in chunk]
        records = []
        if lo == 0:
            # A fiber's first point is where its profile-cache miss happens.
            before = _profile_cache_info()
            with tracer.span("classify.point") as first:
                records.append(classify_point(points[0]))
            if before is not None and _profile_cache_info().misses > before.misses:
                first.name = "classify.miss"
        with tracer.span("classify.point"):
            records += [classify_point(p) for p in points[len(records):]]
        heights = [hx3 * naive_height(y) for y in chunk]
        for record, height in zip(records, heights):
            tally.add(record, height)
        if rows is not None:
            with tracer.span("enumeration.point_row"):
                rows += [point_row(r, h) for r, h in zip(records, heights)]
    tracer.count("classify.points", len(ys))


def count_cli(spec: dict, out: Path) -> dict:
    """`cubicbundle count` through cli.main, as a user runs it."""
    argv = ["count", "--bounds", ",".join(map(str, spec["bounds"])),
            "--workers", str(spec["workers"]), "--out", str(out / COUNT_CSV)]
    if spec["emit"]:
        argv.append("--emit-points")
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    return {"status": status}


def count_replay(spec: dict, out: Path, tracer) -> dict:
    """The work of `count` in one process, through the public functions."""
    bounds = spec["bounds"]
    tally = Tally(bounds)
    rows = [] if spec["emit"] else None
    with tracer.span(ROOT):
        with tracer.span("enumeration.base_points"):
            xs = base_points(bounds[-1])
        tracer.count("enumeration.base_points", len(xs))
        for x in xs:
            with tracer.span(TASK):
                _fiber(x, bounds[-1], tracer, tally, rows)
        (out / COUNT_CSV).write_text(CountSeries(tuple(bounds), tally.counts()).csv_text())
        if rows is not None:
            with tracer.span("enumeration.rows_sort"):
                rows.sort()
            with tracer.span("cli.rows_write"):
                (out / POINTS).write_text("\n".join(rows) + "\n" if rows else "")
            tracer.count("cli.rows_bytes", (out / POINTS).stat().st_size)
    return {"status": 0}


def surfaces_work(spec: dict, out: Path, tracer) -> dict:
    """Counts by class over the base points with 3 or 4 nonzero coordinates."""
    bounds = spec["bounds"]
    tally = Tally(bounds)
    with tracer.span(ROOT):
        with tracer.span("enumeration.base_points"):
            xs = base_points(bounds[-1])
        tracer.count("enumeration.base_points", len(xs))
        for x in xs:
            if fiber_kind(x) in ("cone", "smooth"):
                with tracer.span(TASK):
                    _fiber(x, bounds[-1], tracer, tally, None)
    return {"counts": tally.counts()}


def ranks_work(spec: dict, out: Path, tracer) -> dict:
    """picard_rank of every drawn surface, with the Segre cross-check."""
    ranks, disagreements = [], 0
    with tracer.span(ROOT):
        for coefficients in spec["surfaces"]:
            with tracer.span("picard.rank"):
                report = picard_rank(DiagonalCubic(tuple(coefficients)))
            ranks.append(report.rank_over_Q)
            disagreements += not report.agreement
    return {"ranks": ranks, "disagreements": disagreements}


@contextlib.contextmanager
def _traced_picard(tracer, surfaces: list):
    """Span each picard_rank call that classification makes, and collect
    its surface."""
    original = getattr(classify, "picard_rank", None)
    if original is None:
        yield
        return

    def traced(surface):
        surfaces.append(surface)
        with tracer.span("picard.rank"):
            return original(surface)

    classify.picard_rank = traced
    try:
        yield
    finally:
        classify.picard_rank = original


def _separate_picard_calls(tracer, surfaces) -> None:
    """The Galois group, the Segre test and the cube tests inside it, each
    timed as its own call outside the replay, so that arith shows."""
    with tracer.span(SEPARATE):
        for s in surfaces:
            with tracer.span("picard.galois_group"):
                galois_group(s)
            with tracer.span("picard.segre"):
                segre_rank_one(s)
            ratios = [s.pairing_ratio(p) for p in PAIRINGS]
            with tracer.span("arith.is_cube"):
                for r in ratios:
                    is_cube(r.numerator, r.denominator)


WORK = {"count": count_replay, "surfaces": surfaces_work, "ranks": ranks_work}


def run(spec: dict, out: Path, tracer=None) -> dict:
    """Do the spec's work and write its files into `out`; traced when a
    Tracer is given."""
    kind = spec["kind"]
    if tracer is None:
        if kind == "count":
            return count_cli(spec, out)
        return WORK[kind](spec, out, NullTracer())
    surfaces: list = []
    with _traced_picard(tracer, surfaces):
        outputs = WORK[kind](spec, out, tracer)
    if kind == "ranks":
        surfaces = [DiagonalCubic(tuple(c)) for c in spec["surfaces"]]
    info = _profile_cache_info()
    if info is not None:
        tracer.count("classify.profile_hits", info.hits)
        tracer.count("classify.profile_misses", info.misses)
    tracer.count("picard.surfaces", len(surfaces))
    _separate_picard_calls(tracer, surfaces)
    return outputs
