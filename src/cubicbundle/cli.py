"""Command-line surface for the toolkit.

Subcommands: count, enumerate, classify, fiber-rank, lines,
verify-intersections, rank-survey, plot.  Exit codes: 0 success, 2 I/O
error (a closed or full stdout included), 64 usage error, 65 domain error
(bad point or surface), 66 missing input file, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys

# every main() builds a parser, and the first parser built imports locale
# (argparse's gettext) and shutil (the help formatter's terminal width):
# importing them with the module keeps that cost in start-up
import locale  # noqa: F401
import shutil  # noqa: F401

from .arith import InvalidArgument, InvalidPoint, normalize
from .classify import classify_point
from .enumeration import POOL_MIN_BOUND, count_series
from .geometry import NotOnVariety, BundlePoint
from .picard import (
    ALL_LINE_LABELS,
    DiagonalCubic,
    galois_group,
    incidence_gram,
    orbits,
    picard_rank,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_NOINPUT = 66
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT


def _parse_point(text: str):
    try:
        coords = [int(part) for part in text.split(":")]
    except ValueError:
        raise InvalidPoint(f"cannot parse coordinates {text!r}") from None
    if len(coords) != 4:
        raise InvalidPoint(f"expected 4 coordinates, got {len(coords)}")
    return normalize(coords)


def _write_text(path: str | None, chunks) -> int:
    """Write chunks to stdout, or to the file path, which appears only when
    every chunk is written: they go to a temporary file beside it, which
    replaces path at the end and is removed on any error or interrupt, so
    that a file already at path keeps its bytes.  A path that exists and is
    not a regular file, such as /dev/null, a FIFO or a symbolic link, is
    written in place."""
    if path is None:
        sys.stdout.writelines(chunks)
        return EXIT_OK
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # nothing there yet, or a path that open fails on too
        in_place = False
    head, tail = os.path.split(path)
    # named by hand: tempfile imports random, which start-up leaves unloaded
    target = path if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(target, "w") as handle:
                handle.writelines(chunks)
            if not in_place:
                os.replace(target, path)
        except BaseException:
            if not in_place:
                try:
                    os.remove(target)
                except OSError:  # never created, or already gone
                    pass
            raise
    except OSError as exc:
        # strerror alone: exc names the temporary file where open failed on it
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# count / enumerate

def cmd_count(args) -> int:
    try:
        bounds = tuple(int(part) for part in args.bounds.split(","))
    except ValueError:
        print(f"error: cannot parse bounds {args.bounds!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        series = count_series(bounds, workers=args.workers)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status = _write_text(args.out, [series.csv_text()])
    if status == EXIT_OK and args.emit_points:
        # imported here: only dumps compile it, and start-up counts for every command
        from .dump import point_rows

        rows = point_rows(series.bounds[-1], as_text=True)
        status = _write_text((args.out or "points") + ".points", rows)
    if status != EXIT_OK:
        return status
    # the summary table, laid out as the CSV, must not trail a CSV on stdout
    table = sys.stdout if args.out else sys.stderr
    lines = [line.split(",") for line in series.csv_text().splitlines()]
    widths = [max(10, *map(len, column)) for column in zip(*lines)]
    for cells in lines:
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)), file=table)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.bound < 1:
        print("error: bound must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    # imported here: only dumps compile it, and start-up counts for every command
    from .dump import point_rows

    return _write_text(args.out, point_rows(args.bound))


# ---------------------------------------------------------------------------
# pointwise commands

def cmd_classify(args) -> int:
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    record = classify_point(BundlePoint(x, y))
    print(f"x: {record.point.x}")
    print(f"y: {record.point.y}")
    for pairing in sorted(record.in_V):
        print(f"in_V{pairing}: {_yn(record.in_V[pairing])}   liftable{pairing}: {_yn(record.liftable[pairing])}")
    print(f"singular_fiber: {_yn(record.singular_fiber)}")
    rank = record.fiber_rank
    print(f"fiber_rank: {'-' if rank is None else rank}")
    print(f"in_Z: {_yn(record.in_Z)}")
    return EXIT_OK


def _yn(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_fiber_rank(args) -> int:
    report = picard_rank(DiagonalCubic(args.coefficients))
    print(f"rank_over_Q: {report.rank_over_Q}")
    print(f"segre_rank_one: {_yn(report.segre_rank_one)}")
    print(f"orbit_sizes: {list(report.orbit_sizes)}")
    print(f"agreement: {_yn(report.agreement)}")
    return EXIT_OK


def cmd_lines(args) -> int:
    surface = DiagonalCubic(args.coefficients)
    group = galois_group(surface)
    parts_list = orbits(group)
    orbit_of = {label: idx for idx, orbit in enumerate(parts_list) for label in orbit}
    print(f"surface: {' '.join(str(c) for c in surface.coefficients)}")
    print(f"galois_order: {len(group)}")
    for label, row in zip(ALL_LINE_LABELS, incidence_gram()):
        print(
            f"line p{label.pairing} m{label.m} n{label.n}  orbit {orbit_of[label]}  "
            f"meets {row.count(1)}"
        )
    print(f"orbit_sizes: {[len(o) for o in parts_list]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# intersection identities

_IDENTITY_LABELS = (
    "(h1+h2)^2 * h1^2 * (a*h1+b*h2) = 3a+7b",
    "(2h1+h2)^2 * (a*h1^2+b*h1*h2) * h1 = 3a+13b",
    "deg(h1+h2) on a*h1^2+b*h1*h2+c*h2^2 = 3b+4c",
)


def _identity_checks(rng):
    """The three symbolic identities, each evaluated at one random integer
    parameter point drawn from rng, a random.Random: (computed, expected)
    per identity."""
    from .intersection import H1, H2, DivisorClass, intersect_on_bundle

    a, b, c = (rng.randint(-50, 50) for _ in range(3))
    quad = DivisorClass({(2, 0): a, (1, 1): b})
    curve = DivisorClass({(2, 0): a, (1, 1): b, (0, 2): c})
    return [
        (intersect_on_bundle([H1 + H2, H1 + H2, H1, H1, a * H1 + b * H2]), 3 * a + 7 * b),
        (intersect_on_bundle([2 * H1 + H2, 2 * H1 + H2, quad, H1]), 3 * a + 13 * b),
        (intersect_on_bundle([H1 + H2, H1, H1, curve]), 3 * b + 4 * c),
    ]


#: random parameter points per identity in verify-intersections
IDENTITY_TRIALS = 20


def cmd_verify_intersections(args) -> int:
    import random  # only this command and rank-survey draw random numbers

    rng = random.Random(args.seed)
    ok = [True] * len(_IDENTITY_LABELS)
    for _ in range(IDENTITY_TRIALS):
        for slot, (got, expected) in enumerate(_identity_checks(rng)):
            ok[slot] = ok[slot] and got == expected
    for label, passed in zip(_IDENTITY_LABELS, ok):
        print(f"{'PASS' if passed else 'FAIL'}  {label}  ({IDENTITY_TRIALS} random points)")
    return EXIT_OK if all(ok) else 1


# ---------------------------------------------------------------------------
# rank survey

#: coefficients that rank-survey draws from: [-20, 20] without 0
SURVEY_COEFFICIENTS = tuple(v for v in range(-20, 21) if v)


def random_surface(rng) -> DiagonalCubic:
    """A diagonal cubic with coefficients drawn from rng, a random.Random."""
    return DiagonalCubic(tuple(rng.choice(SURVEY_COEFFICIENTS) for _ in range(4)))


def cmd_rank_survey(args) -> int:
    if args.samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    import random

    rng = random.Random(args.seed)
    distribution: dict[int, int] = {}
    orders: dict[int, int] = {}
    disagreements = 0
    for _ in range(args.samples):
        report = picard_rank(random_surface(rng))
        distribution[report.rank_over_Q] = distribution.get(report.rank_over_Q, 0) + 1
        orders[report.galois_order] = orders.get(report.galois_order, 0) + 1
        if not report.agreement:
            disagreements += 1
    print(f"samples: {args.samples}  seed: {args.seed}")
    for rank in sorted(distribution):
        print(f"rank {rank}: {distribution[rank]}")
    print(f"segre_disagreements: {disagreements}")
    for order in sorted(orders):
        print(f"galois_order {order}: {orders[order]}")
    return EXIT_OK if disagreements == 0 else 1


# ---------------------------------------------------------------------------
# plot

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_log_log_svg(bounds, series: dict[str, list[int]]) -> str:
    """Self-contained SVG: one log-log polyline per class, each labelled
    with its escaped class name."""
    from xml.sax.saxutils import escape  # loads urllib and email, so only plot pays

    width, height, margin = 720, 540, 70
    xs = [math.log10(b) for b in bounds]
    positive = [v for counts in series.values() for v in counts if v > 0]
    ys = [math.log10(v) for v in positive] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(v: float) -> float:
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">log10 B</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">log10 N</text>',
    ]
    for b, xv in zip(bounds, xs):
        parts.append(
            f'<line x1="{sx(xv):.1f}" y1="{height - margin}" x2="{sx(xv):.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 20}" text-anchor="middle" '
            f'font-size="12">{b}</text>'
        )
    tick = math.ceil(y_lo)
    while tick <= y_hi:
        parts.append(
            f'<line x1="{margin - 5}" y1="{sy(tick):.1f}" x2="{margin}" '
            f'y2="{sy(tick):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 10}" y="{sy(tick) + 4:.1f}" text-anchor="end" '
            f'font-size="12">1e{tick}</text>'
        )
        tick += 1
    for idx, (label, counts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [
            f"{sx(math.log10(b)):.1f},{sy(math.log10(v)):.1f}"
            for b, v in zip(bounds, counts)
            if v > 0
        ]
        if coords:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        ly = margin + 18 * idx + 10
        parts.append(
            f'<line x1="{width - margin - 150}" y1="{ly}" x2="{width - margin - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 112}" y="{ly + 4}" font-size="12">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    try:
        with open(args.csv_path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except FileNotFoundError:
        print(f"error: no such file {args.csv_path}", file=sys.stderr)
        return EXIT_NOINPUT
    except UnicodeDecodeError:
        print(f"error: {args.csv_path} is not UTF-8 text", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: cannot read {args.csv_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    if len(lines) < 2:
        print("error: no rows", file=sys.stderr)
        return EXIT_DOMAIN
    header = lines[0].split(",")
    try:
        rows = [[int(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        print("error: malformed CSV body", file=sys.stderr)
        return EXIT_DOMAIN
    if any(len(row) != len(header) for row in rows):
        print("error: ragged CSV body", file=sys.stderr)
        return EXIT_DOMAIN
    bounds = [row[0] for row in rows]
    if any(b < 1 for b in bounds):
        print("error: bounds must be positive for a log-log chart", file=sys.stderr)
        return EXIT_DOMAIN
    series = {label: [row[idx] for row in rows] for idx, label in enumerate(header) if idx}
    return _write_text(args.svg_path, [render_log_log_svg(bounds, series)])


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_USAGE instead of 2, which
    is the I/O error code here; the subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


#: the subcommands, in the order of the help
COMMANDS = ("count", "enumerate", "classify", "fiber-rank", "lines", "verify-intersections",
            "rank-survey", "plot")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command alone, or with all of them
    when command names none: a run parses one command, and the other seven
    subparsers took three quarters of the build.  The usage lines list
    every command either way."""
    parser = _Parser(
        prog="cubicbundle",
        description="Rational points on the Fermat cubic surface bundle: "
        "enumeration, exceptional-set classification, fiber Picard ranks, "
        "and intersection-number checks.",
    )
    only = command in COMMANDS
    # with every subparser argparse lists them itself, and names the
    # missing command "command", not the metavar, when argv is empty
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, run, summary):
        """The subparser of name, or None when only another one is built."""
        if not only or name == command:
            p = sub.add_parser(name, help=summary)
            p.set_defaults(run=run)
            return p

    if p := add("count", cmd_count, "classified counting functions on a bounds grid"):
        p.add_argument("--bounds", required=True, help="comma-separated ascending heights")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="most processes for the count, which uses one when the largest bound "
            f"is below {POOL_MIN_BOUND}; the points are dumped in one process",
        )
        p.add_argument(
            "--emit-points",
            action="store_true",
            help="also dump classified points to <out>.points, or to points.points in "
            "the working directory when the CSV goes to stdout",
        )
    if p := add("enumerate", cmd_enumerate, "dump all points up to a height bound"):
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--out", default=None)
    if p := add("classify", cmd_classify, "classify one point x0:x1:x2:x3 y0:y1:y2:y3"):
        p.add_argument("x")
        p.add_argument("y")
    if p := add("fiber-rank", cmd_fiber_rank, "Picard rank of a diagonal cubic surface"):
        p.add_argument("coefficients", nargs=4, type=int)
    if p := add("lines", cmd_lines, "27 lines, Galois orbits and incidence counts"):
        p.add_argument("coefficients", nargs=4, type=int)
    if p := add("verify-intersections", cmd_verify_intersections,
                "check the intersection identities"):
        p.add_argument("--seed", type=int, default=20240601)
    if p := add("rank-survey", cmd_rank_survey, "rank distribution over random surfaces"):
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=int, default=20240601)
    if p := add("plot", cmd_plot, "render a count CSV as a log-log SVG chart"):
        p.add_argument("csv_path")
        p.add_argument("svg_path")
    return parser


def main(argv=None) -> int:
    # the thousands of start-up objects (modules, classes, functions) live
    # through the command; frozen, no collection during it walks them, in
    # whatever phase the imports left the collector's counters
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()  # a caller that runs main in its process collects them again


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        try:
            status = args.run(args)
        except (InvalidPoint, InvalidArgument, NotOnVariety) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_DOMAIN
        sys.stdout.flush()  # so that a full or closed stdout raises here, not at exit
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed pipe needs no message
            print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()  # the error may not have come from stdout
        except OSError:  # drop what is still buffered, so that the final flush cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
