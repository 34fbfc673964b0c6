"""Dump rows of the fibers that are one box, a run at a time, straight
from the box: no walk, no per-point check and no sort.

A fiber over a base point x with a zero coordinate can be one box with
no points and nothing shared (:func:`_one_box`): the plane over an x with
one nonzero coordinate, or two whose ratio -x_j/x_i is a cube, the line
over the other x with two, and the vertex of a cone over a curve without
points.  The planes hold nearly every row of a dump.  Their rows come from
the box's parameters in dump order (:func:`_box_rows`), built from
segments shared by the runs and fibers of one box shape
(:func:`_run_segments`).  Only the dumps load this module
(:func:`.enumeration.point_rows`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, itemgetter, mul, or_

from .arith import exact_cube_root
from .classify import _fiber_profile
from .enumeration import _fiber_locus, _first_use, _flag_fields, _signed
from .geometry import PAIRINGS


def _one_box(xs, bound: int):
    """The box (params, sides) of the fiber over x up to the height bound
    when it is one box with no points and nothing shared (:func:`_fiber_locus`),
    else None; None for a smooth x, whose scan is not run."""
    if 0 in xs:
        boxes, points = _fiber_locus(xs, bound)
        if len(boxes) == 1 and not points and not boxes[0][2]:
            return boxes[0][:2]
    return None


def _values(m: int, cap: int, as_text: bool):
    """-cap..cap in the dump order of a parameter whose first multiplier is
    m > 0: numeric, or by the text m*t: of its first coordinate."""
    values = range(-cap, cap + 1)
    return sorted(values, key=lambda t: f"{m * t}:") if as_text else values


def _pair_loci(levels, slopes, bits: int = 0, roots: tuple = ()):
    """(bits, roots) with those of the pair sums levels[b] + slopes[b]*t^3
    along a run added: pairing b's bit when its sum vanishes for every t,
    else (t, bit) for its one root t, an exact cube root, if it has one."""
    for b, level in levels.items():
        if not slopes[b]:
            bits |= (not level) << b - 1
        elif not level % slopes[b]:
            root = exact_cube_root(-level // slopes[b])
            if root is not None:
                roots += ((root, 1 << b - 1),)
    return bits, roots


@lru_cache(maxsize=None)
def _run_segments(steps, trailing, side: int, bound: int, hx3: int, fields, as_text: bool):
    """A memoized function of a run's (g, fixed height, bits, roots) to its
    segments, shared by the fibers of a stream with this box shape
    (:func:`_box_rows`; :func:`.enumeration.point_rows` empties the cache
    as a stream starts and ends): the last parameter's multipliers steps
    and side, the fixed coordinates after its first (trailing), the fiber
    bound, H(x)^3 and the flag fields.

    A run takes the t in dump order (:func:`_values`) coprime to g, the gcd
    of the fixed entries, or t = 1 alone when they are all 0.  A segment is
    the texts of the coordinates from t's first on, in pieces split at the
    trailing ones, the last ending in |height|flags plus newline for the key
    max(fixed height, side*|t|) << 3 | bits, or'd with a root's bit at t.
    """
    n = bound // side
    first = next(m for m in steps if m)
    start = steps.index(first)
    seps = [":", ":", ":", ""]
    spans = [[]]  # the coordinates of each piece
    for k in range(start, 4):
        if k in trailing:
            spans.append([])
        else:
            spans[-1].append(k)
    tails = [f"|{hx3 * h}|{field}" for h in range(bound + 1) for field in fields]

    @lru_cache(maxsize=None)
    def run(g):
        ts = [t for t in _values(first, n, as_text) if math.gcd(g, t) == 1] if g else [1] * (n > 0)
        pieces = [["".join([f"{steps[k] * t}{seps[k]}" for k in span]) for t in ts]
                  for span in spans]
        return ts, [side * abs(t) << 3 for t in ts], pieces

    @lru_cache(maxsize=None)
    def segments(g, fixed_height, bits, roots):
        ts, heights, pieces = run(g)
        keys = list(map(or_, map(max, itertools.repeat(fixed_height << 3), heights),
                        itertools.repeat(bits)))
        for t, bit in roots:
            if t in ts:
                keys[ts.index(t)] |= bit
        return [*pieces[:-1], list(map(add, pieces[-1], map(tails.__getitem__, keys)))]

    return segments


def _box_rows(x, height_bound: int, as_text: bool):
    """The dump rows of the fiber above the base point x, one box
    (:func:`_one_box`), in the order of :func:`.enumeration._fiber_rows`,
    one str per value of the box's first parameter: from the box, which the
    box check has put on the fiber, with no walk, no per-point check and no
    sort.

    With the parameters renumbered by first use (:func:`_first_use`), the
    rows go in the order of their parameters t, entry by entry: numeric, or
    by the text of each one's first coordinate, as the texts v: are
    prefix-free.  So the fixed parameters, all but the last, loop in dump
    order, and the last makes one run of rows, prefix + segment
    (:func:`_run_segments`).  A point's height is the fixed part's or
    side*|t|, and its pair sums x_0*y_0^3 + x_b*y_b^3 are A_b + C_b*t^3
    (:func:`_pair_loci`), with A_b = 0 in every run unless y_0 or y_b is
    fixed and x_0 or x_b nonzero.
    """
    lifts, singular, _ = _fiber_profile(x)
    hx3 = max(map(abs, x)) ** 3
    bound = height_bound // hx3
    box = _one_box(x, bound)
    if box is None:
        raise RuntimeError(f"the fiber over {x} is not one box")
    params, sides = _first_use(*box)
    *caps, n = (bound // side for side in sides)
    last = len(caps)
    firsts = dict(reversed([(p, m) for p, m in params if m]))  # each parameter's first multiplier
    steps = tuple(m if p == last else 0 for p, m in params)
    start = next(k for k, m in enumerate(steps) if m)
    # y_k = mults[k] * fixed[places[k]] for the fixed coordinates, 0 (the
    # padding at -1) for the others
    places = [p if m and p != last else -1 for p, m in params]
    mults = [m for _, m in params]
    trailing = tuple(k for k in range(start + 1, 4) if places[k] >= 0)
    fields = _flag_fields(tuple(lifts.values()), singular)
    segments = _run_segments(steps, trailing, sides[-1], bound, hx3, fields, as_text)
    # C_b of each pairing b, and the pair loci of those whose A_b is 0 in every run
    slopes = {b: x[0] * steps[0] ** 3 + x[b] * steps[b] ** 3 for b in PAIRINGS}
    varying = [b for b in PAIRINGS if any(x[k] and places[k] >= 0 for k in (0, b))]
    loci = _pair_loci({b: 0 for b in PAIRINGS if b not in varying}, slopes)
    texts = [f"{v}:" for v in _signed(bound)]
    head = ":".join(map(str, x)) + "|"
    # the fixed parameters in dump order: the product of their orders, kept
    # where the first nonzero entry is positive or all are 0, t >= 0 as tuples
    orders = [_values(firsts[p], cap, as_text) for p, cap in enumerate(caps)]
    runs = filter(((0,) * last).__le__, itertools.product(*orders))
    for _, fixed_runs in itertools.groupby(runs, key=itemgetter(slice(1))):
        block = []
        for fixed in fixed_runs:
            y = list(map(mul, mults, map((*fixed, 0).__getitem__, places)))
            run_loci = loci
            if varying:
                run_loci = _pair_loci({b: x[0] * y[0] ** 3 + x[b] * y[b] ** 3 for b in varying},
                                      slopes, *loci)
            pieces = segments(math.gcd(*fixed), max(map(abs, y)), *run_loci)
            if pieces[0]:
                # the segments: the pieces with the trailing coordinates' texts between
                cols = [pieces[0]]
                for k, piece in zip(trailing, pieces[1:]):
                    cols += (itertools.repeat(f"{y[k]}:" if k < 3 else str(y[k])), piece)
                prefix = head + "".join(map(texts.__getitem__, y[:start]))
                block += (prefix, prefix.join(map("".join, zip(*cols)) if trailing else cols[0]))
        if block:
            yield "".join(block)
