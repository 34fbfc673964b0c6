"""The dump: every point of anticanonical height <= B as a row
x|y|height|class-flags (:func:`.enumeration.point_row`), streamed in strs
of whole rows (:func:`point_rows`).

Dumps write every fiber, one base point at a time, in one process, by a
writer picked from the base point x alone (:func:`point_rows`).  An x with
at least two zero coordinates lies under one box with no points and
nothing shared: the plane over an x with one nonzero coordinate, or two
whose ratio -x_j/x_i is a cube, and the line over the other x with two.
The planes hold nearly every row of a dump.  Their rows come from the
box's parameters in dump order, with no walk, no per-point check and no
sort (:func:`_box_rows`), built from segments shared by the runs and
fibers of one box shape (:func:`_run_segments`), with y3, the one fixed
coordinate that can follow them, between two pieces; a pair sum rides on
one box parameter at most, so each pair locus is read off the box.

The other fibers walk and check only the fiber of their orbit's
representative (:func:`_orbit_map`), once per stream, kept to the
stream's end, grouped by sign pattern, with every table that depends on
the walk alone (:func:`_rep_walk`).  A base point builds only its own parts, its flag
fields (:func:`.enumeration._flag_fields`), pair-locus remap and
coordinate signs; its sorted rows go out as one str, the head x| written
by the one join (:func:`_fiber_rows`).

Only the dumps load this module, `enumerate` and `count --emit-points`,
so no other command compiles it.  It takes the fiber description, the
walk and the per-point checks from :mod:`.enumeration`, which never
imports it.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache, partial
from operator import add, itemgetter, mul, or_

from .arith import _integer
from .classify import _fiber_profile
from .enumeration import (
    _base_height,
    _checked_points,
    _fiber_locus,
    _fiber_walk,
    _flag_fields,
    _param_sums,
    canonical_coords,
)
from .geometry import PAIRINGS


def _orbit_map(x):
    """(rep, perm, signs) for the canonical base point x: its orbit's
    representative rep = sorted |x_k| (:func:`.enumeration._base_orbits`)
    and a signed permutation that sends rep to x, x_k = signs[k] *
    rep[perm[k]], by a stable argsort of |x|; signs[k] = 1 where x_k = 0."""
    order = sorted(range(4), key=lambda k: abs(x[k]))
    perm = tuple(map(order.index, range(4)))  # perm[order[i]] = i
    return tuple(abs(x[k]) for k in order), perm, tuple(-1 if v < 0 else 1 for v in x)


@lru_cache(maxsize=None)
def _pair_locus_map(perm) -> tuple[int, ...]:
    """The pair-locus patterns (V_p in bit p - 1) over a member of rep's
    orbit, x_k = +-rep[perm[k]], by those over rep: entry k is the pattern
    of x's point that comes from a point of rep's fiber with pattern k.
    x's V_q is rep's V for the pairing that groups perm[0] with perm[q]:
    0 with the other index, or else the index of 1, 2, 3 in neither.  Built
    once per permutation, of which there are 24."""
    a = perm[0]
    pairings = [a + b if not a * b else 6 - a - b for b in perm[1:]]
    return tuple(sum((k >> p - 1 & 1) << q for q, p in enumerate(pairings)) for k in range(8))


def _signed(top: int):
    """-top..top in the order of a signed table: 0..top, then -top..-1, so
    that the entry of v, read as table[v], sits at index v for v >= 0 and
    counts from the end for v < 0.  A table built over it serves exactly
    the v with |v| <= top."""
    return itertools.chain(range(top + 1), range(-top, 0))


def _negated(table: list) -> list:
    """The signed table (:func:`_signed`) whose entry for v is table's entry
    for -v."""
    return table[:1] + table[:0:-1]


def _sort_by(items: list, keys) -> None:
    """Sort items in place, stably, by the keys given in their order.

    list.sort computes every key once, in list order, before it sorts, so
    the key function can hand out the keys one after another: they are
    never held in a list of their own, nor is a list of indices.
    """
    items.sort(key=partial(next, iter(keys)))


@lru_cache(maxsize=None)
def _rep_walk(rep, fiber_bound: int):
    """The fiber over an orbit representative, walked and checked once per
    dump stream for every member of the orbit (:func:`_fiber_rows`;
    :func:`point_rows` empties the cache when a stream ends), with the
    tables that the members' rows read: (groups, heights, texts, places).

    The points are grouped by sign pattern, at most 81 of them, in any
    order: each group is (pattern, columns, keys), the pattern as four
    signs -1, 0 or 1, the four coordinate columns (None where the pattern
    is 0) and the keys of :func:`.enumeration._checked_points`, as arrays
    of machine ints.  heights are the texts |H(x)^3 * h| for h up to the
    largest H(y), top.  For each place k of a row, texts and places hold a
    signed table (:func:`_signed`) and its negation (:func:`_negated`): of
    each value's text, with ":" but in the last place, and of
    v*(2*top + 1)^(3 - k).
    """
    ys = _fiber_walk(rep, fiber_bound)
    keys = _checked_points(rep, ys)
    top = max(keys, default=0) >> 3
    typecode = "h" if top < 4096 else "q"  # a key is top << 3 | 7 at most
    by_pattern = {}
    for y, key in zip(ys, keys):
        y0, y1, y2, y3 = y
        pattern = (y0 > 0) - (y0 < 0), (y1 > 0) - (y1 < 0), (y2 > 0) - (y2 < 0), (y3 > 0) - (y3 < 0)
        points, group_keys = by_pattern.setdefault(pattern, ([], []))
        points.append(y)
        group_keys.append(key)
    groups = []
    for pattern, (points, group_keys) in by_pattern.items():
        cols = [array(typecode, col) if sign else None for sign, col in zip(pattern, zip(*points))]
        groups.append((pattern, cols, array(typecode, group_keys)))
    hx3 = max(rep) ** 3
    heights = [f"|{hx3 * h}|" for h in range(top + 1)]
    text = list(map(str, _signed(top)))
    inner = [v + ":" for v in text]
    texts = [(inner, _negated(inner))] * 3 + [(text, _negated(text))]
    width = 2 * top + 1
    places = [[width ** (3 - k) * v for v in _signed(top)] for k in range(4)]
    return groups, heights, texts, [(p, _negated(p)) for p in places]


def _fiber_rows(x, height_bound: int, as_text: bool) -> str:
    """The dump rows of the fiber above the base point x, each ending in a
    newline, as one str; in numeric order of y, or sorted as strings when
    as_text holds.  The dumps take it for every x with at most one zero
    coordinate (:func:`point_rows`; :func:`_box_rows` writes the planes and
    lines with no walk and no sort).

    x is sent from its orbit's representative rep = sorted |x_k| by
    x_k = signs[k] * rep[perm[k]] (:func:`_orbit_map`), checked also under
    python -O.  The representative's fiber and its tables are built once
    per stream (:func:`_rep_walk`); here only x's own parts.

    The signed permutation sends each point y of that fiber to the
    canonical form of z, z_k = signs[k] * y[perm[k]], of the same height;
    within a sign pattern of y the sign that makes z canonical is one
    constant.  x's pair-locus bit q is rep's bit for the pairing that groups
    perm[0] with perm[q] (:func:`_pair_locus_map`), so one table of eight
    flag fields, from x's own fiber profile (its liftability and rank
    cross-check runs for every base point), remaps rep's keys.  A row is
    five lookups in column order, fewer where the pattern is 0: the texts
    of the signed values and the tail |height|flags plus newline of rep's
    key.  Either order takes one sort: the rows as strings, or the rows by
    the int sum of the places of z, which orders as the tuples z do.  The
    head x|, common to every row, is joined in after the sort.
    """
    rep, perm, signs = _orbit_map(x)
    if tuple(s * rep[p] for s, p in zip(signs, perm)) != x:
        raise RuntimeError(f"the signed permutation {perm}, {signs} does not send {rep} to {x}")
    lifts, singular, _ = _fiber_profile(x)
    fields = _flag_fields(tuple(lifts.values()), singular)
    groups, heights, texts, places = _rep_walk(rep, height_bound // max(rep) ** 3)
    remapped = [fields[k] for k in _pair_locus_map(perm)]
    tails = [h + field for h in heights for field in remapped]
    rows, codes = [], []
    for pattern, columns, keys in groups:
        # the sign that makes the image canonical: that of its first nonzero entry
        flip = next(signs[k] * pattern[p] for k, p in enumerate(perm) if pattern[p])
        row_parts, code = [], itertools.repeat(0)
        for k, p in enumerate(perm):
            negate = flip * signs[k] < 0
            if not pattern[p]:
                row_parts.append(itertools.repeat(texts[k][0][0]))
                continue
            row_parts.append(map(texts[k][negate].__getitem__, columns[p]))
            if not as_text:
                code = map(add, code, map(places[k][negate].__getitem__, columns[p]))
        rows += map("".join, zip(*row_parts, map(tails.__getitem__, keys)))
        codes.append(code)
    if as_text:
        rows.sort()
    else:
        _sort_by(rows, itertools.chain.from_iterable(codes))
    head = ":".join(map(str, x)) + "|"
    return head.join(["", *rows])


def _values(m: int, cap: int, as_text: bool):
    """-cap..cap in the dump order of a parameter whose first multiplier is
    m > 0: numeric, or by the text m*t: of its first coordinate."""
    values = range(-cap, cap + 1)
    return sorted(values, key=lambda t: f"{m * t}:") if as_text else values


@lru_cache(maxsize=None)
def _run_segments(steps, trailing, side: int, bound: int, hx3: int, fields, as_text: bool):
    """A memoized function of a run's (g, fixed height, bits, zero bits) to
    its segments, shared by the fibers of a stream with this box shape
    (:func:`_box_rows`; :func:`point_rows` empties the cache as a stream
    starts and ends): the last parameter's multipliers steps
    and side, whether y3 is fixed after its first (trailing), the fiber
    bound, H(x)^3 and the flag fields.

    A run takes the t in dump order (:func:`_values`) coprime to g, the gcd
    of the fixed entries, or t = 1 alone when they are all 0.  A segment is
    the texts of the coordinates from t's first on, ending in |height|flags
    plus newline for the key max(fixed height, side*|t|) << 3 | bits, or'd
    with the zero bits at t = 0; in two pieces where a trailing y3 goes.
    """
    n = bound // side
    first = next(m for m in steps if m)
    start = steps.index(first)
    seps = [":", ":", ":", ""]
    spans = [range(start, 3), ()] if trailing else [range(start, 4)]
    tails = [f"|{hx3 * h}|{field}" for h in range(bound + 1) for field in fields]

    @lru_cache(maxsize=None)
    def run(g):
        ts = [t for t in _values(first, n, as_text) if math.gcd(g, t) == 1] if g else [1] * (n > 0)
        pieces = [["".join([f"{steps[k] * t}{seps[k]}" for k in span]) for t in ts]
                  for span in spans]
        return ts, [side * abs(t) << 3 for t in ts], pieces

    @lru_cache(maxsize=None)
    def segments(g, fixed_height, bits, zero_bits):
        ts, heights, pieces = run(g)
        keys = list(map(or_, map(max, itertools.repeat(fixed_height << 3), heights),
                        itertools.repeat(bits)))
        if zero_bits and 0 in ts:
            keys[ts.index(0)] |= zero_bits
        return [*pieces[:-1], list(map(add, pieces[-1], map(tails.__getitem__, keys)))]

    return segments


def _box_rows(x, height_bound: int, as_text: bool):
    """The dump rows of the fiber above the base point x, a plane or a line,
    in the order of :func:`_fiber_rows`, one str per value of the box's
    first parameter: from the one box of its description
    (:func:`.enumeration._fiber_locus`), which the box check has put on the
    fiber, with no walk, no per-point check and no sort.  Raises
    RuntimeError unless x has at least two zero coordinates.

    With the parameters numbered by first use (:func:`.enumeration._join`),
    the rows go in the order of their parameters t, entry by entry: numeric, or
    by the text of each one's first coordinate, as the texts v: are
    prefix-free.  So the fixed parameters, all but the last, loop in dump
    order, and the last makes one run of rows, prefix + segment
    (:func:`_run_segments`).  A point's height is the fixed part's or
    side*|t|.  Only y3 can be fixed after the last parameter's first, as
    the second coordinate of a pair parameter over (a, 0, 0, b) or
    (0, a, 0, b) with -b/a a cube; the last parameter then starts at y2.
    The box, a cone's (:func:`.enumeration._cone_locus`), puts each y_k with
    x_k nonzero at 0 or on its one curve parameter, so pairing b's pair sum
    x_0*y_0^3 + x_b*y_b^3 is c*t_p^3 for at most one parameter p: V_b holds
    on the whole box without one, else exactly where t_p = 0, one test per
    run for a fixed p and the run's point t = 0 for the last.
    """
    if x.count(0) < 2:
        raise RuntimeError(f"the base point {x} has fewer than two zero coordinates")
    lifts, singular, _ = _fiber_profile(x)
    hx3 = max(map(abs, x)) ** 3
    bound = height_bound // hx3
    [(params, sides, _, _)], _ = _fiber_locus(x, bound)
    caps = [bound // side for side in sides[:-1]]
    last = len(caps)
    firsts = dict(reversed([(p, m) for p, m in params if m]))  # each parameter's first multiplier
    steps = tuple(m if p == last else 0 for p, m in params)
    start = next(k for k, m in enumerate(steps) if m)
    # y_k = mults[k] * (*fixed, 0)[places[k]]: the padding 0 at -1 where y_k is not fixed
    places = [p if m and p != last else -1 for p, m in params]
    mults = [m for _, m in params]
    trailing = places[3] >= 0  # y3 fixed, so after the last parameter's first
    fields = _flag_fields(tuple(lifts.values()), singular)
    segments = _run_segments(steps, trailing, sides[-1], bound, hx3, fields, as_text)
    # the bits of the pairings whose pair sum c*t_p^3 rides on each parameter
    # p, and under None those whose pair sum vanishes on the whole box
    pair_bits = dict.fromkeys([None, *range(len(sides))], 0)
    for b in PAIRINGS:
        sums = _param_sums(x, params, (0, b))
        [p] = [p for p, c in enumerate(sums) if c] or [None]  # raises for two, also under -O
        pair_bits[p] |= 1 << b - 1
    bits, zero_bits = pair_bits.pop(None), pair_bits.pop(last)
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
            run_bits = bits + sum(bit for p, bit in pair_bits.items() if not fixed[p])
            pieces = segments(math.gcd(*fixed), max(map(abs, y)), run_bits, zero_bits)
            if pieces[0]:
                run = map(str(y[3]).join, zip(*pieces)) if trailing else pieces[0]
                prefix = head + "".join(map(texts.__getitem__, y[:start]))
                block += (prefix, prefix.join(run))
        if block:
            yield "".join(block)


def point_rows(height_bound: int, as_text: bool = False):
    """Stream the dump of all points of anticanonical height <= height_bound
    in strs of whole rows, each row ending in a newline, in lexicographic
    order of the normalized x, then y.  A row is the line
    point_row(classify_point(p), height) would give, built from each
    fiber's profile.

    as_text sorts the rows as strings instead: base points by str(x) + "|",
    then each fiber's rows.  Every row starts with str(x) + "|", and "|"
    sorts after the digits, ":" and "-", so that is the whole dump sorted.

    The writer is picked by x alone.  An x with at least two zero
    coordinates lies under a plane or a line, one box with no points and
    nothing shared, whose rows come from the box, one str per value of its
    first parameter (:func:`_box_rows`); the planes hold nearly every row.
    Every other fiber is one str, built from its orbit representative's
    walk, made once per orbit and stream (:func:`_fiber_rows`).
    """
    height_bound = _integer(height_bound, "height bound", 1)
    xs = list(canonical_coords(4, _base_height(height_bound)))
    if as_text:
        xs.sort(key=lambda x: ":".join(map(str, x)) + "|")
    try:
        for x in xs:
            if x.count(0) >= 2:
                yield from _box_rows(x, height_bound, as_text)
            else:
                yield _fiber_rows(x, height_bound, as_text)
    finally:
        _rep_walk.cache_clear()
        _run_segments.cache_clear()
