"""Membership in the thin exceptional set, point by point.

A bundle point lands in the exceptional set Z when it lies on a pair locus
V_tau for some pairing, or when its base point x admits a rational point of
the cube cover T_tau (liftability).  For smooth fibers, liftability for a
pairing tests cube-ness of exactly the ratio in Segre's criterion with the
fiber's coefficients, so "some pairing liftable" must agree with "fiber
Picard rank >= 2"; that cross-check runs on every classified fiber, also
under ``python -O``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import is_cube
from .geometry import PAIRINGS, BundlePoint
from .picard import DiagonalCubic, picard_rank


#: point: BundlePoint; in_V, liftable: pairing -> bool; singular_fiber: bool;
#: fiber_rank: int, or None iff the fiber is singular; in_Z: bool
ClassificationRecord = namedtuple(
    "ClassificationRecord", "point in_V liftable singular_fiber fiber_rank in_Z"
)


@lru_cache(maxsize=None)
def _fiber_profile(x_coords: tuple[int, ...]):
    """Per-fiber data shared by every point above x: liftability for each
    pairing, the singular flag, and the Picard rank of a smooth fiber.

    Read off the plain ints of a base point checked where it came in: the
    cube cover of pairing {i, j}|{k, l} has a rational point above x iff
    A = x_i*x_j or B = x_k*x_l vanishes, or A/B is a rational cube; the
    fiber is singular iff some x_k vanishes (geometry; the definitions one
    pairing at a time are the tests' oracle).
    Memoized per normalized x, as many points share a fiber.  A profile
    costs at most 19 integer cube tests (one for each of the three
    liftability ratios and the three Segre ratios, and 13 for the relation
    lattice), most of them turned away by their residue mod 819, and one
    lookup of the lattice's rank in a table (:func:`picard_rank`): about
    4.5 us on a 2 GHz Xeon core, CPython 3.11.
    """
    lifts = {}
    for p, ((i, j), (k, l)) in PAIRINGS.items():
        a, b = x_coords[i] * x_coords[j], x_coords[k] * x_coords[l]
        lifts[p] = not (a and b) or is_cube(a, b)
    singular = 0 in x_coords
    rank = None
    if not singular:
        rank = picard_rank(DiagonalCubic(x_coords)).rank_over_Q
        # liftability tests the same cube ratios as Segre's criterion
        if any(lifts.values()) != (rank >= 2):
            raise RuntimeError(
                f"fiber above x = {x_coords}: liftable {lifts} disagrees with Picard rank {rank}"
            )
    return lifts, singular, rank


def classify_point(p: BundlePoint) -> ClassificationRecord:
    """Full verdict for one bundle point.

    Both pair sums of every pairing are tested, without leaning on the
    bundle equation, so this stays the oracle of the per-fiber walks.
    """
    (xs,), (ys,) = p
    lifts, singular, rank = _fiber_profile(xs)
    (x0, x1, x2, x3), (y0, y1, y2, y3) = xs, ys
    t0, t1, t2, t3 = x0 * y0 * y0 * y0, x1 * y1 * y1 * y1, x2 * y2 * y2 * y2, x3 * y3 * y3 * y3
    # the pairings of geometry.PAIRINGS: {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2}
    v1 = t0 + t1 == 0 and t2 + t3 == 0
    v2 = t0 + t2 == 0 and t1 + t3 == 0
    v3 = t0 + t3 == 0 and t1 + t2 == 0
    in_z = v1 or v2 or v3 or any(lifts.values())
    # what ClassificationRecord(...) does, without the Python-level __new__ of a namedtuple
    return tuple.__new__(
        ClassificationRecord, (p, {1: v1, 2: v2, 3: v3}, lifts.copy(), singular, rank, in_z)
    )
