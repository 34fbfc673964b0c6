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

from dataclasses import dataclass
from functools import lru_cache

from .arith import ProjectivePoint
from .geometry import PAIRINGS, BundlePoint, liftable, over_singular_fiber
from .picard import DiagonalCubic, picard_rank


@dataclass(frozen=True)
class ClassificationRecord:
    point: BundlePoint
    in_V: dict[int, bool]
    liftable: dict[int, bool]
    singular_fiber: bool
    fiber_rank: int | None  # present iff the fiber is smooth
    in_Z: bool


@lru_cache(maxsize=None)
def _fiber_profile(x_coords: tuple[int, ...]):
    """Per-fiber data shared by every point above x: liftability for each
    pairing, the singular flag, and the Picard rank of a smooth fiber.

    Memoized per normalized x; many points share a fiber and the rank
    computation is the expensive part.
    """
    x = ProjectivePoint(x_coords)
    lifts = {p: liftable(x, p) for p in PAIRINGS}
    singular = over_singular_fiber(x)
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
    lifts, singular, rank = _fiber_profile(p.x.coords)
    (x0, x1, x2, x3), (y0, y1, y2, y3) = p.x.coords, p.y.coords
    t0, t1, t2, t3 = x0 * y0 ** 3, x1 * y1 ** 3, x2 * y2 ** 3, x3 * y3 ** 3
    # the pairings of geometry.PAIRINGS: {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2}
    in_v = {
        1: t0 + t1 == 0 and t2 + t3 == 0,
        2: t0 + t2 == 0 and t1 + t3 == 0,
        3: t0 + t3 == 0 and t1 + t2 == 0,
    }
    return ClassificationRecord(
        point=p,
        in_V=in_v,
        liftable=dict(lifts),
        singular_fiber=singular,
        fiber_rank=rank,
        in_Z=any(in_v.values()) or any(lifts.values()),
    )
