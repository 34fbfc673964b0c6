"""Desk-scale toolkit for rational points on the Fermat cubic surface bundle.

Exact enumeration of points of bounded anticanonical height, membership in
the thin exceptional set, Picard ranks of diagonal cubic surface fibers by
two independent methods, and the divisor-class intersection calculus behind
the expected growth exponents.
"""

from .arith import (
    CubeClass,
    InvalidArgument,
    InvalidPoint,
    ProjectivePoint,
    anticanonical_height,
    cube_class,
    exact_cube_root,
    is_cube,
    naive_height,
    normalize,
)
from .classify import ClassificationRecord, classify_point
from .enumeration import (
    CLASS_LABELS,
    CountSeries,
    count_series,
    enumerate_bundle,
    enumerate_fiber,
)
from .geometry import (
    PAIRINGS,
    BundlePoint,
    NotOnVariety,
    in_pair_locus,
    liftable,
    on_bundle,
    over_singular_fiber,
)
from .picard import (
    ALL_LINE_LABELS,
    DiagonalCubic,
    GaloisElement,
    LineLabel,
    PicardReport,
    galois_group,
    incidence,
    incidence_numeric,
    line_action,
    picard_rank,
    segre_rank_one,
)

__version__ = "0.1.0"

#: names of the intersection module, which only verify-intersections needs
_INTERSECTION_NAMES = frozenset({
    "ANTICANONICAL",
    "H1",
    "H2",
    "HYPERSURFACE_CLASS",
    "DegreeMismatch",
    "DivisorClass",
    "InvariantReport",
    "SubvarietyDescriptor",
    "SubvarietyKind",
    "ambient_degree",
    "curve_a_value",
    "intersect_on_bundle",
    "lookup_invariants",
    "multiply",
})


def __getattr__(name: str):
    """An intersection name, loading the module on first use."""
    if name in _INTERSECTION_NAMES:
        from . import intersection

        return getattr(intersection, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
