"""The value types are immutable namedtuples: checked construction on every
path, pickling, ordering and tuple semantics."""

import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubicbundle
from cubicbundle.arith import normalize
from cubicbundle.classify import classify_point
from cubicbundle.enumeration import count_series
from cubicbundle.geometry import BundlePoint
from cubicbundle.picard import (
    ALL_LINE_LABELS,
    DiagonalCubic,
    PicardReport,
    galois_group,
    picard_rank,
)

# Each checked type, a valid value and fields that its constructor rejects.
# Run as a script, in a subprocess, so that it also runs under python -O.
CHECKED_BUILDS = textwrap.dedent("""
    import sys
    from cubicbundle.arith import ProjectivePoint, normalize
    from cubicbundle.geometry import BundlePoint
    from cubicbundle.picard import DiagonalCubic

    x, y = normalize((1, 1, 1, 1)), normalize((1, -1, 0, 0))
    cases = [
        (ProjectivePoint((1, 0, 0, 0)), ((2, 0, 0, 0),)),
        (ProjectivePoint((1, 0, 0, 0)), ((1.5, 0, 0, 0),)),
        (BundlePoint(x, y), (x, x)),
        (DiagonalCubic((1, 2, 3, 5)), ((1, 0, 3, 5),)),
        (DiagonalCubic((1, 2, 3, 5)), ((1, 2, 3),)),
    ]

    def error(build):
        try:
            build()
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        return None

    for good, bad in cases:
        cls = type(good)
        expected = error(lambda: cls(*bad))
        made = error(lambda: cls._make(bad))
        replaced = error(lambda: good._replace(**dict(zip(cls._fields, bad))))
        if expected is None or not expected == made == replaced:
            sys.exit(f"{cls.__name__}{bad}: {expected} {made} {replaced}")
    print("optimize", sys.flags.optimize)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_make_and_replace_run_the_constructor_check(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(cubicbundle.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", CHECKED_BUILDS], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"optimize {len(flags)}\n"


def test_make_and_replace_keep_valid_values():
    x, y = normalize((1, 1, 1, 1)), normalize((1, -1, 0, 0))
    point = BundlePoint(x, y)
    assert BundlePoint._make([x, y]) == point
    assert point._replace(y=normalize((0, 0, 1, -1))).y.coords == (0, 0, 1, -1)
    cubic = DiagonalCubic((1, 2, 3, 5))
    assert cubic._replace(coefficients=[True, 2, 3, 5]).coefficients == (1, 2, 3, 5)


def public_values():
    x, y = normalize((1, 1, 1, 1)), normalize((1, -1, 0, 0))
    cubic = DiagonalCubic((1, 1, 2, 2))
    # over the rank-2 fiber 1:1:2:4, liftable for pairing 1 alone, off every pair locus
    lifted = BundlePoint(normalize((1, 1, 2, 4)), normalize((1, 1, -1, 0)))
    return [
        x,
        BundlePoint(x, y),
        classify_point(BundlePoint(x, y)),
        pytest.param(classify_point(lifted), id="ClassificationRecord-liftable"),
        count_series([1, 2]),
        cubic,
        ALL_LINE_LABELS[7],
        galois_group(cubic)[1],
        picard_rank(cubic),
    ]


@pytest.mark.parametrize("value", public_values(), ids=lambda v: type(v).__name__)
def test_pickle_round_trip_keeps_type_and_value(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == repr(value)


def test_sorted_line_labels_keep_their_order():
    shuffled = list(ALL_LINE_LABELS)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled) == list(ALL_LINE_LABELS)
    assert sorted(reversed(ALL_LINE_LABELS)) == list(ALL_LINE_LABELS)


def test_values_are_tuples_of_their_fields():
    point = normalize((1, 2, 0, 0))
    assert point == ((1, 2, 0, 0),) and hash(point) == hash(((1, 2, 0, 0),))
    report = picard_rank(DiagonalCubic((1, 2, 3, 5)))
    assert type(report) is PicardReport
    assert tuple(report) == (1, True, (9, 9, 9), True, 54)
