"""The correctness gate: a workload's outputs against reference data.

reference.json was recorded by record.py from the seed implementation.
Every check returns (name, passed); run.py counts them into `attempted`
and `failed`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import cache
from pathlib import Path

from workloads import COUNT_CSV, POINTS

# The count CSV columns, as the reference was recorded.
LABELS = ("ALL", "IN_Z", "NOT_IN_Z", "IN_SOME_V", "LIFTABLE_ONLY", "SINGULAR_FIBER")

# N(ALL, B) from the ROADMAP baseline
BASELINE_ALL = {8: 39944, 16: 260840, 32: 1928872}


@cache
def reference() -> dict:
    return json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def parse_csv(text: str) -> dict[int, dict[str, int]] | None:
    """Rows of a count CSV by bound, or None when it is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "B," + ",".join(LABELS):
        return None
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(LABELS) + 1:
            return None
        try:
            values = [int(c) for c in cells]
        except ValueError:
            return None
        rows[values[0]] = dict(zip(LABELS, values[1:]))
    return rows


def partition_holds(rows) -> bool:
    """ALL = IN_Z + NOT_IN_Z and IN_SOME_V + LIFTABLE_ONLY = IN_Z on every row."""
    return bool(rows) and all(
        r["ALL"] == r["IN_Z"] + r["NOT_IN_Z"] and r["IN_SOME_V"] + r["LIFTABLE_ONLY"] == r["IN_Z"]
        for r in rows.values()
    )


def check_count(workload: str, csv_text: str, points: bytes | None = None) -> list[tuple[str, bool]]:
    """count and count-2w share one reference CSV; dump also checks its points."""
    ref = reference()["dump" if workload == "dump" else "count"]
    rows = parse_csv(csv_text)
    checks = [
        ("csv_matches_reference", csv_text == ref["csv"]),
        ("baseline_rows", rows is not None
         and all(rows[b]["ALL"] == n for b, n in BASELINE_ALL.items() if b in rows)),
        ("class_partition", rows is not None and partition_holds(rows)),
    ]
    if points is not None:
        top = max(rows) if rows else None
        checks += [
            ("rows_equal_all", top is not None and points.count(b"\n") == rows[top]["ALL"]),
            ("points_digest", hashlib.sha256(points).hexdigest() == ref["points_sha256"]),
        ]
    return checks


def check_surfaces(counts: dict[str, list[int]]) -> list[tuple[str, bool]]:
    ref = reference()["surfaces"]
    rows = {b: {label: counts[label][i] for label in LABELS} for i, b in enumerate(ref["bounds"])}
    return [
        ("counts_match_reference", counts == ref["counts"]),
        ("class_partition", partition_holds(rows)),
    ]


def cube_free(n: int) -> int:
    """|n| with every cube factor divided out."""
    n, k = abs(n), 2
    while k ** 3 <= n:
        while n % k ** 3 == 0:
            n //= k ** 3
        k += 1
    return n


def rank_key(coefficients) -> str:
    """The rank over Q of a diagonal cubic is unchanged by permuting the
    coefficients, changing their signs (-1 is a cube) or multiplying one
    by a cube, so sorted cube-free parts determine it."""
    return ",".join(str(v) for v in sorted(cube_free(c) for c in coefficients))


def reference_rank(coefficients) -> int:
    return reference()["ranks"]["rank_not_1"].get(rank_key(coefficients), 1)


def check_ranks(surfaces, ranks: list[int], disagreements: int) -> list[tuple[str, bool]]:
    expected = Counter(reference_rank(c) for c in surfaces)
    return [
        ("segre_agrees", disagreements == 0 and len(ranks) == len(surfaces)),
        ("rank_histogram", Counter(ranks) == expected),
    ]


def check(spec: dict, result: dict, out: Path) -> list[tuple[str, bool]]:
    """All checks on one repetition's outputs in directory `out`."""
    outputs = result["outputs"]
    if spec["kind"] == "count":
        if outputs["status"] != 0:
            return [("exit_status", False)]
        csv_text = (out / COUNT_CSV).read_text()
        points = (out / POINTS).read_bytes() if spec["emit"] else None
        return check_count(spec["workload"], csv_text, points)
    if spec["kind"] == "surfaces":
        return check_surfaces(outputs["counts"])
    return check_ranks(spec["surfaces"], outputs["ranks"], outputs["disagreements"])
