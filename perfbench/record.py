#!/usr/bin/env python3
"""Record the gate's reference data from the current implementation.

    python3 perfbench/record.py

Writes perfbench/reference.json: the count and dump CSVs, the dump's row
count and SHA-256, the surfaces per-class counts, and the rank of every
diagonal cubic with coefficients in [-20, 20] up to the symmetries in
gate.rank_key (about 6,000 classes; takes under a minute).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import replay  # noqa: E402
from cubicbundle.picard import DiagonalCubic, picard_rank  # noqa: E402
from gate import cube_free, rank_key  # noqa: E402
from workloads import COEFFICIENTS, COUNT_CSV, POINTS, WORKLOADS, draw_surfaces  # noqa: E402


def count_reference(name: str, tmp: Path) -> dict:
    spec = WORKLOADS[name]
    replay.count_cli(spec, tmp)
    ref = {"bounds": spec["bounds"], "csv": (tmp / COUNT_CSV).read_text()}
    if spec["emit"]:
        points = (tmp / POINTS).read_bytes()
        ref["points_sha256"] = hashlib.sha256(points).hexdigest()
    return ref


def rank_table() -> dict[str, int]:
    classes = sorted({cube_free(c) for c in COEFFICIENTS})
    table = {}
    for key in itertools.combinations_with_replacement(classes, 4):
        rank = picard_rank(DiagonalCubic(key)).rank_over_Q
        if rank != 1:
            table[rank_key(key)] = rank
    return table


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        reference = {
            "count": count_reference("count", Path(tmp)),
            "dump": count_reference("dump", Path(tmp)),
        }
    spec = WORKLOADS["surfaces"]
    reference["surfaces"] = {
        "bounds": spec["bounds"],
        "counts": replay.run(spec, Path("."))["counts"],
    }
    table = rank_table()
    reference["ranks"] = {"rank_not_1": table}
    # The symmetry reduction must agree with direct computation.
    for seed in range(3):
        surfaces = draw_surfaces(seed, 300)
        direct = Counter(picard_rank(DiagonalCubic(c)).rank_over_Q for c in surfaces)
        reduced = Counter(table.get(rank_key(c), 1) for c in surfaces)
        if direct != reduced:
            print(f"rank table disagrees with picard_rank at seed {seed}", file=sys.stderr)
            return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
