"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The growth-trend test
enumerates up to anticanonical height 64 (about 15 million points) and is
by far the slowest entry; it parallelizes over worker processes.
"""

import itertools
import math
import time

from cubicbundle.arith import normalize
from cubicbundle.classify import classify_point
from cubicbundle.cli import main
from cubicbundle.enumeration import (
    canonical_coords,
    count_series,
    primitive_count,
)
from cubicbundle.geometry import PAIRINGS
from cubicbundle.picard import (
    ALL_LINE_LABELS,
    incidence,
    incidence_gram,
    picard_rank,
)
from oracles import (
    brute_force_bundle,
    enumerate_bundle,
    incidence_numeric,
    liftable,
    pair_products,
    random_surfaces,
    rational_matrix_rank,
    search_lift,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_intersection_identities(capsys):
    started = time.monotonic()
    code = main(["verify-intersections"])
    elapsed = time.monotonic() - started
    stdout = capsys.readouterr().out
    with capsys.disabled():
        report(
            1,
            "intersection identities",
            code == 0 and stdout.count("PASS") == 3 and "FAIL" not in stdout and elapsed < 1.0,
            f"exit={code}, {elapsed:.3f}s (< 1s)",
        )


def test_criterion_2_schlaefli_structure():
    started = time.monotonic()
    gram = incidence_gram()
    rank_ok = rational_matrix_rank(gram) == 7
    meets_ok = all(sum(1 for v in row if v == 1) == 10 for row in gram)
    oracle_ok = True
    for surface in random_surfaces(10, seed=20240601):
        for l1, l2 in itertools.combinations(ALL_LINE_LABELS, 2):
            if incidence(l1, l2) != incidence_numeric(surface, l1, l2):
                oracle_ok = False
                break
        if not oracle_ok:
            break
    elapsed = time.monotonic() - started
    report(
        2,
        "Schlaefli structure",
        rank_ok and meets_ok and oracle_ok and elapsed < 10.0,
        f"gram rank 7: {rank_ok}, meets 10: {meets_ok}, "
        f"numeric oracle on 351 pairs x 10 surfaces: {oracle_ok}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_segre_agreement():
    started = time.monotonic()
    disagreements = 0
    bad_rank = 0
    for surface in random_surfaces(200, seed=5):
        rep = picard_rank(surface)
        if not rep.agreement:
            disagreements += 1
        if rep.rank_over_Q not in (1, 2, 3, 4):
            bad_rank += 1
    elapsed = time.monotonic() - started
    report(
        3,
        "Segre agreement",
        disagreements == 0 and bad_rank == 0 and elapsed < 30.0,
        f"200 surfaces, disagreements={disagreements}, ranks outside 1..4: {bad_rank}, "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_fermat_fiber(capsys):
    code = main(["fiber-rank", "1", "1", "1", "1"])
    stdout = capsys.readouterr().out
    with capsys.disabled():
        report(
            4,
            "Fermat fiber rank",
            code == 0 and "rank_over_Q: 4" in stdout,
            "fiber-rank 1 1 1 1 reports rank 4",
        )


def test_criterion_5_enumeration_oracle():
    results = []
    elapsed_at_4 = 0.0
    for bound in (1, 2, 3, 4):
        started = time.monotonic()
        mine = {(p.x.coords, p.y.coords) for p in enumerate_bundle(bound)}
        expected = brute_force_bundle(bound)
        took = time.monotonic() - started
        if bound == 4:
            elapsed_at_4 = took
        results.append(mine == expected)
    report(
        5,
        "enumeration oracle",
        all(results) and elapsed_at_4 < 60.0,
        f"exact set equality at B=1..4: {results}, B=4 took {elapsed_at_4:.2f}s (< 60s)",
    )


def test_criterion_6_liftability_oracle():
    started = time.monotonic()
    search_memo = {}
    violations = 0
    checked = 0
    for coords in canonical_coords(4, 10):
        x = normalize(coords)
        for pairing in PAIRINGS:
            a, b = pair_products(x, pairing)
            key = (a, b)
            if key not in search_memo:
                search_memo[key] = search_lift(a, b)
            checked += 1
            if search_memo[key] and not liftable(x, pairing):
                violations += 1
    cross_checked = 0
    cross_violations = 0
    for point in enumerate_bundle(8):
        record = classify_point(point)
        if not record.singular_fiber:
            cross_checked += 1
            if any(record.liftable.values()) != (record.fiber_rank >= 2):
                cross_violations += 1
    elapsed = time.monotonic() - started
    report(
        6,
        "liftability oracle",
        violations == 0 and cross_violations == 0,
        f"{checked} (x, pairing) searches, violations={violations}; "
        f"B=8 smooth-fiber cross-check on {cross_checked} points, "
        f"violations={cross_violations}; {elapsed:.1f}s",
    )


def test_criterion_7_growth_exponents():
    bounds = [50, 100, 200, 400, 800]
    counts = [primitive_count((1, 1), b) for b in bounds]
    logs = [(math.log(b), math.log(n)) for b, n in zip(bounds, counts)]
    mean_x = sum(x for x, _ in logs) / len(logs)
    mean_y = sum(y for _, y in logs) / len(logs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in logs) / sum(
        (x - mean_x) ** 2 for x, _ in logs
    )
    slope_ok = 1.85 <= slope <= 2.15

    series = count_series([8, 16, 32, 64], workers=8)
    ratios = [
        series.counts["IN_Z"][idx] / series.counts["ALL"][idx]
        for idx in range(len(series.bounds))
    ]
    non_decreasing = all(r1 <= r2 for r1, r2 in zip(ratios, ratios[1:]))
    # the dominance trend is emitted and reported, not thresholded
    report(
        7,
        "growth exponents",
        slope_ok,
        f"line slope={slope:.3f} in [1.85, 2.15]: {slope_ok}; "
        f"IN_Z/ALL over {list(series.bounds)} = {[f'{r:.6f}' for r in ratios]}, "
        f"non-decreasing={non_decreasing} (reported, not thresholded)",
    )


def test_criterion_8_worker_determinism(tmp_path, capsys):
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"counts_w{workers}.csv"
        code = main(
            ["count", "--bounds", "1,2,4,8", "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    with capsys.disabled():
        report(
            8,
            "worker determinism",
            blobs[0] == blobs[1] == blobs[2],
            "count CSV byte-identical across workers {1, 4, 8}",
        )
