"""Tests of the benchmark itself: replay fidelity, span accounting, the gate
and the command's contract.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import replay
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent

SMALL = [
    {"kind": "count", "workload": "count", "bounds": [1, 2, 4], "workers": 1, "emit": False},
    {"kind": "count", "workload": "dump", "bounds": [1, 2, 4], "workers": 1, "emit": True},
    {"kind": "surfaces", "workload": "surfaces", "bounds": [1, 2, 4, 8]},
    {"kind": "ranks", "workload": "ranks", "surfaces": workloads.draw_surfaces(3, 20)},
]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s["workload"])
def test_traced_and_untraced_outputs_identical(spec, tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    plain_out = replay.run(spec, plain)
    traced_out = replay.run(spec, traced, spans.Tracer("test"))
    assert plain_out == traced_out
    assert _files(plain) == _files(traced)


def test_two_workers_write_the_same_csv(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    replay.count_cli(SMALL[0], one)
    replay.count_cli(dict(SMALL[0], workers=2), two)
    assert _files(one) == _files(two)


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s["workload"])
def test_span_self_times_are_nonnegative_and_within_traced_wall(spec, tmp_path):
    tracer = spans.Tracer("test")
    replay.run(spec, tmp_path, tracer)
    tracer.write(tmp_path / "spans.jsonl")
    records = spans.read_spans(tmp_path / "spans.jsonl")
    assert records == tracer.records()
    selfs = spans.self_times(records)
    assert all(v >= 0 for v in selfs.values())
    root = next(r for r in records if r["name"] == spans.ROOT)
    inside = spans.subtree(records, root["id"])
    assert sum(selfs[r["id"]] for r in inside) <= root["end"] - root["start"]
    metrics = spans.layer_metrics(records, tracer.counters, 1.0, 1.0, {})
    assert set(metrics) == set(spans.UNITS)


def test_layer_metrics_count_the_work():
    tracer = spans.Tracer("test")
    spec = SMALL[2]
    outputs = replay.run(spec, Path("."), tracer)
    metrics = spans.layer_metrics(tracer.records(), tracer.counters, 1.0, 1.0, {})
    assert metrics["classify.points"] == outputs["counts"]["ALL"][-1]
    assert metrics["enumeration.linear_point_share"] == 0
    assert metrics["enumeration.fibers.plane"] == metrics["enumeration.fibers.two_term"] == 0


def test_import_times_parse_cumulative_microseconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        450 |     sympy\n"
        "import time:        30 |        700 |   cubicbundle\n"
        "import time:        10 |         40 | cubicbundle.cli\n"
    )
    assert spans.import_times(stderr) == {"sympy": 450e-6, "cubicbundle": 700e-6, "cubicbundle.cli": 40e-6}


def test_gate_passes_reference_and_fails_corrupted_csv():
    ref = gate.reference()["count"]["csv"]
    assert all(ok for _, ok in gate.check_count("count", ref))
    corrupted = ref.replace("260840", "260841")
    checks = dict(gate.check_count("count-2w", corrupted))
    assert not checks["csv_matches_reference"]
    assert not checks["baseline_rows"]
    assert not checks["class_partition"]
    assert not all(ok for _, ok in gate.check_count("count", "not a csv"))


def test_gate_fails_corrupted_points_dump():
    ref = gate.reference()["dump"]["csv"]
    assert not dict(gate.check_count("dump", ref, b"1:0:0:0|0:1:0:0|1|Z\n"))["rows_equal_all"]


def test_gate_fails_corrupted_rank_histogram():
    surfaces = workloads.draw_surfaces(5, 200)
    ranks = [gate.reference_rank(c) for c in surfaces]
    assert all(ok for _, ok in gate.check_ranks(surfaces, ranks, 0))
    corrupted = [ranks[0] % 4 + 1] + ranks[1:]
    assert not dict(gate.check_ranks(surfaces, corrupted, 0))["rank_histogram"]
    assert not dict(gate.check_ranks(surfaces, ranks, 1))["segre_agrees"]


def test_rank_key_respects_the_symmetries():
    assert gate.rank_key((1, -8, 2, 27)) == gate.rank_key((2, 1, 1, -1)) == "1,1,1,2"
    assert gate.cube_free(-16) == 2


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_run_prints_every_end_to_end_metric(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH.parent / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(checkout, "--workload", "ranks", "--seed", "4", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_declares_every_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == spans.UNITS
