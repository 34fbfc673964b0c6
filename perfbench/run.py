#!/usr/bin/env python3
"""Benchmark of the cubicbundle toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): count, count-2w, dump, surfaces, ranks.

Each repetition runs in a fresh interpreter (work.py) that imports the
package from ./src, one at a time; only count-2w starts a process pool.
Every repetition's outputs pass through the correctness gate (gate.py).
Repetitions start until S seconds have passed and the workload's least
number of repetitions has run.

--trace 0 prints the end-to-end metrics, medians over the repetitions,
with times scaled to an uncontended core (calibrate.py):
  wall_s       seconds of the workload's work after imports
  setup_s      seconds to import cubicbundle and cubicbundle.cli
  peak_rss_mb  peak resident memory of the largest process of a repetition
  pass_ratio   gate checks passed over checks attempted (1 at the seed)

--trace 1 runs, per set, the work untraced, then replayed with spans
under -X importtime, and prints the per-layer metrics of spans.py.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it records the machine and the sample
counts.  Files go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    versions = {}
    for package in ("sympy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "loadavg_start": os.getloadavg(),
    }


def run_child(spec: dict, workdir: Path, importtime: bool = False) -> dict:
    """Run work.py on `spec` in a fresh interpreter and return its result.

    The child gets its own process group, so a pool it leaves behind after
    a timeout is killed with it.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "work.py"), str(spec_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['kind']} took over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['kind']} failed with exit {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads((workdir / "result.json").read_text())
    if Path(result["module"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"cubicbundle was imported from {result['module']}, not from {SRC}")
    result["stderr"] = stderr
    return result


class Run:
    """One benchmark run: repetitions, gate results and samples."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.spec = workloads.inputs(workload, seed)
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.checks: list[tuple[str, bool]] = []
        self.samples: dict[str, list[float]] = {}

    def rep(self, spec: dict, tag: str, importtime: bool = False) -> tuple[dict, Path]:
        workdir = self.dir / tag
        result = run_child(spec, workdir, importtime)
        self.sample("setup_s", result["setup_s"])
        self.sample("setup_raw_s", result["setup_raw_s"])
        if spec["kind"] != "import":
            self.checks += gate.check(spec, result, workdir)
        return result, workdir

    def cleanup(self) -> None:
        """Delete the repetitions' working directories; keep run.json and spans."""
        for path in self.dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def untraced(self, seconds: float) -> dict:
        start = time.monotonic()
        while len(self.samples.get("wall_s", ())) < self.spec["reps"] or time.monotonic() - start < seconds:
            result, _ = self.rep(dict(self.spec, trace=False), "rep")
            self.sample("wall_s", result["wall_s"])
            self.sample("wall_raw_s", result["wall_raw_s"])
            self.sample("peak_rss_mb", result["peak_rss_mb"])
        while len(self.samples["setup_s"]) < MIN_SETUP_SAMPLES:
            self.rep({"kind": "import"}, "import")
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def traced(self, seconds: float) -> dict:
        start, sets = time.monotonic(), []
        while not sets or time.monotonic() - start < seconds:
            index = len(sets)
            own, _ = self.rep(dict(self.spec, trace=False), "rep")
            serial = own  # the same work in one process: the base for tracing overhead
            if self.spec.get("workers", 1) > 1:
                serial, _ = self.rep(dict(self.spec, workers=1, trace=False), "serial")
            run_id = f"{self.spec['workload']}-seed{self.spec['seed']}-set{index}"
            traced, workdir = self.rep(dict(self.spec, trace=True, run_id=run_id), "traced", importtime=True)
            records = spans.read_spans(workdir / "spans.jsonl")
            shutil.copy(workdir / "spans.jsonl", self.dir / f"spans-set{index}.jsonl")
            imports = spans.import_times(traced["stderr"])
            sets.append(spans.layer_metrics(
                records, traced["counters"], serial["wall_s"], own["wall_s"],
                {name: s * traced["setup_scale"] for name, s in imports.items()},
                traced["wall_scale"],
            ))
        self.samples["sets"] = [len(sets)]
        return {name: statistics.median(s[name] for s in sets) for name in sets[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubicbundle" / "__init__.py").is_file():
        print(f"error: no cubicbundle sources under {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine()}
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        run.rep({"kind": "import"}, "warmup")  # compiles bytecode before any timing
        run.samples.clear()
        if args.trace:
            values, units = run.traced(args.seconds), spans.UNITS
        else:
            values, units = run.untraced(args.seconds), UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.cleanup()

    attempted, failed = len(run.checks), sum(not ok for _, ok in run.checks)
    if not args.trace:
        values["pass_ratio"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["samples"] = run.samples
    record["failed_checks"] = sorted({name for name, ok in run.checks if not ok})
    (run.dir / "run.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
