"""One repetition of a workload, run by run.py in a fresh interpreter.

    python3 perfbench/work.py SPEC_JSON

The spec, written by run.py, names the kind of work and its inputs.  This
times the import of cubicbundle and cubicbundle.cli, does the work (see
replay.py), writes the outputs next to the spec and ends by writing
result.json there; a traced run also writes its spans to spans.jsonl.
Times are measured with a SpeedSampler running (see calibrate.py); the
result holds each raw time and its scale to reference seconds.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from calibrate import SpeedSampler
from spans import Tracer


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    out = spec_path.parent
    result = {}
    with SpeedSampler(out / "speed.log") as speed:
        start = time.monotonic()
        import cubicbundle
        import cubicbundle.cli  # noqa: F401

        end = time.monotonic()
        result["setup_raw_s"] = end - start
        result["setup_scale"] = speed.scale(start, end)
        result["module"] = cubicbundle.__file__
        if spec["kind"] != "import":
            import replay

            tracer = Tracer(spec["run_id"]) if spec["trace"] else None
            start = time.monotonic()
            result["outputs"] = replay.run(spec, out, tracer)
            end = time.monotonic()
            result["wall_raw_s"] = end - start
            result["wall_scale"] = speed.scale(start, end)
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    if spec["kind"] != "import":
        result["wall_s"] = result["wall_raw_s"] * result["wall_scale"]
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool workers.
        result["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024
        if tracer is not None:
            tracer.write(out / "spans.jsonl")
            result["counters"] = dict(tracer.counters)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
