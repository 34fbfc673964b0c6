"""The benchmark's workloads: what each one runs, and on which inputs.

Only `ranks` draws its inputs from the seed; the others are fixed by their
bounds grid, which is the whole input of `count`, so they record the seed
and ignore it.
"""

from __future__ import annotations

import random

# Output files of count work, in the repetition's directory.
COUNT_CSV = "counts.csv"
POINTS = COUNT_CSV + ".points"

# Nonzero coefficients in [-20, 20], drawn as `cubicbundle rank-survey` draws them.
COEFFICIENTS = tuple(v for v in range(-20, 21) if v)

# "reps" is the least number of repetitions in a run.  count-2w needs more:
# how its pool happens to schedule the few huge plane-fiber tasks moves a
# single repetition by several percent (3 repetitions gave a 7% spread of
# run medians over 10 seeds, 5 gave 4.6%).
WORKLOADS = {
    # cli.main count with 1 worker: about 90% of its points lie over linear fibers.
    "count": {"kind": "count", "bounds": [1, 2, 4, 8, 16], "workers": 1, "emit": False, "reps": 3},
    # The same grid with 2 workers: the only run that uses the process pool.
    "count-2w": {"kind": "count", "bounds": [1, 2, 4, 8, 16], "workers": 2, "emit": False, "reps": 5},
    # count --emit-points on a smaller grid: enumeration plus row formatting and writing.
    "dump": {"kind": "count", "bounds": [1, 2, 4, 8, 12], "workers": 1, "emit": True, "reps": 3},
    # Base points with 3 or 4 nonzero coordinates only: cone and smooth fibers.
    "surfaces": {"kind": "surfaces", "bounds": [1, 2, 4, 8, 16, 32], "reps": 3},
    # picard_rank on seeded random diagonal cubics.
    "ranks": {"kind": "ranks", "samples": 1000, "reps": 3},
}


def draw_surfaces(seed: int, samples: int) -> list[tuple[int, int, int, int]]:
    """Coefficient tuples of `samples` random diagonal cubic surfaces."""
    rng = random.Random(seed)
    return [tuple(rng.choice(COEFFICIENTS) for _ in range(4)) for _ in range(samples)]


def inputs(name: str, seed: int) -> dict:
    """The child-process spec of one workload: its kind and generated inputs."""
    spec = dict(WORKLOADS[name], workload=name, seed=seed)
    if spec["kind"] == "ranks":
        spec["surfaces"] = draw_surfaces(seed, spec.pop("samples"))
    return spec

