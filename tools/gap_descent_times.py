"""Time ``kazhdan_gap`` on the gap inputs of the benchmark, with the complement basis precomputed.

    python3 tools/gap_descent_times.py [--src DIR] [--repeats N]

The inputs are the three generated ``scale`` gap scenarios of
``bench/workloads.py`` for seed 1 (imported, not modified; the scenario
files go to a temporary directory) and the five bundled gap scenarios.  Each
is run at its own restart count and at 64 and 1024 restarts, with its own
word set and seed, as ``lplab run`` calls it; the complement basis is
computed once beforehand and passed in, so only the descent is timed.  Each
case is repeated ``--repeats`` times (default 7, at least 5) and its median
and minimum wall times are printed, with the reported upper bound so that two
runs can be checked to have computed the same thing.  BLAS is pinned to one
thread, as in ``bench/run.py``.  ``--src`` picks the source directory to
import ``lplab`` from (default: the ``src/`` of the checkout that holds this
script), so running it on two checkouts compares them.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("swap-gap", "cyclic3-gap", "cyclic5-gap", "dihedral4-gap", "grid-z2xz2-gap")
SCALE_SEED = 1
RESTARTS = (64, 1024)


def _raws() -> list:
    """(name, raw scenario) for the scale gap inputs, then the bundled gap scenarios."""
    import workloads
    from lplab.cli import bundled_scenario_path

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads._build_scale(np.random.default_rng(SCALE_SEED), Path(tmp))
    out = [(op["name"], op["raws"][0]) for op in ops if op["raws"][0]["task"]["command"] == "gap"]
    return out + [(name, json.loads(bundled_scenario_path(name).read_text())) for name in BUNDLED]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    sys.path.insert(0, str(args.src))
    sys.path.insert(1, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ behind in bench/
    from lplab.gap import kazhdan_gap
    from lplab.representation import canonical_complement
    from lplab.scenario import parse_scenario
    from run import _environment

    results = {}
    for name, raw in _raws():
        scenario = parse_scenario(raw)
        rep, task = scenario.representation, scenario.task
        basis = canonical_complement(rep).complement_basis
        for restarts in sorted({task["restarts"], *RESTARTS}):
            walls = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                est = kazhdan_gap(rep, k_words=task["k"], basis=basis, restarts=restarts, seed=scenario.seed)
                walls.append(time.perf_counter() - t0)
            key = f"{name}@{restarts}"
            results[key] = {"median_s": statistics.median(walls), "min_s": min(walls), "upper": est.upper}
            print(f"{key:28s} median {results[key]['median_s'] * 1e3:9.2f} ms  min {results[key]['min_s'] * 1e3:9.2f} ms",
                  flush=True)
    print(json.dumps({"repeats": args.repeats, "src": str(args.src), "results": results,
                      "environment": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
