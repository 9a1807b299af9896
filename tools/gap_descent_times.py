"""Time ``kazhdan_gap`` and its descent on the gap inputs of the benchmark, with the complement basis precomputed.

    python3 tools/gap_descent_times.py [--src DIR] [--repeats N]

The inputs are the three generated ``scale`` gap scenarios of
``bench/workloads.py`` for seed 1 (imported, not modified; the scenario
files go to a temporary directory) and the five bundled gap scenarios.  Each
is run at its own restart count and at 64 and 1024 restarts, with its own
word set and seed, as ``lplab run`` calls it; the complement basis is
computed once beforehand and passed in, so only the estimate is timed.  Each
case is timed twice: ``kazhdan_gap`` as a whole, and its descent on its own
(``gap._setup`` and ``gap._descent``, which is all that ``kazhdan_gap`` ran
before it had an exact path, so the descent figures compare with
``BENCH_gap_descent.json``).  The line of each case names the path
``kazhdan_gap`` took: ``exact`` where it returned an exact witness,
``descent`` where it searched.  Each timing is repeated ``--repeats``
times (default 7, at least 5) and its median and minimum wall times are
printed, with the reported upper bounds so that two runs can be checked to
have computed the same thing.  BLAS is pinned to one thread, as in
``bench/run.py``.  ``--src`` picks the source directory to import ``lplab``
from (default: the ``src/`` of the checkout that holds this script); a
checkout without ``gap._descent`` is timed through ``kazhdan_gap`` alone.
The last line of standard output is the result as one JSON object.
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


def _descent(gap, rep, k_words, basis, restarts, seed):
    """``kazhdan_gap``'s descent on its own, with its set-up: all the estimate was before the exact path."""
    from lplab.groups import k_words_of

    ops, *_, start = gap._setup(rep, k_words_of(rep.group, k_words), np.ascontiguousarray(basis))
    return gap._descent(rep.space, ops, start, restarts, seed)


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
    from lplab import gap
    from lplab.groups import k_words_of
    from lplab.representation import canonical_complement
    from lplab.scenario import parse_scenario
    from run import _environment

    def timed(estimate):
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            est = estimate()
            walls.append(time.perf_counter() - t0)
        return {"median_s": statistics.median(walls), "min_s": min(walls), "upper": est.upper}

    results = {}
    for name, raw in _raws():
        scenario = parse_scenario(raw)
        rep, task = scenario.representation, scenario.task
        basis = canonical_complement(rep).complement_basis
        path = "descent"
        if hasattr(gap, "_descent"):
            setup = gap._setup(rep, k_words_of(rep.group, task["k"]), np.ascontiguousarray(basis))
            if setup[-1] is not None and gap._exact(rep.space, *setup) is not None:
                path = "exact"
        for restarts in sorted({task["restarts"], *RESTARTS}):
            key = f"{name}@{restarts}"
            results[key] = {"path": path, "kazhdan_gap": timed(lambda: gap.kazhdan_gap(
                rep, k_words=task["k"], basis=basis, restarts=restarts, seed=scenario.seed))}
            if hasattr(gap, "_descent"):
                results[key]["descent"] = timed(lambda: _descent(gap, rep, task["k"], basis, restarts, scenario.seed))
            line = "  ".join(f"{kind} median {res['median_s'] * 1e3:9.2f} ms min {res['min_s'] * 1e3:9.2f} ms"
                             for kind, res in results[key].items() if kind != "path")
            print(f"{key:28s} {path:7s}  {line}", flush=True)
    print(json.dumps({"repeats": args.repeats, "src": str(args.src), "results": results,
                      "environment": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
