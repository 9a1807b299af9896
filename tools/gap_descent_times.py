"""Time ``kazhdan_gap`` and its search, stage by stage, on the gap inputs of the benchmark.

    python3 tools/gap_descent_times.py [--src DIR] [--repeats N]

The inputs are the three generated ``scale`` gap scenarios of
``bench/workloads.py`` for seed 1 (imported, not modified; the scenario
files go to a temporary directory) and the five bundled gap scenarios.  Each
is run at its own restart count and at 64 and 1024 restarts, with its own
word set and seed, as ``lplab run`` calls it; the complement basis is
computed once beforehand and passed in, so only the estimate is timed.

Each case is timed as ``kazhdan_gap`` as a whole and as its search on its
own (``gap._setup`` and ``gap._descent``, also where ``kazhdan_gap`` returns
an exact witness).  Where the checkout splits the search into a 60-step
lockstep seeding (``gap._lockstep(space, ops, start, restarts, seed)``,
which returns the best restart's point and ratio) and a BFGS polish of
that point (``gap._polish``), the two stages are timed apart as well, and
the polish is run once more with ``convex._bfgs`` wrapped, to print for
each of its BFGS stages how many evaluations it took and why it stopped:

- ``gradient``: no gradient entry above the tolerance;
- ``halvings``: 20 halvings of a step found no lower value;
- ``rounding``: the last step lowered the value by no more than rounding;
- ``cap``: 500 steps (printed as ``cap?`` when rounding cannot be told apart).

The reason is read off the evaluations that stage made: the point BFGS
returns is the last one it accepted, so 20 evaluations after it mean the
line search failed.  The line of each case names the path ``kazhdan_gap``
took: ``exact`` where it returned an exact witness, ``search`` where it
searched.  Each timing is repeated ``--repeats`` times (default 7, at least
5) and its median and minimum wall times are printed, with the reported
upper bounds so that two runs can be checked to have computed the same
thing.  BLAS is pinned to one thread, as in ``bench/run.py``.  ``--src``
picks the source directory to import ``lplab`` from (default: the ``src/``
of the checkout that holds this script); a checkout without
``gap._descent`` is timed through ``kazhdan_gap`` alone, and one whose
``_lockstep`` still takes an iteration count is timed without its stages.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import inspect  # noqa: E402
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
_HALVINGS = 20  # convex._bfgs's backtracking halvings before a line search gives up
_STEP_CAP = 500  # and its step cap


def _raws() -> list:
    """(name, raw scenario) for the scale gap inputs, then the bundled gap scenarios."""
    import workloads
    from lplab.cli import bundled_scenario_path

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads._build_scale(np.random.default_rng(SCALE_SEED), Path(tmp))
    out = [(op["name"], op["raws"][0]) for op in ops if op["raws"][0]["task"]["command"] == "gap"]
    return out + [(name, json.loads(bundled_scenario_path(name).read_text())) for name in BUNDLED]


def _stop_reason(evals, y, gtol) -> str:
    """Why a ``convex._bfgs`` run that evaluated the points ``evals`` = [(x, grad)] stopped at ``y``."""
    last = max(i for i, (x, _) in enumerate(evals) if np.array_equal(x, y))
    if len(evals) - 1 - last == _HALVINGS:
        return "halvings"
    if np.max(np.abs(evals[last][1])) <= gtol:
        return "gradient"
    return "rounding" if len(evals) <= _STEP_CAP else "cap?"


def _ratio(gap, space, ops, c) -> float:
    """The ratio ``gap._descent`` evaluates at the polished point ``c``, normalised as it does."""
    return gap._evaluate(ops, space.weights, space.p, c[None] / gap._l2_norms(c[None])[:, None])[2].tolist()[0]


def _polish_stages(gap, convex, space, ops, c, val) -> list:
    """Run ``gap._polish`` once with ``convex._bfgs`` wrapped: (evaluations, stop reason) per BFGS stage."""
    bfgs, stages = convex._bfgs, []

    def recording(f_grad, y, gtol, reach, norm):
        evals = []

        def counted(x):
            f, g = f_grad(x)
            evals.append((x.copy(), g))
            return f, g

        y = bfgs(counted, y, gtol, reach, norm)
        stages.append((len(evals), _stop_reason(evals, y, gtol)))
        return y

    convex._bfgs = recording
    try:
        gap._polish(space, ops, c, val)
    finally:
        convex._bfgs = bfgs
    return stages


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
    from lplab import convex, gap
    from lplab.groups import k_words_of
    from lplab.representation import canonical_complement
    from lplab.scenario import parse_scenario
    from run import _environment

    def timed(run, upper=lambda out: out.upper):
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            out = run()
            walls.append(time.perf_counter() - t0)
        return {"median_s": statistics.median(walls), "min_s": min(walls), "upper": upper(out)}

    staged = hasattr(gap, "_lockstep") and "iters" not in inspect.signature(gap._lockstep).parameters
    results = {}
    for name, raw in _raws():
        scenario = parse_scenario(raw)
        rep, task = scenario.representation, scenario.task
        basis = canonical_complement(rep).complement_basis
        path, setup = "search", None
        if hasattr(gap, "_descent"):
            setup = gap._setup(rep, k_words_of(rep.group, task["k"]), np.ascontiguousarray(basis))
            if setup[-1] is not None and gap._exact(rep.space, *setup) is not None:
                path = "exact"
        ops, start = (None, None) if setup is None else (setup[0], setup[-1])
        for restarts in sorted({task["restarts"], *RESTARTS}):
            key = f"{name}@{restarts}"
            res = results[key] = {"path": path, "kazhdan_gap": timed(lambda: gap.kazhdan_gap(
                rep, k_words=task["k"], basis=basis, restarts=restarts, seed=scenario.seed))}
            if setup is not None:
                res["search"] = timed(lambda: gap._descent(rep.space, ops, start, restarts, scenario.seed))
            if staged:
                c, val = gap._lockstep(rep.space, ops, start, restarts, scenario.seed)
                res["seeding"] = timed(lambda: gap._lockstep(rep.space, ops, start, restarts, scenario.seed),
                                       upper=lambda out: out[1])
                res["polish"] = timed(lambda: gap._polish(rep.space, ops, c, val),
                                      upper=lambda out: _ratio(gap, rep.space, ops, out))
                res["polish"]["stages"] = _polish_stages(gap, convex, rep.space, ops, c, val)
            line = "  ".join(f"{kind} {out['median_s'] * 1e3:7.2f}/{out['min_s'] * 1e3:7.2f} ms"
                             for kind, out in res.items() if kind != "path")
            stages = " ".join(f"{n}:{why}" for n, why in res.get("polish", {}).get("stages", []))
            print(f"{key:26s} {path:6s}  {line}  {stages}", flush=True)
    print(json.dumps({"repeats": args.repeats, "src": str(args.src), "results": results,
                      "environment": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
