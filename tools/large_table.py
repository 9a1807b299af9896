"""Time the parse and the run of one large cyclic table scenario, and the peak RSS of the process doing them.

    python3 tools/large_table.py [--n 1024] [--repeats 3]

Writes a signed shift of Z/n on weighted l_3^n (the table group Z/n, one
``lamperti`` image, weights uniform in [0.5, 2], an even number of -1 signs;
the ``cyclic`` kind of the benchmark's ``scale`` workload at n = m) to a
temporary directory, with a ``decompose`` task and a ``cobound`` task whose
cocycle is the coboundary of a standard normal vector; and an ``induce`` task
from the index-2 subgroup 2Z/n, whose generator s = 2 acts by the same kind
of signed shift on weighted l_3^(n/2), with such a coboundary cocycle (the
induced space is l_3^n).  Each (task, repeat)
runs in a fresh interpreter, with BLAS pinned to one thread, which reports
the seconds of ``load_scenario`` (parse, group, representation and cocycle
validation), of ``execute``, the report's status and its own peak RSS
(``ru_maxrss``).  Prints one JSON object: per task the runs and their medians.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def scenario(n: int, task: str, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    dim = n // 2 if task == "induce" else n
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    if np.prod(signs) < 0:  # rho^dim = prod(signs) * I must be the identity
        signs[0] = -signs[0]
    weights = rng.uniform(0.5, 2.0, dim)
    shift = [(i - 1) % dim for i in range(dim)]  # output i pulls from input i-1
    name = "s" if task == "induce" else "a"
    raw = {
        "name": f"cyclic{n}-{task}",
        "space": {"dim": dim, "p": 3.0, "weights": weights.tolist()},
        "group": {"kind": "table", "table": ((np.arange(n)[:, None] + np.arange(n)) % n).tolist(), "identity": 0,
                  "generators": {"a": 1}},
        "representation": {"images": {name: {"kind": "lamperti", "perm": shift, "signs": signs.tolist()}}},
        "task": {"command": task},
    }
    if task == "induce":
        raw["task"].update({"subgroup": list(range(0, n, 2)), "subgroup_generators": {"s": 2}})
    if task in ("cobound", "induce"):
        v = rng.standard_normal(dim)
        # rho v: coordinate i is signs_i (w_{i-1} / w_i)^(1/p) v_{i-1}
        image = signs * (weights[shift] / weights) ** (1.0 / 3.0) * v[shift]
        raw["cocycle"] = {"values": {name: (v - image).tolist()}}
    return raw


def child(path: str) -> int:
    sys.path.insert(0, str(SRC))
    from lplab.scenario import load_scenario
    from lplab.tasks import execute

    t0 = time.perf_counter()
    parsed = load_scenario(path)
    t1 = time.perf_counter()
    report = execute(parsed)
    t2 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"parse_s": t1 - t0, "run_s": t2 - t1, "status": report.status, "peak_rss_mb": rss_mb}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    env = {**os.environ, **BLAS_ENV}
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for task in ("decompose", "cobound", "induce"):
            path = Path(tmp) / f"{task}.json"
            path.write_text(json.dumps(scenario(args.n, task)))
            runs = []
            for _ in range(args.repeats):
                proc = subprocess.run([sys.executable, __file__, "--child", str(path)], env=env, check=True,
                                      stdout=subprocess.PIPE, text=True)
                runs.append(json.loads(proc.stdout))
            result[task] = {"runs": runs, **{f"median_{key}": statistics.median(run[key] for run in runs)
                                             for key in ("parse_s", "run_s", "peak_rss_mb")}}
    print(json.dumps({"n": args.n, "m": args.n, **result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
