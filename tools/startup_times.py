"""Time ``lplab run <scenario>`` from process start, with its peak RSS and the SciPy parts it loads.

    python3 tools/startup_times.py [--src DIR]

Each measurement starts a fresh interpreter with BLAS pinned to one thread,
imports ``lplab.cli`` and calls ``main(["run", <scenario>])``, as the
``lplab`` console script does, and is timed from before the process is
started until it has exited.  The scenarios are ``swap-cocycle-cobound``,
``swap-decompose``, ``swap-gap``, ``cyclic3-gap``,
``commuting-pair-displacement`` and ``swap-cocycle-fm`` (a ``scipy.optimize``
user); a bare ``import lplab.cli`` is timed as well.  Each is repeated
``REPEATS`` times and the best and median wall times are printed, with
the median peak resident set size each process reported for itself
(``ru_maxrss``) and the ``scipy.*`` submodules the last run had loaded at
exit (private ``scipy._*`` modules left out).  ``--src`` picks the source directory to import ``lplab`` from
(default: the ``src/`` of the checkout that holds this script), so running
it on two checkouts compares them.  The BLAS setting and the environment
record are the benchmark harness's (``bench/run.py``).  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import BLAS_ENV, _environment  # noqa: E402

REPEATS = 5
SCENARIOS = ("swap-cocycle-cobound", "swap-decompose", "swap-gap", "cyclic3-gap", "commuting-pair-displacement",
             "swap-cocycle-fm")

# argv[1] is the scenario, or "" for the import alone; the last line printed lists the scipy modules
_PROBE = """
import json, resource, sys
import lplab.cli
code = 0
if sys.argv[1]:
    code = lplab.cli.main(["run", sys.argv[1]])
parts = sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.") and not m.startswith("scipy._")})
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
print(json.dumps({"code": code, "scipy": parts, "peak_rss_mb": peak_kb / 1024}))
"""


def time_fresh(scenario: str, src: Path) -> dict:
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(src))
    walls, rss = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROBE, scenario], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, check=True)
        walls.append(time.perf_counter() - t0)
        last = json.loads(proc.stdout.splitlines()[-1])
        rss.append(last["peak_rss_mb"])
    return {"best_s": min(walls), "median_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
            "exit_code": last["code"], "scipy_loaded": last["scipy"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if not (args.src / "lplab" / "cli.py").is_file():
        sys.stderr.write(f"no lplab sources under {args.src}\n")
        return 2

    results = {}
    for label, scenario in [("import lplab.cli", "")] + [(f"run {s}", s) for s in SCENARIOS]:
        res = results[label] = time_fresh(scenario, args.src)
        loaded = ", ".join(res["scipy_loaded"]) or "none"
        print(f"{label:28s} best {res['best_s']:.3f} s  median {res['median_s']:.3f} s  "
              f"peak RSS {res['peak_rss_mb']:.1f} MB  exit {res['exit_code']}  scipy: {loaded}")
    print(json.dumps({"repeats": REPEATS, "results": results, "environment": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
