"""lplab benchmark harness.

    python3 bench/run.py --workload corpus|sweep|scale --seed N --seconds S --trace 0|1

Runs whole passes of the workload's operation list through
``lplab.cli.main`` in this process, one operation at a time, until the next
pass would end after ``--seconds``.  Every report is checked by the
independent oracle in ``oracle.py``.  Set-up time is the median over fresh
interpreters of the time until the first task can be issued.  With
``--trace 1`` the layers are wrapped by ``spans.py`` and the per-layer
figures are reported instead of the end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts; set
# before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60

PER_LAYER_TIMED = ("gap", "representation", "groups", "cocycle", "convex", "geometry", "induction",
                   "scenario", "tasks", "reports", "lamperti")
PER_LAYER_CALLS = ("gap", "representation", "groups", "cocycle", "convex", "induction")


def _import_cli() -> float:
    t0 = time.perf_counter()
    import lplab.cli  # noqa: F401

    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> int:
    """Fresh-interpreter set-up: import the CLI, then load or generate the inputs."""
    import_s = _import_cli()
    import workloads

    workloads.build(workload, seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its own start time
    sys.stdout.write(json.dumps({"import_s": import_s, "ready": time.monotonic()}) + "\n")
    return 0


def measure_setup(workload: str, seed: int, samples: int):
    """(seconds from process start until ready, in-child import seconds) per fresh interpreter."""
    ready, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout)
        ready.append(probe["ready"] - start)
        imports.append(probe["import_s"])
    return ready, imports


def run_op(cli_main, oracle, op):
    """Run one CLI call; returns (seconds, reports, failed reports, problems)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(op["argv"])
    except Exception as exc:  # a crash fails every report of the operation
        dt = time.perf_counter() - t0
        n = len(op["raws"])
        return dt, n, n, [f"{op['name']}: {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    reports = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
    n = len(op["raws"])
    if len(reports) != n:
        return dt, n, n, [f"{op['name']}: {len(reports)} reports for {n} scenarios; stderr {err.getvalue()!r}"]
    problems, failed = [], 0
    worst = 0
    for raw, report in zip(op["raws"], reports):
        found = oracle.check(raw, report, op["expect"])
        worst = max(worst, oracle.EXIT_CODES.get(report.get("status"), 2))
        if found:
            failed += 1
            problems += [f"{report.get('scenario')}: {msg}" for msg in found]
    if code != worst:
        failed = n
        problems.append(f"{op['name']}: exit code {code} but the worst status maps to {worst}")
    return dt, n, failed, problems


def run_passes(cli_main, oracle, ops, seconds: float, after_pass=None):
    times = {op["name"]: [] for op in ops}
    attempted = failed = 0
    unexpected = []
    pass_busy = []  # seconds inside cli.main per pass
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        busy = 0.0
        for op in ops:
            dt, n, bad, problems = run_op(cli_main, oracle, op)
            times[op["name"]].append(dt)
            busy += dt
            attempted += n
            failed += bad
            if problems and not (op["known_fault"] and _is_known_fault(problems)):
                unexpected += problems
        pass_busy.append(busy)
        if after_pass is not None:
            after_pass()
        last = time.perf_counter() - t_pass
        if len(pass_busy) >= 2 and time.perf_counter() - start + last > seconds:
            break
    return {"passes": len(pass_busy), "times": times, "attempted": attempted,
            "failed": failed, "unexpected": unexpected, "pass_busy": pass_busy}


def _is_known_fault(problems) -> bool:
    return all("pass report with failing check residual_classifies_coboundary" in p for p in problems)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_env": BLAS_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lplab" / "cli.py").is_file():
        sys.stderr.write(f"lplab sources not found under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads

    ops = workloads.build(args.workload, args.seed)
    setup_ready, setup_import = measure_setup(args.workload, args.seed, SETUP_SAMPLES)
    import_s = _import_cli()
    import oracle
    from lplab import cli

    tracer = after_pass = None
    snapshots = [{}]
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        after_pass = lambda: snapshots.append(tracer.counts())  # noqa: E731
    # look cli.main up on every call, so that the traced wrapper installed above is the one run
    res = run_passes(lambda a: cli.main(a), oracle, ops, args.seconds, after_pass)

    passes = res["passes"]
    medians = [statistics.median(t) for t in res["times"].values()]
    tasks_per_s = (res["attempted"] - res["failed"]) / passes / sum(medians)
    geomean = math.exp(statistics.fmean(math.log(m) for m in medians))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": passes,
        "operations_per_pass": len(ops), "tasks_per_s": tasks_per_s, "task_geomean_s": geomean,
        "in_process_import_s": import_s, "setup_ready_s": setup_ready, "setup_import_s": setup_import,
        "task_median_s": {k: statistics.median(v) for k, v in sorted(res["times"].items())},
        "pass_busy_s": res["pass_busy"], "environment": _environment(), "unexpected_failures": res["unexpected"][:20],
    }
    sys.stderr.write(json.dumps(summary, indent=1) + "\n")

    if tracer is None:
        metrics = {
            "tasks_per_s": (tasks_per_s, "1/s"),
            "task_geomean_s": (geomean, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_ready), "s"),
        }
    else:
        layers = tracer.layer_totals()
        metrics = {}
        for layer in PER_LAYER_TIMED:
            metrics[f"{layer}.self_s"] = (layers[layer][1] / passes, "s")
            if layer in PER_LAYER_CALLS:
                metrics[f"{layer}.calls"] = (layers[layer][0] / passes, "count")
        metrics["convex.scipy_calls"] = (tracer.scipy_calls["convex"] / passes, "count")
        metrics["convex.scipy_nfev"] = (tracer.scipy_nfev["convex"] / passes, "count")
        metrics["geometry.scipy_nfev"] = (tracer.scipy_nfev["geometry"] / passes, "count")
        metrics["spaces.norm_calls"] = (tracer.norm_calls / passes, "count")
        metrics["cli.import_s"] = (statistics.median(setup_import), "s")
        out_dir = workloads.OUT_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json", passes)
        per_pass = [{k: v - prev.get(k, 0) for k, v in cur.items()} for prev, cur in zip(snapshots, snapshots[1:])]
        sys.stderr.write(f"counts repeat in every pass: {all(c == per_pass[0] for c in per_pass)}\n")

    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
