"""Command-line front end.

    lplab run <scenario.json> [--seed N] [--tol T] [--budget B] [--out DIR] [--format json|csv|both]
    lplab sweep <scenario.json> --p 1.5,2,3,4 [same flags]
    lplab list-scenarios

Exit codes: 0 = pass/not-applicable, 1 = fail, 2 = refused or invalid input.
The environment variable LPLAB_SEED overrides the scenario seed; the --seed
flag overrides both.  --tol and --budget each replace a task field (task.tol;
the command's budget field, see README), which holds the file's value or else
the command's default.  Reports are deterministic for a fixed (scenario, seed):
identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources
from pathlib import Path

from .reports import report_csv_rows, sweep_csv
from .scenario import ScenarioError, _integer, load_scenario
from .tasks import execute, sweep

__all__ = ["main", "bundled_scenarios", "bundled_scenario_path"]


def bundled_scenarios():
    """Names of the scenario files shipped with the package."""
    root = resources.files("lplab") / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    path = resources.files("lplab") / "scenarios" / name
    return Path(str(path))


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    candidate = bundled_scenario_path(arg)
    if candidate.exists():
        return candidate
    raise ScenarioError("$", f"scenario file not found: {arg}")


def _effective_seed(args) -> int | None:
    """The --seed flag, else LPLAB_SEED, else None; either must be an integer >= 0."""
    if args.seed is not None:
        return _integer(args.seed, "--seed", 0)
    env = os.environ.get("LPLAB_SEED")
    return None if env is None else _integer(int(env) if env.isdigit() else env, "LPLAB_SEED", 0)


def _emit(args, name: str, json_text: str, csv_text: str | None):
    fmt = args.format
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if fmt in ("json", "both"):
            (out / f"{name}.json").write_text(json_text)
        if fmt in ("csv", "both") and csv_text is not None:
            (out / f"{name}.csv").write_text(csv_text)
    if fmt in ("json", "both"):
        sys.stdout.write(json_text)
    if fmt in ("csv", "both") and csv_text is not None:
        sys.stdout.write(csv_text)


def _cmd_run(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    report = execute(scenario, seed=_effective_seed(args), tol=args.tol, budget=args.budget)
    _emit(args, f"{scenario.name}.{scenario.task['command']}", report.to_json(), report_csv_rows(report))
    return report.exit_code


def _cmd_sweep(args) -> int:
    scenario = load_scenario(_resolve_scenario(args.scenario))
    try:
        p_values = [float(tok) for tok in args.p.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError("--p", f"expected comma-separated numbers, got {args.p!r}") from exc
    cells = sweep(scenario, p_values, seed=_effective_seed(args), tol=args.tol, budget=args.budget)
    json_text = "".join(report.to_json() for _, report, _ in cells)
    csv_text = sweep_csv(cells)
    _emit(args, f"{scenario.name}.sweep", json_text, csv_text)
    worst = 0
    for _, report, _ in cells:
        worst = max(worst, report.exit_code)
    return worst


def _cmd_list(_args) -> int:
    for name in bundled_scenarios():
        sys.stdout.write(name + "\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="lplab", description="lp isometric-action laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("scenario", help="scenario file path or bundled scenario name")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sp.add_argument("--tol", type=float, default=None, help="override the task tolerance")
        sp.add_argument("--budget", type=int, default=None, help="replace the command's budget field (see README)")
        sp.add_argument("--out", default=None, help="directory to write report files")
        sp.add_argument("--format", choices=("json", "csv", "both"), default="json")

    run_p = sub.add_parser("run", help="run one scenario")
    add_common(run_p)
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="re-run a scenario over a list of exponents")
    add_common(sweep_p)
    sweep_p.add_argument("--p", required=True, help="comma-separated exponents, e.g. 1.5,2,3,4")
    sweep_p.set_defaults(fn=_cmd_sweep)

    list_p = sub.add_parser("list-scenarios", help="list bundled scenarios")
    list_p.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
