"""Structured reports with deterministic serialization.

Reports serialize to JSON with sorted keys and every float rendered at 17
significant digits (shortest round-trip within that budget is not used; the
format is fixed so that identical runs produce byte-identical files).
Non-finite values appear as the strings "inf", "-inf", "nan".  The CSV form
flattens numeric payload entries to (scenario, task, status, key, value)
rows.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import __version__

__all__ = ["Checked", "Report", "check", "format_float", "report_csv_rows", "status_of", "sweep_csv"]


_KINDS = {"le": operator.le, "ge": operator.ge, "gt": operator.gt, "eq": operator.eq}


def check(name: str, value, bound, kind: str = "le") -> dict:
    """Explicit inequality record ``value <kind> bound``: every pass/fail claim carries one."""
    value, bound = float(value), float(bound)
    return {"name": name, "value": value, "bound": bound, "kind": kind, "ok": _KINDS[kind](value, bound)}


def status_of(checks, applicable: bool = True) -> str:
    """The status rule.

    "not-applicable" when a hypothesis failed; otherwise "pass" exactly when
    every check holds, and "fail" when some check does not.
    """
    if not applicable:
        return "not-applicable"
    return "pass" if all(c["ok"] for c in checks) else "fail"


class Checked:
    """Mixin for results that hold ``checks`` and, if a hypothesis can fail, ``applicable``."""

    @property
    def status(self) -> str:
        return status_of(self.checks, getattr(self, "applicable", True))


def format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _serialize(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_serialize(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(eq=False)
class Report:
    scenario: str
    task: str
    status: str  # "pass" | "fail" | "refused" | "not-applicable"
    payload: dict
    seed: int
    tolerances: dict
    budget: dict | None = None  # the task field the --budget flag replaced and its value, if the flag was given

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "task": self.task,
            "status": self.status,
            "payload": self.payload,
            "provenance": {
                "seed": self.seed,
                "tolerances": self.tolerances,
                "version": __version__,
            },
        }
        if self.budget:
            doc["provenance"]["budget"] = self.budget
        return _serialize(doc) + "\n"

    @property
    def exit_code(self) -> int:
        if self.status in ("pass", "not-applicable"):
            return 0
        if self.status == "fail":
            return 1
        return 2


def _flatten(prefix: str, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        arr = np.asarray(obj)
        if arr.size <= 16 and arr.dtype.kind in "fiu":
            for i, v in enumerate(arr.ravel()):
                out.append((f"{prefix}[{i}]", v))
    elif isinstance(obj, str):
        if "\n" not in obj and "," not in obj:
            out.append((prefix, obj))
    elif isinstance(obj, (int, float, np.integer, np.floating, bool, np.bool_)):
        out.append((prefix, obj))


def report_csv_rows(report: Report) -> str:
    """CSV form of a single report: scenario,task,status,key,value rows."""
    rows = ["scenario,task,status,key,value"]
    flat = []
    _flatten("", report.payload, flat)
    for key, value in flat:
        if isinstance(value, (float, np.floating)):
            sval = format_float(float(value)).strip('"')
        else:
            sval = str(value)
        rows.append(f"{report.scenario},{report.task},{report.status},{key},{sval}")
    return "\n".join(rows) + "\n"


def sweep_csv(cells) -> str:
    """Aggregate CSV for a p-sweep.

    Columns are fixed: p, status, gap_upper (the task's primary scalar for
    non-gap tasks), witness_norm, runtime_s.  The runtime column is wall
    clock and is excluded from the byte-determinism guarantee.
    """
    rows = ["p,status,gap_upper,witness_norm,runtime_s"]
    for p, report, runtime in cells:
        payload = report.payload
        primary = payload.get("gap_upper", payload.get("primary", ""))
        witness = payload.get("witness_norm", "")
        pf = format_float(float(primary)).strip('"') if primary != "" else ""
        wf = format_float(float(witness)).strip('"') if witness != "" else ""
        rows.append(f"{p:.17g},{report.status},{pf},{wf},{runtime:.3f}")
    return "\n".join(rows) + "\n"
