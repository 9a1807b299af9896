"""Per-layer spans around lplab's public functions, installed from the benchmark.

A layer is one module of the package.  ``Tracer.install`` replaces every
public function of each layer, every function another module imports from
it (``from .x import f`` binds a second name, which is replaced too), and the
public methods and constructors of its classes with a wrapper that opens a
span.  A span's self time is its duration minus the durations of the spans
it opened.  ``LpSpace.norm`` is counted, not timed: it is called hundreds of
thousands of times per pass and a span around it would distort its callers.
``scipy.optimize.minimize`` and ``linprog`` are counted, with their ``nfev``,
against the innermost open span.

Spans are aggregated in memory per function and written out once, at the end
of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "scenario", "tasks", "reports", "gap", "representation", "groups",
    "cocycle", "convex", "geometry", "induction", "lamperti",
)
_METHOD_DUNDERS = ("__init__", "__call__", "__matmul__")


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [layer, seconds spent in child spans]
        self.functions = defaultdict(lambda: [0, 0.0, 0.0])  # qualname -> calls, total_s, self_s
        self.layer_of = {}
        self.scipy_calls = defaultdict(int)
        self.scipy_nfev = defaultdict(int)
        self.norm_calls = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, qualname: str, fn):
        stack, record = self._stack, self.functions[qualname]
        self.layer_of[qualname] = layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record[0] += 1
                record[1] += dt
                record[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return traced

    def _scipy(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            layer = self._stack[-1][0] if self._stack else "outside"
            self.scipy_calls[layer] += 1
            self.scipy_nfev[layer] += int(res.get("nfev", 0))
            return res

        return counted

    def _counted_norm(self, fn):
        @functools.wraps(fn)
        def norm(*args, **kwargs):
            self.norm_calls += 1
            return fn(*args, **kwargs)

        return norm

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers of the already imported package in place."""
        import scipy.optimize

        for name in ("minimize", "linprog"):
            setattr(scipy.optimize, name, self._scipy(getattr(scipy.optimize, name)))
        spaces = importlib.import_module("lplab.spaces")
        spaces.LpSpace.norm = self._counted_norm(spaces.LpSpace.norm)

        modules = [importlib.import_module(f"lplab.{layer}") for layer in LAYERS]
        namespaces = modules + [sys.modules["lplab"]]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_") or _bound_elsewhere(obj, mod, namespaces)):
                    wrapped = self._span(layer, f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and (not attr.startswith("_") or attr in _METHOD_DUNDERS):
                            setattr(obj, attr, self._span(layer, f"{layer}.{name}.{attr}", val))

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        """Every counter by name: calls per function, SciPy calls and nfev per layer, norm calls."""
        out = {f"calls:{q}": rec[0] for q, rec in self.functions.items()}
        out.update({f"scipy_calls:{k}": v for k, v in self.scipy_calls.items()})
        out.update({f"scipy_nfev:{k}": v for k, v in self.scipy_nfev.items()})
        out["norm_calls"] = self.norm_calls
        return out

    def layer_totals(self):
        """layer -> (calls, self seconds)."""
        out = defaultdict(lambda: [0, 0.0])
        for qualname, (calls, _, self_s) in self.functions.items():
            row = out[self.layer_of[qualname]]
            row[0] += calls
            row[1] += self_s
        return out

    def dump(self, path, passes: int):
        doc = {
            "passes": passes,
            "functions": {
                q: {"calls": c, "total_s": t, "self_s": s}
                for q, (c, t, s) in sorted(self.functions.items()) if c
            },
            "scipy_calls": dict(self.scipy_calls),
            "scipy_nfev": dict(self.scipy_nfev),
            "norm_calls": self.norm_calls,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _bound_elsewhere(obj, home, namespaces) -> bool:
    return any(ns is not home and any(v is obj for v in vars(ns).values()) for ns in namespaces)
