"""Start-up: the CLI imports no SciPy, and a command loads only the SciPy parts it calls.

Each test runs in a fresh interpreter, so that no other test's imports are in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lplab

# prints the exit code (or null) and the sorted scipy modules loaded by the end of the snippet
_PROBE = """
import contextlib, io, json, sys
import lplab.cli
code = None
if {argv!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = lplab.cli.main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _fresh(argv):
    """(exit code, scipy modules) after importing the CLI and running ``argv`` in a new interpreter."""
    src = str(Path(lplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PROBE.format(argv=argv)], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert _fresh([]) == [None, []]


def test_cobound_run_loads_no_scipy():
    assert _fresh(["run", "swap-cocycle-cobound"]) == [0, []]


def test_decompose_run_loads_linalg_but_not_optimize_or_stats():
    code, loaded = _fresh(["run", "swap-decompose"])
    assert code == 0
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded and "scipy.stats" not in loaded
