"""Start-up: the CLI imports no SciPy, and a command loads only the SciPy parts it calls.

Each test runs in a fresh interpreter, so that no other test's imports are in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_decompose_run_loads_no_scipy():
    assert _fresh(["run", "swap-decompose"]) == [0, []]


def test_gap_run_on_a_one_dimensional_complement_loads_no_scipy():
    assert _fresh(["run", "swap-gap"]) == [0, []]


def test_superrigid_run_loads_no_scipy():
    assert _fresh(["run", "superrigid-diagonal-s3"]) == [0, []]


def test_low_dimensional_gap_run_loads_no_scipy():
    # complement dimension 2: the descent is seeded from the sphere sweep
    assert _fresh(["run", "cyclic3-gap"]) == [0, []]


def test_displacement_run_loads_no_scipy():
    assert _fresh(["run", "commuting-pair-displacement"]) == [0, []]


def test_library_names_no_scipy_stats():
    root = Path(lplab.__file__).resolve().parent
    sources = sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    assert any(p.suffix == ".py" for p in sources)
    for path in sources:
        text = path.read_text()
        assert "scipy.stats" not in text and "qmc" not in text, path.name


def _cyclic_table_scenario(n, task):
    """Z/n by its table, acting on l_3^n by the unsigned shift: Fix is the constants, B' has dimension n - 1."""
    return {
        "name": f"cyclic{n}-{task['command']}",
        "space": {"dim": n, "p": 3.0, "weights": [1.0 + i / n for i in range(n)]},
        "group": {"kind": "table", "table": [[(i + j) % n for j in range(n)] for i in range(n)], "identity": 0,
                  "generators": {"a": 1}},
        "representation": {"images": {"a": {"kind": "lamperti", "perm": [(i - 1) % n for i in range(n)],
                                             "signs": [1.0] * n}}},
        "task": task,
    }


@pytest.mark.parametrize("task", [{"command": "decompose"}, {"command": "gap", "restarts": 4}],
                         ids=["decompose", "gap"])
def test_cyclic_table_run_on_a_large_complement_loads_no_scipy(tmp_path, task):
    # complement dimension 7: the gap takes random restarts and no low-dimensional sphere sweep
    path = tmp_path / "cyclic8.json"
    path.write_text(json.dumps(_cyclic_table_scenario(8, task)))
    assert _fresh(["run", str(path)]) == [0, []]
