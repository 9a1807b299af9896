"""Print a SHA-256 digest of every report the bundled corpus and the scale workload produce.

    python3 tools/report_digest.py

Runs ``lplab.cli.main`` in this process, with BLAS pinned to one thread:
``run`` on every bundled scenario, ``sweep`` on the five gap scenarios over
p = 1.25, 1.5, 2, 3, 4, 6, ``sweep`` on ``modulus-p2``, the two
Fisher--Margulis and two fixpoint scenarios, ``commuting-pair-displacement``
and ``mautner-matrix`` over p = 1.5, 3, 4, ``run`` on the benchmark's
generated ``scale`` scenarios for seeds 1 and 2, and ``sweep`` on the
induction and splitting scenarios (``induce-sign-z4``, the two
``superrigid`` scenarios and ``grid-z2xz2-split``) over p = 1.5, 3, 4,
and last ``run`` on the matrix twins of ``swap-decompose``, ``mazur-z4``,
``cyclic3-gap`` and ``dihedral4-gap``: the scenario, name included, with
every image written as the ``matrix`` entries of its generator matrix
(110 reports).  Prints one
``name sha256 sha256`` line per report, where the name is ``run/<scenario>``,
``sweep/<scenario>@p=<p>``, ``scale/<seed>/<scenario>`` or
``twin/<scenario>``; a twin's line equals its ``run`` line when a monomial
isometric ``matrix`` image is read as the Lamperti image it is.  The first digest
is of the whole report line, the second of the report without its
``provenance`` object, so a change that moves only the recorded seed or
tolerances keeps the second column.  The package is imported from the ``src/``
directory of the checkout that holds this script, and the scale scenarios
come from its ``bench/workloads.py`` (imported, not modified; the scenario
files go to a temporary directory), so running it in two checkouts and
diffing the outputs shows whether a change keeps every report byte-identical.
"""

from __future__ import annotations

import os

# set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave no __pycache__ behind in bench/

import workloads  # noqa: E402
from lplab.cli import bundled_scenario_path, bundled_scenarios, main  # noqa: E402
from lplab.scenario import parse_scenario  # noqa: E402

SWEEPS = (  # (scenarios, exponents)
    (("swap-gap", "cyclic3-gap", "cyclic5-gap", "dihedral4-gap", "grid-z2xz2-gap"), "1.25,1.5,2,3,4,6"),
    (("modulus-p2", "swap-cocycle-fm"), "1.5,3,4"),
    (("translation-fixpoint", "swap-cocycle-fixpoint", "translation-fm", "commuting-pair-displacement",
      "mautner-matrix"), "1.5,3,4"),
)
SCALE_SEEDS = (1, 2)
# swept after the scale reports, so that the earlier lines keep their order
INDUCTION_SWEEP = (("induce-sign-z4", "superrigid-diagonal-s3", "superrigid-overlap-d3", "grid-z2xz2-split"),
                   "1.5,3,4")
# run last with every image written as its matrix entries
TWINS = ("swap-decompose", "mazur-z4", "cyclic3-gap", "dihedral4-gap")


def _reports(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue().splitlines()


def _digest(line: str) -> str:
    """The digest of the report line, then of the report without its provenance."""
    doc = json.loads(line)
    doc.pop("provenance", None)
    bare = json.dumps(doc, sort_keys=True)
    return f"{hashlib.sha256(line.encode()).hexdigest()} {hashlib.sha256(bare.encode()).hexdigest()}"


def _sweeps(names, exponents):
    for name in names:
        for line in _reports(["sweep", name, "--p", exponents]):
            yield f"sweep/{json.loads(line)['scenario']}", _digest(line)


def _twin(name: str, directory: Path) -> Path:
    """The bundled scenario ``name`` with each image replaced by its generator matrix, as a file."""
    raw = json.loads(bundled_scenario_path(name).read_text())
    rep = parse_scenario(raw).representation
    raw["representation"]["images"] = {
        gen: {"kind": "matrix", "entries": rep.operator(gen).tolist()} for gen in rep.generator_names
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


def digests():
    """(name, digests) for every report, in a fixed order."""
    for file_name in bundled_scenarios():
        name = file_name[: -len(".json")]
        for line in _reports(["run", name]):
            yield f"run/{name}", _digest(line)
    for names, exponents in SWEEPS:
        yield from _sweeps(names, exponents)
    for seed in SCALE_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            # the same generator that ``workloads.build("scale", seed)`` seeds
            for op in workloads._build_scale(np.random.default_rng(seed), Path(tmp)):
                for line in _reports(op["argv"]):
                    yield f"scale/{seed}/{op['name']}", _digest(line)
    yield from _sweeps(*INDUCTION_SWEEP)
    with tempfile.TemporaryDirectory() as tmp:
        for name in TWINS:
            for line in _reports(["run", str(_twin(name, Path(tmp)))]):
                yield f"twin/{name}", _digest(line)


if __name__ == "__main__":
    for name, digest in digests():
        print(name, digest, flush=True)
