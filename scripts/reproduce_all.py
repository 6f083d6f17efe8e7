#!/usr/bin/env python3
"""Run every bundled experiment config and print a one-line summary each:
wall time, verdict, solver sweeps, convergence, final energy and winning
candidate ("-" for a config that does not solve), the opening error
(measured opening against pi/degree, from ``blowup.json``) and the
density error (distance to the corner density of the run's own cone over
that density, from ``classification.json``; "-" for a report the run did
not write), the number of files written and a sha256 digest of the
config's output directory, then the total wall time of all configs and
the peak resident set size of the process (``ru_maxrss``, in KiB as
Linux reports it).  The digest covers
the name and bytes of every file in that directory, in name order, so two
runs into fresh directories wrote the same artifacts exactly when their
digests agree.

Usage: python scripts/reproduce_all.py [--out DIR]

Exits 1 when a config run with the ``run`` verb is not classified as a
corner, or when a solve stops at its sweep budget before the flow
settled (``converged=False``); 0 otherwise.
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))   # this checkout's cornerwave

from cornerwave.cli import STAGES  # noqa: E402
from cornerwave.pipeline import load_config, run  # noqa: E402

# (config, CLI verb whose stages it runs)
CONFIGS = [
    ("table1.yaml", "table1"),
    ("stokes.yaml", "run"),
    ("corner_beta2.yaml", "run"),
    ("corner_alpha2.yaml", "run"),
    ("corner_type3.yaml", "run"),
    ("corner_type3_x.yaml", "run"),
    ("blowup_convergence.yaml", "run"),
]


def digest(directory: Path) -> str:
    """sha256 over the name and bytes of each file in ``directory``, in
    name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def errors(cfg, manifest: dict) -> tuple[str, str]:
    """The run's opening error in degrees and its relative density error,
    as printed; "-" for a report the run did not write or an opening it
    did not measure."""
    outdir = Path(cfg.outputs.directory)
    outputs = manifest["outputs"]
    opening = density = "-"
    if "blowup" in outputs:
        measured = json.loads((outdir / outputs["blowup"]).read_text())["opening"]
        if measured is not None:
            err = math.degrees(abs(measured - math.pi / cfg.problem.degree))
            opening = f"{err:.3f}deg"
    if "classification" in outputs:
        report = json.loads((outdir / outputs["classification"]).read_text())
        err = report["distance_to_corner_density"] / report["best_corner_density"]
        density = f"{err:.3%}"
    return opening, density


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out", help="output root directory")
    args = parser.parse_args()
    status = 0
    total = 0.0
    for name, verb in CONFIGS:
        cfg = load_config(ROOT / "configs" / name)
        cfg.outputs.directory = str(Path(args.out) / Path(cfg.outputs.directory).name)
        t0 = time.monotonic()
        manifest = run(cfg, stages=STAGES[verb])
        dt = time.monotonic() - t0
        total += dt
        verdict = manifest.get("classification", "-")
        solver = manifest.get("solver", {})
        opening_err, density_err = errors(cfg, manifest)
        print(f"{name:28s} {dt:7.1f}s  verdict={verdict}  "
              f"sweeps={solver.get('iterations', '-')}  "
              f"converged={solver.get('converged', '-')}  "
              f"final_energy={solver.get('final_energy', '-')}  "
              f"winner={solver.get('winner', '-')}  "
              f"opening_err={opening_err}  density_err={density_err}  "
              f"files={len(manifest['outputs'])}  "
              f"sha256={digest(Path(cfg.outputs.directory))}")
        if (verb == "run" and verdict != "corner") \
                or solver.get("converged") is False:
            status = 1
    print(f"total={total:.1f}s  "
          f"maxrss={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}KiB")
    return status


if __name__ == "__main__":
    sys.exit(main())
