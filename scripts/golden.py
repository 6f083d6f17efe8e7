#!/usr/bin/env python3
"""The golden manifest of the test suite's five solved cases, the session
fixtures of ``tests/conftest.py``, and the NumPy version it was made with.
Per fixture it holds the solve: the sha256 of the field's bytes, the flow
sweeps, whether the flow converged, the winning candidate and the
energies of all nine candidates as ``repr`` floats.  It also holds the
analysis of that field: the sha256 of the Weiss columns and of the
frequency columns on ``profile_radii``, the ``stagnation_density`` and
the opening of ``estimate_asymptotic_directions`` at 0.9 delta, the
numbers as ``repr`` floats.  ``tests/test_golden.py`` checks the suite's
fixtures against the checked-in ``tests/golden.json``.

Usage: python scripts/golden.py [--write]

Without ``--write`` it prints every entry of the checked-in manifest that
the solves of this checkout do not reproduce, and exits 1 if there is
one; with ``--write`` it writes the manifest of this checkout to
``tests/golden.json``.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"


def _sha256(columns) -> str:
    return hashlib.sha256(np.array(columns).tobytes()).hexdigest()


def record(case) -> dict:
    """The manifest entry of one solved case, a ``SolvedCase`` of
    ``tests/conftest.py``: its ``SolveResult`` and the analysis of its
    field about its stagnation point."""
    # imported here, where the caller has put this checkout's src on the path
    from cornerwave import blowup as bw
    from cornerwave.frequency import frequency_profile
    from cornerwave.weiss import radial_sweep, weiss_profile
    result, u, sp = case.result, case.result.field, case.sp
    winner = result.winner
    sweep = radial_sweep(case.spec, u, sp, bw.profile_radii(sp))
    wp, fp = weiss_profile(sweep), frequency_profile(sweep)
    directions = bw.estimate_asymptotic_directions(
        u, sp.location, bw.DIRECTION_FRACTION * sp.delta)
    return {
        "field_sha256": hashlib.sha256(u.values.tobytes()).hexdigest(),
        "sweeps": result.iterations,
        "converged": result.converged,
        "winner": f"{winner.source}@{winner.trim:g}",
        "energies": [repr(c.energy) for c in result.candidates],
        "weiss_sha256": _sha256([wp.M, wp.dM_numeric, wp.remainder,
                                 wp.remainder_integral, wp.J1]),
        "frequency_sha256": _sha256([fp.D, fp.V1, fp.V2, fp.V, fp.H]),
        "density": repr(bw.stagnation_density(case.spec, u, sp)),
        "opening": repr(directions.opening),
    }


def manifest(cases: dict) -> dict:
    """The manifest of the ``SolvedCase`` of each fixture name."""
    return {"numpy": np.__version__,
            "fixtures": {name: record(c) for name, c in cases.items()}}


def render(golden: dict) -> str:
    """The text of ``tests/golden.json``."""
    return json.dumps(golden, indent=2) + "\n"


def moved(old: dict, new: dict) -> list[str]:
    """One line per entry of ``old`` that ``new`` does not reproduce."""
    lines = []
    if old["numpy"] != new["numpy"]:
        lines.append(f"numpy: {old['numpy']} -> {new['numpy']}")
    for name, entries in old["fixtures"].items():
        for key, value in entries.items():
            got = new["fixtures"][name][key]
            if key == "energies":
                lines += [f"{name}.energies[{i}]: {a} -> {b}"
                          for i, (a, b) in enumerate(zip(value, got))
                          if a != b]
            elif got != value:
                lines.append(f"{name}.{key}: {value} -> {got}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true",
                        help="write tests/golden.json")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import CASES   # this checkout's cornerwave and fixtures
    golden = manifest({name: solve() for name, solve in CASES.items()})
    if args.write:
        GOLDEN.write_text(render(golden))
        return 0
    lines = moved(json.loads(GOLDEN.read_text()), golden)
    print("\n".join(lines) or "every entry reproduced")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
