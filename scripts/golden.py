#!/usr/bin/env python3
"""The golden manifest of the test suite's five solved cases, the session
fixtures of ``tests/conftest.py``: per fixture the sha256 of the field's
bytes, the flow sweeps, whether the flow converged, the winning candidate
and the energies of all nine candidates as ``repr`` floats, and the NumPy
version the manifest was made with.  ``tests/test_golden.py`` checks the
suite's fixtures against the checked-in ``tests/golden.json``.

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


def record(result) -> dict:
    """The manifest entry of one ``SolveResult``."""
    winner = result.winner
    return {
        "field_sha256": hashlib.sha256(
            result.field.values.tobytes()).hexdigest(),
        "sweeps": result.iterations,
        "converged": result.converged,
        "winner": f"{winner.source}@{winner.trim:g}",
        "energies": [repr(c.energy) for c in result.candidates],
    }


def manifest(results: dict) -> dict:
    """The manifest of the ``SolveResult`` of each fixture name."""
    return {"numpy": np.__version__,
            "fixtures": {name: record(r) for name, r in results.items()}}


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
    golden = manifest({name: solve().result for name, solve in CASES.items()})
    if args.write:
        GOLDEN.write_text(render(golden))
        return 0
    lines = moved(json.loads(GOLDEN.read_text()), golden)
    print("\n".join(lines) or "every entry reproduced")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
