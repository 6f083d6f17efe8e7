"""The five session solves against the checked-in golden manifest
``tests/golden.json``: a change that moves a field bit, a sweep count, the
winner or a candidate energy fails here, and so does one that moves a bit
of the Weiss or frequency columns, the density or the opening of a
solved field.  ``scripts/golden.py --write``
rewrites the manifest, and a change that does so names every moved entry
in CHANGES.md."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import CASES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"


@pytest.fixture(scope="module")
def golden_script():
    spec = importlib.util.spec_from_file_location(
        "golden_script", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cases(request):
    return {name: request.getfixturevalue(name) for name in CASES}


def test_fixtures_match_the_manifest(golden_script, cases):
    golden = json.loads(GOLDEN.read_text())
    assert golden["numpy"] == np.__version__, (
        f"tests/golden.json was made with NumPy {golden['numpy']}, this is "
        f"NumPy {np.__version__}: rewrite it with scripts/golden.py --write "
        f"on an unchanged tree")
    assert list(golden["fixtures"]) == list(CASES)
    for name, case in cases.items():
        assert golden_script.record(case) == golden["fixtures"][name], name


def test_manifest_is_the_script_output(golden_script, cases):
    assert GOLDEN.read_text() == golden_script.render(
        golden_script.manifest(cases))
