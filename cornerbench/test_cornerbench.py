"""Tests of the benchmark itself: seed handling, span bookkeeping, pass
checks, and the weight-scale invariance the seeds rely on.

    python3 -m pytest -q cornerbench
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_seed_zero_keeps_the_checked_in_weight():
    assert workloads.weight_scale(0) == 1.0


def test_weight_scale_is_a_function_of_the_seed():
    scales = [workloads.weight_scale(s) for s in range(1, 50)]
    assert scales == [workloads.weight_scale(s) for s in range(1, 50)]
    assert all(0.5 <= c <= 2.0 for c in scales)
    assert len(set(scales)) == len(scales)


def test_self_time_subtracts_direct_children_only():
    spans = [tracing.Span("a.outer", -1, 0.0, 10.0),
             tracing.Span("b.inner", 0, 1.0, 4.0),
             tracing.Span("b.leaf", 1, 2.0, 3.0),
             tracing.Span("a.other", 0, 5.0, 6.0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_tracer_records_nesting_and_restores(fake_layer):
    originals = (fake_layer.inner, fake_layer.outer)
    tracer = tracing.Tracer((("fake_layer", "outer", "fake.outer"),
                             ("fake_layer", "inner", "fake.inner"),
                             ("fake_layer", "gone", "fake.gone")))
    with tracer:
        assert fake_layer.outer(1) == 4
    assert (fake_layer.inner, fake_layer.outer) == originals
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("fake.outer", -1), ("fake.inner", 0)]
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end
    assert list(tracer.absent) == ["fake.gone"]


def _fake_outputs(tmp_path, verdict="corner", opening=math.pi / 2, keys=("blowup", "classification")):
    outputs = {}
    if "blowup" in keys:
        (tmp_path / "blowup.json").write_text(json.dumps({"opening": opening}))
        outputs["blowup"] = "blowup.json"
    if "classification" in keys:
        (tmp_path / "classification.json").write_text(json.dumps(
            {"distance_to_corner_density": 0.1, "best_corner_density": 1.0}))
        outputs["classification"] = "classification.json"
    cfg = SimpleNamespace(outputs=SimpleNamespace(directory=str(tmp_path)),
                          problem=SimpleNamespace(degree=2.0))
    return cfg, {"outputs": outputs, "classification": verdict}


JOB = workloads.Job("fake", Path("fake.yaml"), ("blowup", "classification"))


def test_check_accepts_a_good_job(tmp_path):
    check = workloads.check_job(JOB, *_fake_outputs(tmp_path), c=1.0)
    assert check.problems == []
    assert check.values == {"opening_err_deg": 0.0, "density_rel_err": 0.1}


@pytest.mark.parametrize("kwargs, problem", [
    ({"verdict": "flat"}, "verdict 'flat'"),
    ({"keys": ("classification",)}, "artifact blowup missing"),
    ({"opening": float("nan")}, "non-finite"),
    ({"opening": None}, "no opening"),
])
def test_check_flags_a_bad_job(tmp_path, kwargs, problem):
    check = workloads.check_job(JOB, *_fake_outputs(tmp_path, **kwargs), c=1.0)
    assert any(problem in p for p in check.problems), check.problems


def test_type3_work_and_answer_do_not_depend_on_the_weight_scale(tmp_path):
    """The seed's weight scale c leaves sweeps, convergence, opening,
    verdict and energy / c unchanged; the traced counts match the solver's."""
    checks = {}
    for c in (0.7, 1.0, 2.0):
        job = workloads.setup("type3", tmp_path / str(c), c)
        if c == 1.0:
            with tracing.Tracer() as tracer:
                cfg, manifest = workloads.run_job(job)
            layers = tracing.layer_metrics(tracer.take())
            assert tracer.absent == {}
        else:
            cfg, manifest = workloads.run_job(job)
        check = workloads.check_job(job, cfg, manifest, c)
        assert check.problems == []
        checks[c] = check.values
    ref = checks[1.0]
    assert ref["sweeps"] == 560 and ref["converged"] == 1.0
    for values in checks.values():
        assert values["sweeps"] == ref["sweeps"]
        assert values["converged"] == ref["converged"]
        assert values["opening_err_deg"] == ref["opening_err_deg"]
        for key in ("final_energy", "density_rel_err"):
            assert values[key] == pytest.approx(ref[key], rel=1e-12)
    assert layers["energy.sweeps"] == ref["sweeps"]
    assert layers["energy.sharpen_sweeps"] == 8 * 60
    assert layers["energy.energy_evals"] == 1 + ref["sweeps"] / 10 + 8
    assert 0 < layers["energy.sweep_s"] < layers["energy.minimize_energy_s"]


def test_benchmark_json_matches_the_harness():
    import run
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_METRICS


def test_a_pass_fails_when_it_raises_or_its_artifacts_change():
    import run
    digests = iter(["same", "same", "changed"])

    def run_job(job):
        if job is None:
            raise RuntimeError("solver blew up")
        return None, {}

    fake = SimpleNamespace(run_job=run_job, check_job=lambda job, cfg, manifest, c:
                           workloads.JobCheck({"x": 1.0}, [], next(digests)))
    passes = run.Passes(fake, SimpleNamespace(name="j"), 1.0)
    assert passes.run()["x"] == 1.0
    assert passes.run() is not None
    assert passes.run() is None and "differ from the first pass" in passes.failures[-1]
    passes.job = None
    assert passes.run() is None and "solver blew up" in passes.failures[-1]
    assert passes.attempted == 4 and len(passes.failures) == 2
