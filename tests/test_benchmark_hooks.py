"""The benchmark in ``cornerbench/`` times the program by rebinding the
functions named in ``cornerbench/tracing.py::TARGETS`` at call time.  A
target it cannot find is reported as absent and its span stays empty, so
these tests make a rename of a traced function, or of a call shape the
tracer reads, fail here instead."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cornerwave as cw
from cornerwave.oracle import blowup_limit, evaluate_at_points

TRACING = Path(__file__).resolve().parent.parent / "cornerbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("cornerbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclass looks itself up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    for module_name, attr, span in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: no {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), span
    # the two switches the tracer reads to size a solve's sweeps
    fields = {f.name for f in dataclasses.fields(cw.SolverParams)}
    assert {"enforce_support", "bernstein_trim"} <= fields


def test_traced_solve_fills_the_solver_spans(tracing):
    # nine energy evaluations and eight 60-sweep relaxations, each a direct
    # child of the solve's span, and the solve's own record of its sweeps
    spec = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                          cw.Rect(-2.0, -1.0, 0.0, 1.0))
    grid = cw.GridSpec.from_domain(spec.domain, 33, 33)
    X, Y = grid.mesh()
    bd = np.asarray(evaluate_at_points(blowup_limit(spec), X, Y,
                                       spec.stagnation_location))
    pipeline = importlib.import_module("cornerwave.pipeline")
    with tracing.Tracer() as tracer:
        result = pipeline.minimize_energy(spec, grid, bd, cw.SolverParams())
    assert tracer.absent == {}
    spans = tracer.take()
    solves = [i for i, s in enumerate(spans)
              if s.name == "energy.minimize_energy"]
    assert len(solves) == 1
    children = [s.name for s in spans if s.parent == solves[0]]
    assert children.count("energy.harmonic_extension") == 1
    assert children.count("energy.energy_eval") == 9
    assert children.count("energy.sharpen") == 8
    metrics = tracing.layer_metrics(spans)
    assert metrics["energy.energy_evals"] == 9
    assert metrics["energy.sharpen_sweeps"] == 8 * 60
    assert metrics["energy.sweeps"] == result.iterations
    assert metrics["energy.converged"] == 1.0


def test_traced_stencils_are_every_stencil(tracing):
    # every disk stencil is built by its record's constructor, the target
    # of the quadrature span, so the count is one per radius
    quadrature = importlib.import_module("cornerwave.quadrature")
    grid = cw.GridSpec(nx=65, ny=65, origin=(-1.0, -1.0), spacing=2.0 / 64)
    radii = [0.1, 0.2, 0.3, 0.45]
    with tracing.Tracer() as tracer:
        disks = quadrature.disk_stencils(grid, (0.0, 0.0), radii)
    assert tracer.absent == {}
    metrics = tracing.layer_metrics(tracer.take())
    assert metrics["quadrature.disk_stencils"] == len(disks) == len(radii)
