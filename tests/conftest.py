"""Shared fixtures: the heavyweight solver runs are executed once per
session and reused by the module tests and the acceptance suite.
``CASES`` names each solve, so ``scripts/golden.py`` can run them outside
pytest."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import cornerwave as cw
from cornerwave.oracle import blowup_limit, evaluate_at_points


@dataclass
class SolvedCase:
    spec: cw.ProblemSpec
    profile: object
    grid: cw.GridSpec
    boundary: np.ndarray
    result: object
    sp: cw.StagnationPoint
    wall_time: float


def _solve_case(spec, n, params=None):
    profile = blowup_limit(spec)
    grid = cw.GridSpec.from_domain(spec.domain, n, n)
    X, Y = grid.mesh()
    bd = np.asarray(evaluate_at_points(profile, X, Y, spec.stagnation_location))
    t0 = time.monotonic()
    result = cw.minimize_energy(spec, grid, bd, params or cw.SolverParams())
    wall = time.monotonic() - t0
    return SolvedCase(spec=spec, profile=profile, grid=grid, boundary=bd,
                      result=result, sp=cw.stagnation_point(spec), wall_time=wall)


def stokes():
    """Gravity-type corner: alpha=0, beta=1, subcase 1.1, 257^2 grid."""
    spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
    return _solve_case(spec, 257)


def beta2():
    """90-degree corner in y: alpha=0, beta=2, subcase 1.1."""
    spec = cw.ProblemSpec(alpha=0.0, beta=2.0, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
    return _solve_case(spec, 257)


def alpha2():
    """90-degree corner in x: alpha=2, beta=0, subcase 2.2."""
    spec = cw.ProblemSpec(alpha=2.0, beta=0.0, stag=cw.Type2(y0=1.0, theta0=0.0),
                          domain=cw.Rect(-1.0, 0.0, 1.0, 2.0))
    return _solve_case(spec, 257)


def type3():
    """72-degree doubly degenerate corner: alpha=2, beta=1, the cone about
    the downward axis (``Type3``'s default theta_star)."""
    spec = cw.ProblemSpec(alpha=2.0, beta=1.0, stag=cw.Type3(),
                          domain=cw.Rect(-1.0, -1.0, 1.0, 1.0))
    return _solve_case(spec, 257)


def blowup():
    """Blow-up convergence run: alpha=1 makes the weight vary across the
    window, so the minimizer carries genuinely decaying inhomogeneity."""
    spec = cw.ProblemSpec(alpha=1.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
    return _solve_case(spec, 385)


# each session fixture by name, and the solve it runs once
CASES = {"stokes_case": stokes, "beta2_case": beta2, "alpha2_case": alpha2,
         "type3_case": type3, "blowup_case": blowup}


@pytest.fixture(scope="session")
def stokes_case():
    return stokes()


@pytest.fixture(scope="session")
def beta2_case():
    return beta2()


@pytest.fixture(scope="session")
def alpha2_case():
    return alpha2()


@pytest.fixture(scope="session")
def type3_case():
    return type3()


@pytest.fixture(scope="session")
def blowup_case():
    return blowup()
