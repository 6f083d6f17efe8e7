"""Metamorphic checks that bind the nine subcases together.

Two maps of the plane carry one admissible problem onto another:

    x-mirror  (x, y) -> (-x, y):   1.1 <-> 1.4, 1.2 <-> 1.3, 2.1 <-> 2.3,
                                   2.2 <-> 2.4, type 3 with theta* -> pi - theta*;
    x<->y swap (x, y) -> (y, x):   Type1(x0, up/down) with (alpha, beta) <->
                                   Type2(y0 = x0, right/left) with (beta, alpha),
                                   type 3 with theta* -> pi/2 - theta*.

Every weight-derived quantity has to travel with the point, so a sign slip
in any one subcase breaks a relation to another.  Only subcases 1.1, 2.2
and 3 are solved elsewhere; the solve-level checks at the end tie the
solver itself to the maps and to the weight scaling u -> sqrt(c) u.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import cornerwave as cw
from cornerwave.domain import (value_envelope_monomial, weight_gradient_at,
                               wrap_angle)
from cornerwave.energy import support_mask
from cornerwave.oracle import (angular_weight, blowup_limit,
                               corner_density, corner_pairs,
                               evaluate_at_points, full_ball_density)

DOWN, UP, RIGHT, LEFT = 3 * math.pi / 2, math.pi / 2, 0.0, math.pi
MAG = 0.75  # |x0| = |y0| != 1, so the frozen non-degenerate factor shows
BIG = cw.Rect(-4.0, -4.0, 4.0, 4.0)

STAGS = {
    "1.1": cw.Type1(x0=-MAG, theta0=DOWN),
    "1.2": cw.Type1(x0=MAG, theta0=UP),
    "1.3": cw.Type1(x0=-MAG, theta0=UP),
    "1.4": cw.Type1(x0=MAG, theta0=DOWN),
    "2.1": cw.Type2(y0=-MAG, theta0=LEFT),
    "2.2": cw.Type2(y0=MAG, theta0=RIGHT),
    "2.3": cw.Type2(y0=-MAG, theta0=RIGHT),
    "2.4": cw.Type2(y0=MAG, theta0=LEFT),
    "3": cw.Type3(),
}
MIRROR_LABEL = {"1.1": "1.4", "1.2": "1.3", "1.3": "1.2", "1.4": "1.1",
                "2.1": "2.3", "2.2": "2.4", "2.3": "2.1", "2.4": "2.2",
                "3": "3"}
SWAP_LABEL = {"1.1": "2.1", "1.2": "2.2", "1.3": "2.3", "1.4": "2.4",
              "2.1": "1.1", "2.2": "1.2", "2.3": "1.3", "2.4": "1.4",
              "3": "3"}
EXPONENTS = [(1.0, 1.0), (2.0, 1.0), (1.5, 2.5)]
C = 1.7

CASES = [pytest.param(label, a, b, id=f"{label}-{a:g}-{b:g}")
         for label in STAGS for a, b in EXPONENTS]


def make(label, alpha, beta):
    return cw.ProblemSpec(alpha, beta, STAGS[label], BIG, weight_constant=C)


def mirrored(spec):
    s = spec.stag
    if isinstance(s, cw.Type1):
        stag = cw.Type1(x0=-s.x0, theta0=s.theta0)
    elif isinstance(s, cw.Type2):
        stag = cw.Type2(y0=s.y0, theta0=math.pi - s.theta0)
    else:
        stag = cw.Type3(theta_star=math.pi - s.theta_star)
    d = spec.domain
    return cw.ProblemSpec(spec.alpha, spec.beta, stag,
                          cw.Rect(-d.x_max, d.y_min, -d.x_min, d.y_max),
                          weight_constant=spec.weight_constant)


def swapped(spec):
    s = spec.stag
    if isinstance(s, cw.Type1):
        stag = cw.Type2(y0=s.x0, theta0=RIGHT if s.theta0 == UP else LEFT)
    elif isinstance(s, cw.Type2):
        stag = cw.Type1(x0=s.y0, theta0=UP if s.theta0 == RIGHT else DOWN)
    else:
        stag = cw.Type3(theta_star=math.pi / 2 - s.theta_star)
    d = spec.domain
    return cw.ProblemSpec(spec.beta, spec.alpha, stag,
                          cw.Rect(d.y_min, d.x_min, d.y_max, d.x_max),
                          weight_constant=spec.weight_constant)


# Each map as (spec map, point map, angle map, field map, which gradient
# component lands where and with which sign).
MAPS = {
    "mirror": (mirrored, lambda x, y: (-x, y), lambda t: math.pi - t,
               lambda v: v[:, ::-1],
               lambda gx, gy: (-gx, gy)),
    "swap": (swapped, lambda x, y: (y, x), lambda t: math.pi / 2 - t,
             lambda v: v.T,
             lambda gx, gy: (gy, gx)),
}
LABEL_MAPS = {"mirror": MIRROR_LABEL, "swap": SWAP_LABEL}

XS = np.linspace(-3.0, 3.0, 25)  # step 0.25: the maps act exactly
X, Y = np.meshgrid(XS, XS)


def close(a, b, rel=1e-12, abs_=1e-14):
    np.testing.assert_allclose(a, b, rtol=rel, atol=abs_)


def same_angle(a, b, tol=1e-12):
    assert abs(wrap_angle(a - b)) <= tol, (a, b)


@pytest.mark.parametrize("kind", ["mirror", "swap"])
@pytest.mark.parametrize("label,alpha,beta", CASES)
class TestSubcaseMaps:
    def test_label(self, kind, label, alpha, beta):
        spec = make(label, alpha, beta)
        assert spec.model.subcase == label
        assert MAPS[kind][0](spec).model.subcase == LABEL_MAPS[kind][label]

    def test_weight_gradient_envelope(self, kind, label, alpha, beta):
        spec_map, point_map, _, _, grad_map = MAPS[kind]
        spec = make(label, alpha, beta)
        image = spec_map(spec)
        Xi, Yi = point_map(X, Y)
        close(cw.weight_at(image, Xi, Yi), cw.weight_at(spec, X, Y))
        gx, gy = weight_gradient_at(spec, X, Y)
        gxi, gyi = weight_gradient_at(image, Xi, Yi)
        close(np.stack([gxi, gyi]), np.stack(grad_map(gx, gy)))
        close(value_envelope_monomial(image, Xi, Yi),
              value_envelope_monomial(spec, X, Y))

    def test_kappa_and_densities(self, kind, label, alpha, beta):
        spec = make(label, alpha, beta)
        image = MAPS[kind][0](spec)
        assert image.kappa == spec.kappa
        assert full_ball_density(image) == pytest.approx(
            full_ball_density(spec), rel=1e-10)

    def test_angular_weight(self, kind, label, alpha, beta):
        spec_map, _, angle_map, _, _ = MAPS[kind]
        spec = make(label, alpha, beta)
        image = spec_map(spec)
        th = np.linspace(-math.pi, math.pi, 73)
        close(angular_weight(image, angle_map(th)), angular_weight(spec, th),
              rel=1e-12, abs_=1e-12)

    def test_blowup_edges_and_density(self, kind, label, alpha, beta):
        spec_map, _, angle_map, _, _ = MAPS[kind]
        spec = make(label, alpha, beta)
        # a type-3 point on the cone about each corner pair, whose image
        # cone the map carries with theta*
        specs = [spec] if not isinstance(spec.stag, cw.Type3) else [
            replace(spec, stag=cw.Type3(theta_star=(p.theta1 + p.theta2) / 2))
            for p in corner_pairs(alpha, beta)]
        for s in specs:
            image = spec_map(s)
            prof, img = blowup_limit(s), blowup_limit(image)
            assert img.degree == prof.degree
            assert img.C0 == pytest.approx(prof.C0, rel=1e-12)
            assert img.prefactor == pytest.approx(prof.prefactor, rel=1e-14)
            # the map reverses orientation: the image cone runs from the
            # image of theta2 to the image of theta1
            same_angle(img.theta1, angle_map(prof.theta2))
            same_angle(img.theta2, angle_map(prof.theta1))
            assert corner_density(image, img.theta1, img.theta2) == pytest.approx(
                corner_density(s, prof.theta1, prof.theta2), rel=1e-10)

    def test_fields_on_mapped_grids(self, kind, label, alpha, beta):
        spec_map, point_map, _, field_map, _ = MAPS[kind]
        spec = make(label, alpha, beta)
        image = spec_map(spec)
        grid = cw.GridSpec.from_domain(BIG, 129, 129)  # h = 1/16, symmetric
        Xg, Yg = grid.mesh()
        # a generic nonnegative field with an irregular positivity set
        vals = np.maximum(np.sin(3 * Xg + 1.0) * np.cos(2 * Yg - 0.5)
                          + 0.4 * Xg - 0.3 * Yg + 0.2, 0.0)
        u = cw.ScalarField(grid, vals)
        ui = cw.ScalarField(grid, np.ascontiguousarray(field_map(vals)))
        sp = cw.stagnation_point(spec)
        spi = cw.stagnation_point(image)
        assert spi.location == point_map(*sp.location)
        np.testing.assert_array_equal(
            field_map(support_mask(spec, grid)), support_mask(image, grid))
        for r in (0.2, 0.35):
            assert cw.radial_sweep(image, ui, spi, [r]).remainder[0] \
                == pytest.approx(cw.radial_sweep(spec, u, sp, [r]).remainder[0],
                                 rel=1e-10, abs=1e-14)
            assert cw.limit_density(image, ui, spi, r) \
                == pytest.approx(cw.limit_density(spec, u, sp, r),
                                 rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# Solve level: the projected SOR solver commutes with the maps and with the
# weight scaling to rounding (not bitwise: the sweeps add neighbours in a
# fixed order, which a map permutes).

N = 129
STOKES_11 = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0, theta0=DOWN),
                           cw.Rect(-2.0, -1.0, 0.0, 1.0))


def solve(spec):
    grid = cw.GridSpec.from_domain(spec.domain, N, N)
    Xg, Yg = grid.mesh()
    bd = np.asarray(evaluate_at_points(blowup_limit(spec), Xg, Yg,
                                       spec.stagnation_location))
    return cw.minimize_energy(spec, grid, bd, cw.SolverParams())


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def stokes_11():
    return solve(STOKES_11)


class TestSolveSymmetry:
    def test_mirror_11_to_14(self, stokes_11):
        image = mirrored(STOKES_11)
        assert image.model.subcase == "1.4"
        res = solve(image)
        assert res.iterations == stokes_11.iterations
        assert rel_diff(res.field.values,
                        stokes_11.field.values[:, ::-1]) <= 1e-12

    def test_swap_11_to_21(self, stokes_11):
        image = swapped(STOKES_11)
        assert image.model.subcase == "2.1"
        assert (image.alpha, image.beta) == (1.0, 0.0)
        res = solve(image)
        assert res.iterations == stokes_11.iterations
        assert rel_diff(res.field.values, stokes_11.field.values.T) <= 1e-12

    def test_weight_scaling(self, stokes_11):
        c = 2.9
        scaled = cw.ProblemSpec(0.0, 1.0, STOKES_11.stag, STOKES_11.domain,
                                weight_constant=c)
        res = solve(scaled)
        assert res.iterations == stokes_11.iterations
        assert rel_diff(res.field.values,
                        math.sqrt(c) * stokes_11.field.values) <= 1e-12
