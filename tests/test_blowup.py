import math

import numpy as np
import pytest

import cornerwave as cw
from cornerwave import blowup
from cornerwave.blowup import ANNULI, N_THETA, _positivity_arcs, reference_grid
from cornerwave.domain import TWO_PI
from cornerwave.oracle import blowup_limit, evaluate_at_points
from cornerwave.quadrature import disk_stencils
from references import profile_field


def stokes_spec():
    return cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))


def unit_disk(grid):
    """The B_1 stencil of a reference-square grid."""
    return disk_stencils(grid, (0.0, 0.0), [1.0])[0]


def stokes_profile_field(n=513):
    spec = stokes_spec()
    prof = blowup_limit(spec)
    grid = cw.GridSpec.from_domain(spec.domain, n, n)
    return spec, prof, profile_field(prof, grid, spec.stagnation_location)


class TestRescale:
    def test_homogeneous_field_scale_invariant(self):
        spec, prof, u = stokes_profile_field()
        sp = cw.stagnation_point(spec)
        f1 = cw.rescale(u, sp, 0.4)
        f2 = cw.rescale(u, sp, 0.2)
        from cornerwave.blowup import l2_disk_distance
        assert l2_disk_distance(f1, f2, unit_disk(f1.grid)) <= 5e-3

    def test_perturbation_converges_at_linear_rate(self):
        # field = profile + same-cone mode one power higher: rescalings
        # approach the profile at rate r
        spec, prof, _ = stokes_profile_field()
        grid = cw.GridSpec.from_domain(spec.domain, 513, 513)
        X, Y = grid.mesh()
        x0, y0 = spec.stagnation_location
        rr = np.hypot(X - x0, Y - y0)
        th = np.arctan2(Y - y0, X - x0)
        dth = np.mod(th - prof.theta1, 2 * math.pi)
        mode = np.where(dth <= prof.opening,
                        np.maximum(np.cos(prof.degree * (prof.theta1 + dth)
                                          + prof.phi0), 0.0), 0.0)
        base = np.asarray(evaluate_at_points(prof, X, Y, (x0, y0)))
        u = cw.ScalarField(grid, base + prof.C0 * rr ** (prof.degree + 1) * mode)
        sp = cw.stagnation_point(spec)
        ref = reference_grid(129)
        RX, RY = ref.mesh()
        u0_ref = cw.ScalarField(ref, np.asarray(
            evaluate_at_points(prof, RX, RY, (0.0, 0.0))))
        from cornerwave.blowup import l2_disk_distance
        disk = unit_disk(ref)
        d_04 = l2_disk_distance(cw.rescale(u, sp, 0.4), u0_ref, disk)
        d_02 = l2_disk_distance(cw.rescale(u, sp, 0.2), u0_ref, disk)
        assert d_02 == pytest.approx(0.5 * d_04, rel=0.15)

    def test_radius_out_of_range(self):
        spec, _, u = stokes_profile_field(n=129)
        sp = cw.stagnation_point(spec)
        with pytest.raises(cw.RadiusOutOfRange):
            cw.rescale(u, sp, 0.6)   # B_{2r} leaves the grid


class TestHomogeneityResidual:
    def test_exact_cone_profile(self):
        # sampled exact profile on the reference square: residual is pure
        # finite differencing error
        prof = blowup_limit(stokes_spec())
        ref = reference_grid(257)
        X, Y = ref.mesh()
        u0 = cw.ScalarField(ref, np.asarray(
            evaluate_at_points(prof, X, Y, (0.0, 0.0))))
        assert cw.homogeneity_residual(u0, 1.5, unit_disk(ref)) <= 0.02

    def test_constant_field(self):
        ref = reference_grid(257)
        u = cw.ScalarField(ref, np.ones((257, 257)))
        # gradient term vanishes: residual = 1.5 * sqrt(pi)
        assert cw.homogeneity_residual(u, 1.5, unit_disk(ref)) \
            == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-3)

    def test_wrong_degree_detected(self):
        prof = blowup_limit(stokes_spec())
        ref = reference_grid(257)
        X, Y = ref.mesh()
        u0 = cw.ScalarField(ref, np.asarray(
            evaluate_at_points(prof, X, Y, (0.0, 0.0))))
        assert cw.homogeneity_residual(u0, 2.5, unit_disk(ref)) > 0.1


class TestBernstein:
    def test_zero_field_passes(self):
        spec, _, _ = stokes_profile_field(n=129)
        g = cw.GridSpec.from_domain(spec.domain, 129, 129)
        u = cw.ScalarField(g, np.zeros((129, 129)))
        sp = cw.stagnation_point(spec)
        rep = cw.check_bernstein(spec, u, sp, r0=0.4, C=1.05)
        assert rep.passed and rep.gradient_ratio == 0.0

    def test_exact_profile_attains_bound(self):
        # |grad u0|^2 / weight has supremum 1 (equality on the free
        # boundary); the discrete ratio stays within the 1.05 margin
        spec, _, u = stokes_profile_field()
        sp = cw.stagnation_point(spec)
        rep = cw.check_bernstein(spec, u, sp, r0=0.4, C=1.05)
        assert rep.passed
        assert 0.9 <= rep.gradient_ratio <= 1.05

    def test_unit_slope_cone_fails(self):
        # |grad u| = 1 everywhere but the weight vanishes at the axis
        spec, _, _ = stokes_profile_field(n=129)
        g = cw.GridSpec.from_domain(spec.domain, 257, 257)
        X, Y = g.mesh()
        u = cw.ScalarField(g, np.hypot(X + 1.0, Y))
        sp = cw.stagnation_point(spec)
        rep = cw.check_bernstein(spec, u, sp, r0=0.4, C=1.05)
        assert not rep.passed
        assert rep.gradient_ratio > 10


def scalar_positivity_arcs(values, grid, rho, center):
    """The arcs of {u > 0} on one circle, each endpoint bisected on its
    own, one scalar predicate call per step: the reference for the
    batched ``_positivity_arcs``."""
    dth = TWO_PI / N_THETA
    theta = -math.pi + dth * np.arange(N_THETA)

    def positive(t):
        t = np.asarray(t, dtype=float)
        px = center[0] + rho * np.cos(t)
        py = center[1] + rho * np.sin(t)
        out = values[grid.nearest_node(px, py)] > 0.0
        return bool(out) if np.ndim(out) == 0 else out

    mask = positive(theta)
    if not mask.any():
        return []
    if mask.all():
        return [(-math.pi, math.pi)]

    def refine(a, b):
        for _ in range(46):
            mid = 0.5 * (a + b)
            if positive(mid):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    arcs = []
    for i in [i for i in range(N_THETA) if mask[i] and not mask[i - 1]]:
        lo = refine(theta[i], theta[i] - dth)
        j = i + 1
        while mask[j % N_THETA]:
            j += 1
        hi = refine(theta[i] + (j - 1 - i) * dth, theta[i] + (j - i) * dth)
        arcs.append((lo, hi))
    return arcs


def two_cones(n=257):
    ref = reference_grid(n)
    X, Y = ref.mesh()
    th = np.arctan2(Y, X)
    vals = ((np.abs(th + math.pi / 2) < 0.3)
            | (np.abs(th - math.pi / 2) < 0.3)).astype(float)
    return cw.ScalarField(ref, vals)


def direction_cases():
    """(field, center, radius): the Stokes cone, two cones, a cone that
    wraps across theta = pi, the full ball and the empty set."""
    spec, _, u = stokes_profile_field()
    ref = reference_grid(129)
    X, Y = ref.mesh()
    wrapped = (np.abs(np.arctan2(Y, X)) > 2.5).astype(float)
    return [(u, spec.stagnation_location, 0.45),
            (two_cones(), (0.0, 0.0), 1.0),
            (cw.ScalarField(ref, wrapped), (0.0, 0.0), 1.0),
            (cw.ScalarField(ref, np.ones((129, 129))), (0.0, 0.0), 1.0),
            (cw.ScalarField(ref, np.zeros((129, 129))), (0.0, 0.0), 1.0)]


class TestPositivityArcs:
    def test_equal_to_scalar_reference(self):
        for u, center, radius in direction_cases():
            rhos = ANNULI * radius
            batch = _positivity_arcs(u.values, u.grid, rhos, center)
            assert batch == [scalar_positivity_arcs(u.values, u.grid, float(rho), center)
                             for rho in rhos]

    def test_predicate_calls_do_not_grow_with_endpoints(self, monkeypatch):
        # a structural guard: sampling is one call and the bisection of all
        # endpoints together 46 more, against 46 per endpoint one by one
        calls = []
        positive = blowup._positive

        def counting(*args):
            calls.append(1)
            return positive(*args)

        monkeypatch.setattr(blowup, "_positive", counting)
        for u, center, radius in direction_cases()[:3]:
            calls.clear()
            cw.estimate_asymptotic_directions(u, center=center, radius=radius)
            assert len(calls) <= len(ANNULI) + 2 * 46


class TestDirections:
    def test_exact_stokes_cone(self):
        spec, _, u = stokes_profile_field()
        sp = cw.stagnation_point(spec)
        est = cw.estimate_asymptotic_directions(u, center=sp.location, radius=0.45)
        assert est.theta1 == pytest.approx(-5 * math.pi / 6, abs=0.02)
        assert est.theta2 == pytest.approx(-math.pi / 6, abs=0.02)
        assert est.opening == pytest.approx(2 * math.pi / 3, abs=0.04)
        assert not est.disconnected

    def test_subcase_22_bisector_along_x(self):
        spec = cw.ProblemSpec(2.0, 0.0, cw.Type2(y0=1.0, theta0=0.0),
                              cw.Rect(-1.0, 0.0, 1.0, 2.0))
        prof = blowup_limit(spec)
        grid = cw.GridSpec.from_domain(spec.domain, 513, 513)
        u = profile_field(prof, grid, spec.stagnation_location)
        sp = cw.stagnation_point(spec)
        est = cw.estimate_asymptotic_directions(u, center=sp.location, radius=0.45)
        assert est.opening == pytest.approx(math.pi / 2, abs=0.04)
        mid = 0.5 * (est.theta1 + est.theta2)
        assert mid == pytest.approx(0.0, abs=0.02)

    def test_full_ball_positive(self):
        ref = reference_grid(129)
        u = cw.ScalarField(ref, np.ones((129, 129)))
        est = cw.estimate_asymptotic_directions(u, (0.0, 0.0), 1.0)
        assert not est.disconnected
        assert est.opening == pytest.approx(2 * math.pi, abs=1e-9)

    def test_empty_positivity(self):
        ref = reference_grid(129)
        u = cw.ScalarField(ref, np.zeros((129, 129)))
        with pytest.raises(cw.EmptyPositivity):
            cw.estimate_asymptotic_directions(u, (0.0, 0.0), 1.0)

    def test_two_cones_reported_disconnected(self):
        est = cw.estimate_asymptotic_directions(two_cones(), (0.0, 0.0), 1.0)
        assert est.disconnected


class TestClassify:
    def setup_method(self):
        self.corner = math.sqrt(3.0) / 3.0
        self.full = 2.0 / 3.0

    def test_corner_verdict(self):
        rep = cw.classify(0.577, self.corner, self.full)
        assert rep.verdict == "corner"
        assert rep.theoretical_note == ""
        assert rep.distance_to_corner_density <= min(rep.distance_to_zero,
                                                     rep.distance_to_full_density)

    def test_cusp_verdict_carries_note(self):
        rep = cw.classify(0.0, self.corner, self.full)
        assert rep.verdict == "cusp"
        assert "excluded" in rep.theoretical_note

    def test_flat_verdict_carries_note(self):
        rep = cw.classify(0.667, self.corner, self.full)
        assert rep.verdict == "flat"
        assert "excluded" in rep.theoretical_note


class TestBlowupAnalysis:
    def test_result_shape_on_exact_profile(self):
        spec, prof, u = stokes_profile_field()
        sp = cw.stagnation_point(spec)
        br = cw.blowup_analysis(spec, u, sp, [0.4, 0.3, 0.2])
        assert len(br.rescaled_fields) == 3
        assert len(br.successive_distance) == 2
        assert br.density_estimate == pytest.approx(math.sqrt(3) / 3, abs=1e-2)
        est = br.direction_report
        assert est is not None
        assert est.theta2 - est.theta1 == pytest.approx(2 * math.pi / 3, abs=0.04)
        assert br.homogeneity_residual <= 0.05

    def test_empty_schedule_refused(self):
        # the schedule's own error, not an IndexError from the analysis
        spec, _, u = stokes_profile_field(129)
        sp = cw.stagnation_point(spec)
        with pytest.raises(ValueError, match="nonempty list"):
            blowup.check_schedule([], u.grid, sp.location)
        with pytest.raises(ValueError, match="nonempty list"):
            cw.blowup_analysis(spec, u, sp, [])

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_radius_refused(self, flag):
        # True would pass as the radius 1.0, a schedule this grid admits
        grid = cw.GridSpec.from_domain(cw.Rect(-3.0, -3.0, 3.0, 3.0), 65, 65)
        assert blowup.check_schedule([1.0, 0.5], grid, (0.0, 0.0)) \
            == [1.0, 0.5]
        with pytest.raises(ValueError, match="must be numbers"):
            blowup.check_schedule([flag, 0.5], grid, (0.0, 0.0))
