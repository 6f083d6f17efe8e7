import math
from dataclasses import astuple

import numpy as np
import pytest

import cornerwave as cw
from cornerwave import quadrature, weiss
from cornerwave.pipeline import write_csv
from cornerwave.oracle import blowup_limit, corner_density
from cornerwave.quadrature import circle_integrals_u2, disk_stencils
from cornerwave.blowup import profile_radii
from references import profile_field, radial_sweep_all_at_once, weiss_energy

SQRT3_3 = math.sqrt(3.0) / 3.0


def stokes_spec(alpha=0.0, beta=1.0):
    return cw.ProblemSpec(alpha=alpha, beta=beta, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))


def stokes_field(alpha=0.0, beta=1.0, n=513):
    spec = stokes_spec(alpha, beta)
    prof = blowup_limit(spec)
    grid = cw.GridSpec.from_domain(spec.domain, n, n)
    return spec, prof, profile_field(prof, grid, spec.stagnation_location)


class TestWeissEnergy:
    def test_zero_field(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        u = cw.ScalarField(g, np.zeros((65, 65)))
        sp = cw.stagnation_point(spec)
        for r in (0.1, 0.3):
            assert weiss_energy(spec, u, sp, r) == 0.0

    def test_constant_on_stokes_profile(self):
        # exact corner profile: the adjusted energy sits at the corner
        # density at every radius (spacing 1/256)
        spec, prof, u = stokes_field()
        sp = cw.stagnation_point(spec)
        for r in (0.07, 0.12, 0.2, 0.35, 0.45):
            assert weiss_energy(spec, u, sp, r) == pytest.approx(SQRT3_3, abs=1e-2)

    def test_constant_on_type3_profile(self):
        # the quarter-turn cone about the downward axis
        spec = cw.ProblemSpec(1.0, 1.0, cw.Type3(), cw.Rect(-1, -1, 1, 1))
        prof = blowup_limit(spec)
        assert (prof.theta1, prof.theta2) == (-3 * math.pi / 4, -math.pi / 4)
        grid = cw.GridSpec.from_domain(spec.domain, 513, 513)
        u = profile_field(prof, grid, (0.0, 0.0))
        sp = cw.stagnation_point(spec)
        target = corner_density(spec, prof.theta1, prof.theta2)
        assert target == pytest.approx(1.0 / 8.0, abs=1e-10)
        for r in (0.1, 0.25, 0.45):
            assert weiss_energy(spec, u, sp, r) == pytest.approx(target, abs=1e-2)

    def test_radius_out_of_range(self):
        spec, _, u = stokes_field(n=129)
        sp = cw.stagnation_point(spec)
        with pytest.raises(cw.RadiusOutOfRange):
            weiss_energy(spec, u, sp, 0.6)
        with pytest.raises(cw.RadiusOutOfRange):
            weiss_energy(spec, u, sp, -0.1)


class TestRemainder:
    def test_zero_for_alpha0_type1(self):
        spec, _, u = stokes_field(n=129)
        sp = cw.stagnation_point(spec)
        assert cw.radial_sweep(spec, u, sp, [0.3]).remainder[0] == 0.0

    def test_zero_for_type3(self):
        spec = cw.ProblemSpec(1.0, 1.0, cw.Type3(), cw.Rect(-1, -1, 1, 1))
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        u = cw.ScalarField(g, np.ones((65, 65)))
        sp = cw.stagnation_point(spec)
        assert cw.radial_sweep(spec, u, sp, [0.3]).remainder[0] == 0.0

    def test_halfdisk_indicator_against_analytic(self):
        # u = indicator of {y < 0, x > x0}: for alpha = beta = 1 the
        # remainder integrand is (x0 - x)(-y), whose half-disk integral is
        # -r^4/8 exactly, so h(r) = -1/8 at every radius
        spec = cw.ProblemSpec(1.0, 1.0, cw.Type1(x0=-1.0),
                              cw.Rect(-1.75, -0.75, -0.25, 0.75))
        g = cw.GridSpec.from_domain(spec.domain, 1537, 1537)
        X, Y = g.mesh()
        u = cw.ScalarField(g, ((Y < 0) & (X > -1.0)).astype(float))
        sp = cw.stagnation_point(spec)
        for r in (0.2, 0.35):
            h = cw.radial_sweep(spec, u, sp, [r]).remainder[0]
            assert h == pytest.approx(-0.125, abs=1e-6)

    def test_symmetric_indicator_cancels(self):
        # the full lower half-disk is symmetric about x0: exact zero
        spec = cw.ProblemSpec(1.0, 1.0, cw.Type1(x0=-1.0),
                              cw.Rect(-1.75, -0.75, -0.25, 0.75))
        g = cw.GridSpec.from_domain(spec.domain, 513, 513)
        _, Y = g.mesh()
        u = cw.ScalarField(g, (Y < 0).astype(float))
        sp = cw.stagnation_point(spec)
        h = cw.radial_sweep(spec, u, sp, [0.3]).remainder[0]
        assert h == pytest.approx(0.0, abs=1e-9)


class TestCumulativeRemainder:
    def test_exact_on_linear_h(self):
        # the trapezoid rule is exact on a linear h, so past the first
        # radius the running sum is the integral from r_0
        radii = np.geomspace(0.05, 0.45, 9)
        h = 2.0 - 3.0 * radii
        out = weiss.cumulative_remainder(radii, h)

        def antiderivative(r):
            return 2.0 * r - 1.5 * r * r

        exact = antiderivative(radii) - antiderivative(radii[0])
        assert out - out[0] == pytest.approx(exact, rel=0, abs=1e-15)

    def test_first_stretch_is_h_times_r0(self):
        out = weiss.cumulative_remainder([0.2, 0.3], [0.7, 0.5])
        assert out[0] == 0.7 * 0.2
        assert out[1] == pytest.approx(0.14 + 0.5 * (0.7 + 0.5) * 0.1)


class TestRadialSweep:
    def test_one_stencil_and_ring_per_radius(self, monkeypatch):
        # type 1 with alpha = 1 has h != 0, so the remainder integral must
        # share the stencils of the other four; the stencils and the rings
        # of all radii are built in one batch each
        spec, _, u = stokes_field(alpha=1.0, beta=1.0, n=129)
        sp = cw.stagnation_point(spec)
        calls = {"disks": [], "rings": []}
        disks = weiss.disk_stencils
        rings = weiss.circle_integrals_u2

        def counting_disks(grid, center, radii):
            calls["disks"].append(len(radii))
            return disks(grid, center, radii)

        def counting_rings(values, grid, center, radii):
            calls["rings"].append(len(radii))
            return rings(values, grid, center, radii)

        monkeypatch.setattr(weiss, "disk_stencils", counting_disks)
        monkeypatch.setattr(weiss, "circle_integrals_u2", counting_rings)
        radii = np.geomspace(0.1, 0.4, 6)
        sweep = cw.radial_sweep(spec, u, sp, radii)
        assert np.all(sweep.remainder != 0.0)
        assert calls == {"disks": [len(radii)], "rings": [len(radii)]}

    @pytest.mark.parametrize("count", [1, 6, 32])
    def test_one_rim_overlap_evaluation(self, monkeypatch, count):
        # a structural guard: the rim cells of every radius share one
        # exact-overlap call, however many radii there are
        spec, _, u = stokes_field(n=129)
        sp = cw.stagnation_point(spec)
        calls = []
        overlap = quadrature.cell_disk_overlap

        def counting_overlap(cx, cy, half, r):
            calls.append(np.size(cx))
            return overlap(cx, cy, half, r)

        monkeypatch.setattr(quadrature, "cell_disk_overlap", counting_overlap)
        cw.radial_sweep(spec, u, sp, np.geomspace(0.1, 0.4, count))
        assert len(calls) == 1 and calls[0] > 0


    @pytest.mark.parametrize("case", ["stokes_case", "beta2_case",
                                      "alpha2_case", "type3_case",
                                      "blowup_case"])
    def test_matches_the_all_at_once_form(self, request, case):
        # one integrand at a time gives the columns of all five built
        # together, bit for bit, on the pipeline's profile radii
        solved = request.getfixturevalue(case)
        args = (solved.spec, solved.result.field, solved.sp,
                profile_radii(solved.sp))
        got, want = cw.radial_sweep(*args), radial_sweep_all_at_once(*args)
        for name in ("radii", "ring", "bulk", "dirichlet", "remainder",
                     "free_weight", "weight_gap"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.kappa == want.kappa


class TestProfileAndMonotonicity:
    def test_zero_field_profile(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        u = cw.ScalarField(g, np.zeros((65, 65)))
        sp = cw.stagnation_point(spec)
        wp = cw.weiss_profile(cw.radial_sweep(spec, u, sp, np.geomspace(0.1, 0.4, 8)))
        assert np.all(wp.M == 0) and np.all(wp.J1 == 0)
        assert np.all(wp.remainder == 0)
        assert cw.check_monotonicity(wp, 1e-12).all_passed

    def test_exact_profile_is_equality_case(self):
        # on the exact homogeneous profile both M - int h and J1 are
        # constant; the check passes at 1e-3 for spacing 1/256
        spec, _, u = stokes_field(alpha=1.0, beta=1.0)
        sp = cw.stagnation_point(spec)
        wp = cw.weiss_profile(cw.radial_sweep(spec, u, sp, np.geomspace(0.05, 0.45, 32)))
        rep = cw.check_monotonicity(wp, 1e-3)
        assert rep.all_passed

    def test_derivative_matches_remainder_band(self):
        # dM/dr equals the remainder on exact profiles; numerically both
        # are small and agree within the differentiation noise at moderate
        # radii (tolerance pinned from a refinement study)
        spec, _, u = stokes_field(alpha=1.0, beta=1.0)
        sp = cw.stagnation_point(spec)
        radii = np.geomspace(0.15, 0.45, 16)
        wp = cw.weiss_profile(cw.radial_sweep(spec, u, sp, radii))
        assert np.max(np.abs(wp.dM_numeric - wp.remainder)) <= 0.05

    def test_adversarial_profile_flagged(self):
        radii = np.array([0.1, 0.2, 0.3])
        wp = cw.WeissProfile(radii=radii, M=np.array([1.0, 0.5, 0.4]),
                             dM_numeric=np.zeros(3), remainder=np.zeros(3),
                             remainder_integral=np.zeros(3),
                             J1=np.array([0.0, 0.0, 0.0]))
        rep = cw.check_monotonicity(wp, 1e-3)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(0.5)
        assert rep.worst_radius == pytest.approx(0.2)

    def test_csv_roundtrip_format(self, tmp_path):
        # written as the pipeline writes weiss.csv: 17 digits, -0 kept
        radii = np.array([0.1, 0.2])
        wp = cw.WeissProfile(radii=radii, M=np.array([1.0, 2.0 / 3.0]),
                             dM_numeric=np.array([0.0, -0.0]),
                             remainder=np.zeros(2),
                             remainder_integral=np.zeros(2), J1=np.ones(2))
        p = tmp_path / "w.csv"
        write_csv(p, "r,M,dM_numeric,remainder,remainder_integral,J1",
                  zip(*astuple(wp)))
        text = p.read_text(encoding="ascii")
        assert text == ("r,M,dM_numeric,remainder,remainder_integral,J1\n"
                        "0.10000000000000001,1,0,0,0,1\n"
                        "0.20000000000000001,0.66666666666666663,-0,0,0,1\n")
        back = np.array([[float(c) for c in line.split(",")]
                         for line in text.splitlines()[1:]])
        assert back.T.tobytes() == np.array(astuple(wp)).tobytes()


class TestLimitDensity:
    def test_oracle_profile(self):
        spec, _, u = stokes_field()
        sp = cw.stagnation_point(spec)
        assert cw.limit_density(spec, u, sp, 0.3) == pytest.approx(SQRT3_3, abs=1e-2)

    def test_zero_field(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        u = cw.ScalarField(g, np.zeros((65, 65)))
        sp = cw.stagnation_point(spec)
        assert cw.limit_density(spec, u, sp, 0.2) == 0.0

    def test_everywhere_positive_field(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 257, 257)
        u = cw.ScalarField(g, np.ones((257, 257)))
        sp = cw.stagnation_point(spec)
        assert cw.limit_density(spec, u, sp, 0.3) == pytest.approx(2.0 / 3.0, abs=1e-2)

    def test_scaling_consistency(self):
        # density estimates at r and r/2 agree on the exact homogeneous
        # profile within twice the sampling tolerance
        spec, _, u = stokes_field()
        sp = cw.stagnation_point(spec)
        d1 = cw.limit_density(spec, u, sp, 0.4)
        d2 = cw.limit_density(spec, u, sp, 0.2)
        assert d1 == pytest.approx(d2, abs=2e-2)


class TestOracleEquivalence:
    def test_disk_quadrature_vs_dense_oracle(self):
        # node quadrature of the analytic indicator-weighted integrand
        # against its closed form, at spacing 1/1024
        spec, prof, _ = stokes_field()
        g = cw.GridSpec.from_domain(spec.domain, 2049, 2049)
        X, Y = g.mesh()
        th = np.arctan2(Y, X + 1.0)
        dth = np.mod(th - prof.theta1, 2 * math.pi)
        chi = dth <= prof.opening
        integrand = np.maximum(-Y, 0.0) * chi
        r = 0.4
        disk = disk_stencils(g, (-1.0, 0.0), [r])[0]
        exact = SQRT3_3 * r ** 3
        assert disk.integrate(integrand) == pytest.approx(exact, abs=1e-4)

    def test_circle_quadrature_vs_closed_form(self):
        # circle integral of u0^2 = r^4 * C0^2 * pi/3 for the corner profile
        spec, prof, u = stokes_field()
        sp = cw.stagnation_point(spec)
        r = 0.4
        val = circle_integrals_u2(u.values, u.grid, sp.location, [r])[0]
        exact = r ** 4 * prof.C0 ** 2 * (prof.opening / 2.0)
        assert val == pytest.approx(exact, abs=1e-4)
