import math
from dataclasses import astuple

import numpy as np
import pytest

import cornerwave as cw
from cornerwave.oracle import blowup_limit
from cornerwave.pipeline import write_csv
from cornerwave.quadrature import circle_integrals_u2, disk_stencils
from references import profile_field, weiss_energy

RADII = np.geomspace(0.3, 0.8, 8)


def reference_setup(n=513):
    grid = cw.GridSpec(nx=n, ny=n, origin=(-1.0, -1.0), spacing=2.0 / (n - 1))
    spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-0.5),
                          domain=cw.Rect(-1.0, -1.0, 1.0, 1.0))
    sp = cw.StagnationPoint(location=(0.0, 0.0), kappa=-1.5, delta=0.9)
    return grid, spec, sp


def cone_field(grid, N, bisector=-math.pi / 2):
    """Homogeneous harmonic profile of degree N on a pi/N cone, vanishing
    on both edges; D(r) = N exactly in the continuum."""
    X, Y = grid.mesh()
    rho = np.hypot(X, Y)
    th = np.arctan2(Y, X)
    d = np.mod(th - bisector + math.pi, 2 * math.pi) - math.pi
    vals = np.where(np.abs(d) < math.pi / (2 * N),
                    rho ** N * np.cos(N * d), 0.0)
    return cw.ScalarField(grid, np.maximum(vals, 0.0))


def lobe_field(grid, N):
    """|sin(N theta)| lobes filling the lower half plane: a flat-candidate
    configuration (positivity has full measure below the axis)."""
    X, Y = grid.mesh()
    rho = np.hypot(X, Y)
    th = np.arctan2(Y, X)
    tl = np.where(th < 0, -th, 0.0)
    vals = np.where(th < 0, rho ** N * np.abs(np.sin(N * tl)), 0.0)
    return cw.ScalarField(grid, vals)


class TestDirichletRatio:
    @pytest.mark.parametrize("N,n,tol", [(1.5, 513, 0.02), (2.0, 513, 0.02),
                                         (3.0, 1025, 0.02)])
    def test_homogeneous_harmonic_degree(self, N, n, tol):
        grid, spec, sp = reference_setup(n)
        u = cone_field(grid, N)
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, RADII))
        assert np.max(np.abs(fp.D - N)) <= tol
        assert np.allclose(fp.H, fp.D - fp.V)

    def test_integer_lobes_constancy(self):
        grid, spec, sp = reference_setup(513)
        u = lobe_field(grid, 2)
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, RADII))
        assert np.max(np.abs(fp.D - 2.0)) <= 0.02


class TestVolumeTerm:
    def test_positive_constant_field_v1_zero(self):
        grid, spec, sp = reference_setup(129)
        u = cw.ScalarField(grid, np.ones((129, 129)))
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, RADII))
        assert np.all(fp.V1 == 0.0)

    def test_v2_vanishes_for_alpha0(self):
        # the frozen factor equals the actual one when alpha = 0 and the
        # remainder carries a factor alpha, so V2 = 0 term by term
        spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                              domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
        prof = blowup_limit(spec)
        grid = cw.GridSpec.from_domain(spec.domain, 257, 257)
        u = profile_field(prof, grid, spec.stagnation_location)
        sp = cw.stagnation_point(spec)
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, np.geomspace(0.1, 0.45, 8)))
        assert np.all(fp.V2 == 0.0)
        assert np.all(fp.V1 > 0.0)
        assert np.allclose(fp.V, fp.V1)

    def test_v1_nonnegative(self):
        grid, spec, sp = reference_setup(257)
        u = cone_field(grid, 1.5)
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, RADII))
        assert np.all(fp.V1 >= 0.0)

    def test_remainder_share(self):
        # on a configuration with a genuine remainder, V2's share
        # r^{1 - 2 kappa} int_0^r h / ring is the Weiss profile's int h / J1;
        # the rest of V2 is r * int (lw - w) chi / ring
        spec = cw.ProblemSpec(alpha=1.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                              domain=cw.Rect(-1.5, -0.5, -0.5, 0.5))
        g = cw.GridSpec.from_domain(spec.domain, 257, 257)
        X, Y = g.mesh()
        u = cw.ScalarField(g, ((Y < 0) & (X > -1.0)).astype(float)
                           * np.maximum(-Y, 0.0))
        sp = cw.stagnation_point(spec)
        radii = np.geomspace(0.1, 0.2, 4)
        sweep = cw.radial_sweep(spec, u, sp, radii)
        wp = cw.weiss_profile(sweep)
        fp = cw.frequency_profile(sweep)
        share = wp.remainder_integral / wp.J1
        assert np.all(share != 0.0)
        # the weight with its non-degenerate factor |x|^alpha frozen at x0
        w = cw.weight_at(spec, X, Y)
        lw = cw.weight_at(spec, np.full_like(X, -1.0), Y)
        chi = (u.values > 0.0).astype(float)
        for i, r in enumerate(radii):
            disk = disk_stencils(g, sp.location, [r])[0]
            ring = circle_integrals_u2(u.values, g, sp.location, [r])[0]
            gap = r * disk.integrate((lw - w) * chi) / ring
            assert fp.V2[i] - share[i] == pytest.approx(gap, rel=1e-12, abs=0.0)
            assert weiss_energy(spec, u, sp, r) == wp.M[i]
            assert cw.radial_sweep(spec, u, sp, [r]).remainder[0] == wp.remainder[i]


class TestFrequencyBound:
    def test_flat_candidates_pass(self):
        grid, spec, sp = reference_setup(513)
        for N in (2, 3):
            fp = cw.frequency_profile(cw.radial_sweep(spec, lobe_field(grid, N), sp, RADII))
            rep = cw.check_frequency_bound(fp, beta=1.0, tol=0.05)
            assert rep.passed, f"N={N}: worst deficit {rep.worst_deficit}"

    def test_constructed_violation(self):
        radii = np.geomspace(0.1, 0.5, 5)
        ones = np.ones(5)
        fp = cw.FrequencyProfile(radii=radii, D=ones, V1=0 * ones, V2=0 * ones,
                                 V=0 * ones, H=ones)
        rep = cw.check_frequency_bound(fp, beta=1.0, tol=0.05)
        assert not rep.passed
        assert len(rep.violating_radii) == 5
        assert rep.worst_deficit == pytest.approx(0.5)

    def test_corner_profile_probes_the_bound(self):
        # the 120-degree corner has D = 3/2 but V > 0: analytically
        # H = 3/2 - (2/3 - sqrt(3)/3)/(2 pi/27) ~ 1.1162, below the flat
        # threshold 3/2 -- the checker must flag it (it is not a flat
        # candidate, whose positivity would fill the half plane)
        spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                              domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
        prof = blowup_limit(spec)
        grid = cw.GridSpec.from_domain(spec.domain, 513, 513)
        u = profile_field(prof, grid, spec.stagnation_location)
        sp = cw.stagnation_point(spec)
        fp = cw.frequency_profile(cw.radial_sweep(spec, u, sp, np.geomspace(0.2, 0.45, 6)))
        h_exact = 1.5 - (2.0 / 3.0 - math.sqrt(3.0) / 3.0) / (2.0 * math.pi / 27.0)
        assert np.max(np.abs(fp.H - h_exact)) <= 0.02
        rep = cw.check_frequency_bound(fp, beta=1.0, tol=0.05)
        assert not rep.passed

    def test_degenerate_denominator(self):
        grid, spec, sp = reference_setup(129)
        u = cw.ScalarField(grid, np.zeros((129, 129)))
        with pytest.raises(cw.DegenerateDenominator):
            cw.frequency_profile(cw.radial_sweep(spec, u, sp, RADII))

    def test_csv_columns(self, tmp_path):
        # written as the pipeline writes frequency.csv, one column per field
        radii = np.array([0.1, 0.2])
        fp = cw.FrequencyProfile(radii=radii, D=np.ones(2),
                                 V1=np.array([-0.0, 1e-300]),
                                 V2=np.zeros(2), V=np.array([-0.0, 1e-300]),
                                 H=np.array([1.0, 1.0 / 3.0]))
        p = tmp_path / "f.csv"
        write_csv(p, "r,D,V1,V2,V,H", zip(*astuple(fp)))
        assert p.read_text(encoding="ascii") == (
            "r,D,V1,V2,V,H\n"
            "0.10000000000000001,1,-0,0,-0,1\n"
            "0.20000000000000001,1,1e-300,0,1e-300,0.33333333333333331\n")
