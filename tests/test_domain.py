import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cornerwave as cw
from cornerwave.domain import (Rect, _stag_to_json, bilinear,
                               value_envelope_monomial, wrap_angle)
from cornerwave.pipeline import _parse_problem, _parse_stag
from references import traced_peak

BIG = Rect(-4.0, -4.0, 4.0, 4.0)


def make_spec(alpha, beta, stag):
    return cw.ProblemSpec(alpha=alpha, beta=beta, stag=stag, domain=BIG)


class TestWeight:
    def test_subcase_11_hand_value(self):
        spec = make_spec(0.0, 1.0, cw.Type1(x0=-1.0))
        assert cw.weight_at(spec, (-1.0, -0.5)) == pytest.approx(0.5, abs=0)

    def test_vanishes_on_axis(self):
        spec = make_spec(1.0, 1.0, cw.Type3())
        assert cw.weight_at(spec, (0.0, 0.7)) == 0.0
        assert cw.weight_at(spec, (0.7, 0.0)) == 0.0

    def test_type3_hand_value(self):
        spec = make_spec(2.0, 1.0, cw.Type3())
        # |0.5|^2 * |-0.5| = 0.125 by direct evaluation
        assert cw.weight_at(spec, (0.5, -0.5)) == pytest.approx(0.125, rel=1e-15)

    def test_one_sided(self):
        spec = make_spec(1.0, 1.0, cw.Type1(x0=-1.0))  # subcase 1.1
        assert cw.weight_at(spec, (-1.0, 0.5)) == 0.0       # wrong y side
        assert cw.weight_at(spec, (1.0, -0.5)) == 0.0       # wrong x side
        assert cw.weight_at(spec, (-1.0, -0.5)) == pytest.approx(0.5)

    def test_weight_constant_scales(self):
        s1 = cw.ProblemSpec(1.0, 1.0, cw.Type3(), BIG, weight_constant=1.0)
        s2 = cw.ProblemSpec(1.0, 1.0, cw.Type3(), BIG, weight_constant=2.0)
        assert cw.weight_at(s2, (0.3, -0.4)) == pytest.approx(
            2 * cw.weight_at(s1, (0.3, -0.4)))

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3),
           a=st.floats(1, 3), b=st.floats(1, 3))
    @settings(max_examples=100)
    def test_type3_reflection_even(self, x, y, a, b):
        spec = make_spec(a, b, cw.Type3())
        w = cw.weight_at(spec, (x, y))
        assert cw.weight_at(spec, (-x, y)) == pytest.approx(w, rel=1e-12, abs=1e-300)
        assert cw.weight_at(spec, (x, -y)) == pytest.approx(w, rel=1e-12, abs=1e-300)

    def test_mirror_subcases_agree(self):
        # reflecting the point across the y-axis maps subcase 1.1 onto 1.2-style
        left = make_spec(1.0, 1.0, cw.Type1(x0=-1.0, theta0=3 * math.pi / 2))
        right = make_spec(1.0, 1.0, cw.Type1(x0=1.0, theta0=math.pi / 2))
        # 1.2 also mirrors y (upward force); compose both reflections
        for (x, y) in [(-0.5, -0.25), (-1.5, -0.8), (-0.1, -0.9)]:
            assert cw.weight_at(left, (x, y)) == pytest.approx(
                cw.weight_at(right, (-x, -y)), rel=1e-12)

    @given(y1=st.floats(0.05, 1.0), y2=st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_monotone_in_each_axis(self, y1, y2):
        spec = make_spec(1.0, 2.0, cw.Type1(x0=-1.0))
        lo, hi = sorted([y1, y2])
        assert cw.weight_at(spec, (-1.0, -hi)) >= cw.weight_at(spec, (-1.0, -lo))

    def test_zero_at_stagnation_point(self):
        for spec in (make_spec(0.0, 1.0, cw.Type1(x0=-1.0)),
                     make_spec(2.0, 0.0, cw.Type2(y0=1.0)),
                     make_spec(1.0, 1.0, cw.Type3())):
            assert cw.weight_at(spec, spec.stagnation_location) == 0.0


class TestKappa:
    def test_type1(self):
        assert cw.kappa_for(make_spec(0.0, 1.0, cw.Type1(x0=-1.0))) == -1.5

    def test_type2(self):
        assert cw.kappa_for(make_spec(2.0, 0.0, cw.Type2(y0=1.0))) == -2.0

    def test_type3(self):
        assert cw.kappa_for(make_spec(1.0, 1.0, cw.Type3())) == -2.0

    def test_matches_profile_degree(self):
        # cross-module: homogeneity degree of the closed-form profile
        for spec in (make_spec(0.5, 1.5, cw.Type1(x0=-1.0)),
                     make_spec(2.5, 0.0, cw.Type2(y0=-1.0, theta0=math.pi))):
            prof = cw.blowup_limit(spec)
            assert prof.degree == pytest.approx(-cw.kappa_for(spec), abs=0)


class TestSpecValidation:
    def test_exponent_sum_positive(self):
        with pytest.raises(cw.InvalidSpec):
            cw.ProblemSpec(0.0, 0.0, cw.Type1(x0=-1.0), BIG)

    def test_type_restrictions(self):
        with pytest.raises(cw.InvalidSpec):
            cw.ProblemSpec(0.0, 0.5, cw.Type1(x0=-1.0), BIG)   # beta < 1
        with pytest.raises(cw.InvalidSpec):
            cw.ProblemSpec(0.5, 1.0, cw.Type2(y0=1.0), BIG)    # alpha < 1
        with pytest.raises(cw.InvalidSpec):
            cw.ProblemSpec(0.5, 1.0, cw.Type3(), BIG)

    def test_stagnation_inside_domain(self):
        with pytest.raises(cw.InvalidSpec):
            cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-9.0), BIG)

    def test_subcase_labels(self):
        down, up = 3 * math.pi / 2, math.pi / 2
        assert make_spec(0, 1, cw.Type1(-1.0, down)).subcase == "1.1"
        assert make_spec(0, 1, cw.Type1(1.0, up)).subcase == "1.2"
        assert make_spec(0, 1, cw.Type1(-1.0, up)).subcase == "1.3"
        assert make_spec(0, 1, cw.Type1(1.0, down)).subcase == "1.4"
        assert make_spec(1, 0, cw.Type2(-1.0, math.pi)).subcase == "2.1"
        assert make_spec(1, 0, cw.Type2(1.0, 0.0)).subcase == "2.2"
        assert make_spec(1, 0, cw.Type2(-1.0, 0.0)).subcase == "2.3"
        assert make_spec(1, 0, cw.Type2(1.0, math.pi)).subcase == "2.4"
        assert make_spec(1, 1, cw.Type3()).subcase == "3"

    @pytest.mark.parametrize("build", [
        lambda: make_spec(math.nan, 1.0, cw.Type1(x0=-1.0)),
        lambda: make_spec(0.0, math.nan, cw.Type1(x0=-1.0)),
        lambda: cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0), BIG,
                               weight_constant=math.nan),
        lambda: cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0), BIG,
                               weight_constant=math.inf),
        lambda: cw.Type1(x0=math.nan),
        lambda: cw.Type2(y0=math.inf),
        lambda: cw.Type3(theta_star=math.nan),
        lambda: cw.Rect(-math.inf, -1.0, 0.0, 1.0)],
        ids=["nan-alpha", "nan-beta", "nan-weight-constant",
             "inf-weight-constant", "nan-x0", "inf-y0", "nan-theta-star",
             "inf-rect"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(cw.InvalidSpec, match="finite"):
            build()


class TestStagnationPoint:
    def test_default_delta_is_half_distance(self):
        spec = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                              cw.Rect(-2.0, -1.0, 0.0, 1.0))
        sp = cw.stagnation_point(spec)
        assert sp.delta == pytest.approx(0.5)
        assert sp.kappa == -1.5
        assert sp.location == (-1.0, 0.0)


class TestGridAndField:
    def test_grid_covers_domain(self):
        rect = cw.Rect(-2.0, -1.0, 0.0, 1.0)
        g = cw.GridSpec.from_domain(rect, 33, 33)
        assert g.spacing == pytest.approx(2.0 / 32)
        assert g.extent == rect

    def test_nonsquare_cells_rejected(self):
        with pytest.raises(cw.InvalidSpec):
            cw.GridSpec.from_domain(cw.Rect(0, 0, 2, 1), 33, 33)

    def test_minimum_size(self):
        with pytest.raises(cw.InvalidSpec):
            cw.GridSpec(nx=8, ny=33, origin=(0, 0), spacing=0.1)

    @pytest.mark.parametrize("origin, spacing", [
        ((math.nan, 0.0), 0.1), ((0.0, math.nan), 0.1), ((0.0, 0.0), math.inf),
        ((0.0, 0.0), math.nan)],
        ids=["nan-origin-x", "nan-origin-y", "inf-spacing", "nan-spacing"])
    def test_non_finite_rejected(self, origin, spacing):
        with pytest.raises(cw.InvalidSpec, match="finite"):
            cw.GridSpec(nx=16, ny=16, origin=origin, spacing=spacing)

    def test_field_shape_and_finite(self):
        g = cw.GridSpec(nx=16, ny=16, origin=(0, 0), spacing=0.1)
        with pytest.raises(cw.InvalidSpec):
            cw.ScalarField(g, np.zeros((8, 8)))
        with pytest.raises(cw.InvalidSpec):
            cw.ScalarField(g, np.full((16, 16), np.nan))

    def test_interp_out_of_range(self):
        g = cw.GridSpec(nx=16, ny=16, origin=(0, 0), spacing=0.1)
        f = cw.ScalarField(g, np.ones((16, 16)))
        with pytest.raises(cw.RadiusOutOfRange):
            bilinear(f.values, f.grid, 5.0, 0.5)


def bilinear_np_clip(values, grid, px, py):
    # domain.bilinear as written with np.clip
    gx = (px - grid.origin[0]) / grid.spacing
    gy = (py - grid.origin[1]) / grid.spacing
    i0 = np.clip(np.floor(gx).astype(int), 0, grid.nx - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, grid.ny - 2)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    return (values[j0, i0] * (1 - fx) * (1 - fy)
            + values[j0, i0 + 1] * fx * (1 - fy)
            + values[j0 + 1, i0] * (1 - fx) * fy
            + values[j0 + 1, i0 + 1] * fx * fy)


class TestClamping:
    """nearest_node and bilinear clamp without np.clip's wrapper and give
    its integers and floats."""

    GRID = cw.GridSpec(nx=21, ny=17, origin=(-1.0, 0.5), spacing=0.1)

    def test_nearest_node_equals_np_clip(self):
        g = self.GRID
        rng = np.random.default_rng(7)
        # in range, and up to one grid length outside on every side
        px = rng.uniform(-3.0, 3.0, 2000)
        py = rng.uniform(-1.1, 3.7, 2000)
        jj, ii = g.nearest_node(px, py)
        ref_i = np.clip(np.rint((px - g.origin[0]) / g.spacing).astype(int),
                        0, g.nx - 1)
        ref_j = np.clip(np.rint((py - g.origin[1]) / g.spacing).astype(int),
                        0, g.ny - 1)
        assert ii.dtype == ref_i.dtype and jj.dtype == ref_j.dtype
        assert np.array_equal(ii, ref_i) and np.array_equal(jj, ref_j)
        assert ii.min() == 0 and ii.max() == g.nx - 1
        assert jj.min() == 0 and jj.max() == g.ny - 1

    def test_bilinear_equals_np_clip(self):
        g = self.GRID
        rng = np.random.default_rng(8)
        values = rng.standard_normal((g.ny, g.nx))
        x1, y1 = g.extent.x_max, g.extent.y_max
        # random points inside, the four edges exactly, and points up to the
        # 1e-9 cells outside that bilinear still accepts and clamps
        px = np.concatenate([rng.uniform(-1.0, x1, 500), [-1.0, x1, 0.0, 0.0],
                             -1.0 - rng.uniform(0, 9e-11, 50),
                             x1 + rng.uniform(0, 9e-11, 50)])
        py = np.concatenate([rng.uniform(0.5, y1, 500), [0.9, 0.9, 0.5, y1],
                             rng.uniform(0.5, y1, 50),
                             0.5 - rng.uniform(0, 9e-11, 50)])
        out = bilinear(values, g, px, py)
        assert np.array_equal(out, bilinear_np_clip(values, g, px, py))
        assert bilinear(values, g, x1, y1) == values[-1, -1]


class TestPersistence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        g = cw.GridSpec(nx=17, ny=16, origin=(-1.25, 0.5), spacing=1.0 / 3.0)
        vals = rng.normal(scale=rng.choice([1e-12, 1.0, 1e9])) \
            * rng.random((16, 17))
        f = cw.ScalarField(g, vals)
        p = tmp_path_factory.mktemp("fields") / f"f{seed}.field"
        cw.save_field(f, p)
        loaded, header = cw.load_field(p)
        assert np.array_equal(loaded.values, f.values)
        assert loaded.grid == g
        assert header["nx"] == 17 and header["ny"] == 16

    def test_roundtrip_with_spec_header(self, tmp_path):
        spec = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                              cw.Rect(-2.0, -1.0, 0.0, 1.0))
        g = cw.GridSpec.from_domain(spec.domain, 17, 17)
        f = cw.ScalarField(g, np.arange(17 * 17, dtype=float).reshape(17, 17) / 7)
        p = tmp_path / "u.field"
        cw.save_field(f, p, spec=spec)
        loaded, header = cw.load_field(p)
        assert np.array_equal(loaded.values, f.values)
        # read back as the pipeline reads a saved field's problem
        problem = {k: header[k] for k in ("alpha", "beta", "domain",
                                          "weight_constant")}
        problem["stagnation"] = header["stag_type"]
        assert _parse_problem(problem) == spec

    @pytest.mark.parametrize("case", ["signed-zeros", "subnormal-and-huge",
                                      "all-zero", "no-zero", "transposed"])
    def test_body_is_the_raw_values(self, case, tmp_path):
        # after the header line the body is the values as little-endian
        # float64, row-major, and they load back bit for bit
        rng = np.random.default_rng(5)
        vals = np.where(rng.random((16, 17)) < 0.7, 0.0,
                        rng.normal(size=(16, 17)))
        if case == "signed-zeros":
            vals[3, :5] = -0.0
            vals[-1, -1] = -0.0
        elif case == "subnormal-and-huge":
            vals[0, 0], vals[0, 1], vals[7, 2] = 5e-324, -5e-324, 1e300
            vals[7, 3], vals[-1, -1] = -1e300, 5e-324
        elif case == "all-zero":
            vals[...] = 0.0
        elif case == "no-zero":
            vals = rng.normal(size=(16, 17))
        else:
            # a view in column-major order is written row-major all the same
            vals = rng.normal(size=(17, 16)).T
        g = cw.GridSpec(nx=17, ny=16, origin=(0.0, 0.0), spacing=0.25)
        p = tmp_path / "f.field"
        cw.save_field(cw.ScalarField(g, vals), p)
        header, body = p.read_bytes().split(b"\n", 1)
        assert json.loads(header)["body"] == "<f8"
        assert body == vals.astype("<f8").tobytes()
        loaded, _ = cw.load_field(p)
        assert loaded.values.tobytes() == vals.tobytes()
        assert loaded.values.flags.writeable

    def test_load_memory_at_513(self, tmp_path):
        # the body is read into the field's own array, so the reader holds
        # 1.13 times the values
        rng = np.random.default_rng(9)
        g = cw.GridSpec(nx=513, ny=513, origin=(0.0, 0.0), spacing=0.25)
        vals = np.where(rng.random((513, 513)) < 0.7, 0.0,
                        rng.normal(size=(513, 513)))
        p = tmp_path / "f.field"
        cw.save_field(cw.ScalarField(g, vals), p)
        (loaded, _), peak = traced_peak(cw.load_field, p)
        assert loaded.values.tobytes() == vals.tobytes()
        assert peak <= 1.5 * vals.nbytes

    def test_stag_json_roundtrip(self):
        for stag in (cw.Type1(x0=-1.0), cw.Type2(y0=2.0, theta0=math.pi),
                     cw.Type3(theta_star=0.3)):
            assert _parse_stag(_stag_to_json(stag)) == stag


class TestHelpers:
    @given(t=st.floats(-50, 50))
    @settings(max_examples=100)
    def test_wrap_angle_range(self, t):
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(t), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(t), abs=1e-9)

    def test_envelope_monomial_vanishes_on_axes(self):
        spec = make_spec(1.0, 1.0, cw.Type1(x0=-1.0))
        assert value_envelope_monomial(spec, -1.0, 0.0) == 0.0
        spec3 = make_spec(1.0, 1.0, cw.Type3())
        assert value_envelope_monomial(spec3, 0.0, 0.0) == 0.0
