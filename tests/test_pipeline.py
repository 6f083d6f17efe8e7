import ast
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import cornerwave as cw
from cornerwave import blowup as bw
from cornerwave import cli, oracle, pipeline
from cornerwave.domain import reference_grid
from cornerwave.energy import boundary_ring
from cornerwave.oracle import (blowup_limit, corner_density,
                               evaluate_at_points)
from cornerwave.pipeline import (AnalysisError, ConfigError,
                                 _marching_segments, build_boundary,
                                 load_config, parse_config, run, write_table1)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"
# the bundled configs that solve
SOLVED = ["stokes", "corner_beta2", "corner_alpha2", "corner_type3",
          "corner_type3_x", "blowup_convergence"]
# the settable values outside problem: and grid:
SETTABLE = ("solver.max_iters", "analysis.blowup_radii", "outputs.directory")
# settable values that may take one value across the bundled configs, and
# why each is a key all the same
ONE_VALUE_ALLOWED = {
    "solver.max_iters": "the tests drive the unconverged path through it",
    "outputs.directory": "a deployment path, one per config",
}

SMALL_CONFIG = {
    "problem": {
        "alpha": 0.0, "beta": 1.0, "weight_constant": 1.0,
        "stagnation": {"type": 1, "x0": -1.0, "theta0": 3 * math.pi / 2},
        "domain": [-2.0, -1.0, 0.0, 1.0],
    },
    "grid": {"nx": 257, "ny": 257},
    "solver": {"max_iters": 3000},
    "analysis": {"blowup_radii": [0.4, 0.3, 0.22]},
    "outputs": {"directory": "out"},
}
# a section the parser no longer reads, refused by its own name whatever
# it holds
RETIRED_SECTIONS = ("boundary",)


def refused_name(section, key):
    """The name a refusal of ``key`` set in ``section`` carries."""
    return section if section in RETIRED_SECTIONS else key


def small_config(tmp_path, **overrides):
    data = json.loads(json.dumps(SMALL_CONFIG))
    data.update(overrides)
    data["outputs"]["directory"] = str(tmp_path / "out")
    return data


class TestConfigParsing:
    def test_missing_field_named(self):
        data = json.loads(json.dumps(SMALL_CONFIG))
        del data["problem"]["beta"]
        with pytest.raises(ConfigError, match="beta"):
            parse_config(data)

    def test_missing_stagnation_x0_named(self):
        data = json.loads(json.dumps(SMALL_CONFIG))
        del data["problem"]["stagnation"]["x0"]
        with pytest.raises(ConfigError, match="x0"):
            parse_config(data)

    # the solver, boundary and analysis settings that are constants now,
    # the boundary settings with one value in use, the analysis scales now
    # derived from delta, and the boundary section and output formats,
    # each with the one value every config used
    @pytest.mark.parametrize("section, key, value", [
        ("solver", "smoothing_eps", 0.01),
        ("solver", "step_size", 1.85),
        ("solver", "tol_field", 1e-7),
        ("solver", "block_size", 10),
        ("solver", "bernstein_margin", 1.3),
        ("solver", "enforce_support", True),
        ("solver", "bernstein_trim", True),
        ("boundary", "source", "plane"),
        ("boundary", "source", "zero"),
        ("analysis", "annuli", [0.25, 0.85]),
        ("boundary", "source", "oracle"),
        ("boundary", "init", "oracle"),
        ("analysis", "delta", 0.5),
        ("analysis", "radii", {"r_min": 0.05, "r_max": 0.45, "count": 32}),
        ("analysis", "density_radius", 0.3),
        ("analysis", "direction_radius", 0.45),
        ("analysis", "reference_n", 129),
        ("boundary", "perturbation", 0.0),
        ("boundary", "pair_theta1", -2.199114857512855),
        ("outputs", "formats", ["csv", "json", "svg"]),
    ])
    def test_retired_key_rejected(self, section, key, value):
        data = json.loads(json.dumps(SMALL_CONFIG))
        data.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"unknown field "
                           f"'{refused_name(section, key)}'"):
            parse_config(data)

    @pytest.mark.parametrize("path, key", [
        ((), "smoothng_eps"), (("problem",), "smoothng_eps"),
        (("problem", "stagnation"), "smoothng_eps"),
        # a type-2 key on a type-1 point
        (("problem", "stagnation"), "y0"),
        (("grid",), "smoothng_eps"), (("solver",), "smoothng_eps"),
        (("boundary",), "smoothng_eps"), (("analysis",), "smoothng_eps"),
        (("outputs",), "smoothng_eps")])
    def test_unknown_key_named_in_every_mapping(self, path, key):
        data = json.loads(json.dumps(SMALL_CONFIG))
        mapping = data
        for name in path:
            mapping = mapping.setdefault(name, {})
        mapping[key] = 0.1
        with pytest.raises(ConfigError, match=f"unknown field "
                           f"'{refused_name(path[0], key) if path else key}'"):
            parse_config(data)

    @pytest.mark.parametrize("section, key", [
        ("grid", "nx"), ("grid", "ny"), ("problem", "weight_constant"),
        ("problem", "alpha"), ("solver", "max_iters"),
        ("problem.stagnation", "x0"), ("problem.stagnation", "theta0")])
    def test_text_number_rejected_by_key(self, section, key):
        data = json.loads(json.dumps(SMALL_CONFIG))
        mapping = data
        for name in section.split("."):
            mapping = mapping.setdefault(name, {})
        mapping[key] = "abc"
        with pytest.raises(ConfigError, match=f"{section}.{key} must be a number"):
            parse_config(data)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_checked_in_config_loads(self, path):
        cfg = load_config(path)
        assert cfg.outputs.directory == f"out/{path.stem}"

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_libyaml_loader_gives_the_same_data(self, path):
        # load_config parses with libyaml's safe loader where PyYAML has
        # it: the same data as the pure-Python one, value types included
        text = path.read_text(encoding="utf-8")
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert json.dumps(fast) == json.dumps(slow)
        assert json.dumps(load_config(path).raw) == json.dumps(slow)

    def test_unparsable_config_refused(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [alpha: 0.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(bad)

    @pytest.mark.parametrize("name", SOLVED)
    def test_derived_scales_equal_the_retired_settings(self, name):
        # what every solving config set before the scales were derived
        # from delta; equal to the bit, so the artifacts stay byte-identical
        cfg = load_config(CONFIGS / f"{name}.yaml")
        sp = cw.stagnation_point(cfg.problem)
        assert sp.delta == 0.5
        assert np.array_equal(bw.profile_radii(sp), np.geomspace(0.05, 0.45, 32))
        assert bw.DENSITY_FRACTION * sp.delta == 0.3
        assert bw.DIRECTION_FRACTION * sp.delta == 0.45
        u = cw.ScalarField(cfg.grid, np.zeros((cfg.grid.ny, cfg.grid.nx)))
        assert bw.REFERENCE_N == 129
        assert cw.rescale(u, sp, 0.2).grid == reference_grid(129)

    def test_left_out_settings_take_the_value_types_defaults(self):
        # the parser restates no default: every key left out (or null)
        # takes the default of the type that holds it
        data = {"problem": {"alpha": 0.0, "beta": 1.0,
                            "stagnation": {"type": 1, "x0": -1.0},
                            "domain": [-2.0, -1.0, 0.0, 1.0]},
                "grid": {"nx": 33, "ny": 33}}
        cfg = parse_config(data)
        assert cfg.problem == cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                                             cw.Rect(-2.0, -1.0, 0.0, 1.0))
        assert cfg.solver == cw.SolverParams()
        assert cfg.outputs == pipeline.OutputConfig()
        assert cfg.blowup_radii == []
        data["problem"].update(weight_constant=None, stagnation={
            "type": 3, "theta_star": None})
        data["problem"]["domain"] = [-1.0, -1.0, 1.0, 1.0]
        data["problem"]["alpha"] = 2.0
        data["solver"] = {"max_iters": None}
        cfg = parse_config(data)
        assert cfg.problem.stag == cw.Type3()
        assert cfg.solver == cw.SolverParams()
        for stag in ({"type": 2, "y0": 0.5}, {"type": 2, "y0": 0.5,
                                               "theta0": None}):
            data["problem"]["stagnation"] = stag
            assert parse_config(data).problem.stag == cw.Type2(y0=0.5)

    def test_cli_default_directory_is_the_config_type_default(
            self, tmp_path, monkeypatch):
        # a config that cannot be read leaves its record in the default
        # output directory, the one OutputConfig names
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", "missing.yaml"]) == 2
        assert json.loads((tmp_path / pipeline.OutputConfig().directory
                           / "error.json").read_text())["stage"] == "config"

    def test_seed_pair_equals_the_retired_setting(self):
        # the boundary.pair_theta1 that corner_type3.yaml set: the cone
        # about its theta_star to the bit, so the seed is unchanged
        prof = blowup_limit(load_config(CONFIGS / "corner_type3.yaml").problem)
        assert prof.theta1 == -2.199114857512855
        assert prof.theta2 == -2.199114857512855 + 2 * math.pi / 5

    def test_settable_keys_outside_problem_and_grid(self):
        # every key the parser accepts outside problem: and grid:, read
        # from the key lists of its ``_known`` calls; only the stagnation
        # parser names its mapping by a variable
        tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
        accepted = {}
        for fn in tree.body:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "id", "") == "_known":
                    keys, where = node.args[1:]
                    if not isinstance(where, ast.Constant):
                        assert fn.name == "_parse_stag"
                        continue
                    accepted[where.value] = set(ast.literal_eval(keys))
        assert accepted.pop("config") == {"problem", "grid", "solver",
                                          "analysis", "outputs"}
        settable = {f"{where}.{key}" for where, keys in accepted.items()
                    if where.split(".")[0] not in ("problem", "grid")
                    for key in keys}
        assert settable == set(SETTABLE)
        # a setting with one value in use is a constant, not a key: each
        # key not allowed below takes two values across the bundled configs
        configs = [yaml.safe_load(p.read_text()) for p in CONFIGS.glob("*.yaml")]
        for name in set(SETTABLE) - set(ONE_VALUE_ALLOWED):
            section, key = name.split(".")
            values = {json.dumps(data[section][key]) for data in configs
                      if key in (data.get(section) or {})}
            assert len(values) >= 2, (name, values)

    def test_yaml_and_json_both_load(self, tmp_path):
        data = small_config(tmp_path)
        py = tmp_path / "c.yaml"
        py.write_text(yaml.safe_dump(data))
        pj = tmp_path / "c.json"
        pj.write_text(json.dumps(data))
        assert parse_config(yaml.safe_load(py.read_text())).problem \
            == load_config(pj).problem

    def test_provenance_roundtrip(self, tmp_path):
        # the resolved config embedded in a report can be fed back in
        data = small_config(tmp_path)
        cfg = parse_config(data)
        again = parse_config(cfg.raw)
        assert again.problem == cfg.problem
        assert again.grid == cfg.grid


class TestRun:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pipeline")
        data = small_config(tmp)
        cfg = parse_config(data)
        manifest = run(cfg)
        return Path(cfg.outputs.directory), manifest

    def test_artifacts_present(self, run_dir):
        outdir, manifest = run_dir
        for name in ("solution.field", "weiss.csv", "frequency.csv",
                     "blowup.json", "classification.json", "table1.csv",
                     "solution.svg"):
            assert (outdir / name).exists(), name

    def test_classification_corner(self, run_dir):
        outdir, manifest = run_dir
        assert manifest["classification"] == "corner"
        report = json.loads((outdir / "classification.json").read_text())
        assert report["verdict"] == "corner"
        assert "config" in report

    def test_blowup_report_embeds_config(self, run_dir):
        outdir, _ = run_dir
        report = json.loads((outdir / "blowup.json").read_text())
        assert report["config"]["problem"]["beta"] == 1.0
        assert len(report["successive_distance"]) == 2
        assert report["directions"] is not None

    def test_solution_field_loads(self, run_dir):
        outdir, _ = run_dir
        field, header = cw.load_field(outdir / "solution.field")
        assert field.grid.nx == 257
        assert np.all(field.values >= 0)
        assert header["problem"] == SMALL_CONFIG["problem"]

    def test_svg_is_wellformed(self, run_dir):
        outdir, _ = run_dir
        text = (outdir / "solution.svg").read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_oracle_only_mode(self, tmp_path):
        cfg = parse_config(small_config(tmp_path))
        manifest = run(cfg, stages=("table1",))
        assert list(manifest["outputs"]) == ["table1"]
        assert (Path(cfg.outputs.directory) / "table1.csv").exists()


class TestBuildBoundary:
    @pytest.mark.parametrize("name", SOLVED)
    def test_seed_is_the_oracle_profile(self, name):
        # on the ring, the blow-up profile of the cone about the model's
        # bisector, written out from the cone edges and degree, nonzero
        # inside the cone only; zero inside, which the solve does not read
        cfg = load_config(CONFIGS / f"{name}.yaml")
        vals, profile = build_boundary(cfg)
        spec = cfg.problem
        assert profile == blowup_limit(spec)
        assert (profile.theta1 + profile.theta2) / 2 == pytest.approx(
            spec.model.bisector, abs=1e-15)
        ring = boundary_ring(cfg.grid)
        X, Y = (a[ring] for a in cfg.grid.mesh())
        x0, y0 = spec.stagnation_location
        d = profile.degree
        rr = np.hypot(X - x0, Y - y0)
        dth = np.mod(np.arctan2(Y - y0, X - x0) - profile.theta1, 2 * math.pi)
        mode = np.where(dth <= profile.opening, np.maximum(
            np.cos(d * (profile.theta1 + dth) + profile.phi0), 0.0), 0.0)
        expected = profile.prefactor * profile.C0 * rr ** d * mode
        np.testing.assert_allclose(vals[ring], expected, rtol=1e-13, atol=0.0)
        # the values of the whole-grid evaluation, to the bit
        whole = evaluate_at_points(profile, *cfg.grid.mesh(), (x0, y0))
        assert vals[ring].tobytes() == whole[ring].tobytes()
        assert np.any(vals[ring] > 0) and np.any(vals[ring] == 0)
        assert vals.shape == ring.shape and not np.any(vals[~ring])


def cell_loop_segments(values, grid, level):
    """Marching squares over every cell, the loop the mixed-cell walk
    replaced."""
    v = values - level
    xs, ys = grid.xs(), grid.ys()
    segs = []
    neg = v < 0

    def edge_point(x1, y1, v1, x2, y2, v2):
        t = v1 / (v1 - v2)
        return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))

    for j in range(grid.ny - 1):
        for i in range(grid.nx - 1):
            idx = (int(neg[j, i]) | int(neg[j, i + 1]) << 1
                   | int(neg[j + 1, i + 1]) << 2 | int(neg[j + 1, i]) << 3)
            if idx in (0, 15):
                continue
            corners = [(xs[i], ys[j], v[j, i]), (xs[i + 1], ys[j], v[j, i + 1]),
                       (xs[i + 1], ys[j + 1], v[j + 1, i + 1]),
                       (xs[i], ys[j + 1], v[j + 1, i])]
            pts = []
            for a in range(4):
                x1, y1, v1 = corners[a]
                x2, y2, v2 = corners[(a + 1) % 4]
                if (v1 < 0) != (v2 < 0):
                    pts.append(edge_point(x1, y1, v1, x2, y2, v2))
            for a in range(0, len(pts) - 1, 2):
                segs.append((pts[a], pts[a + 1]))
    return segs


def cell_loop_rects(u):
    """The shaded cells of ``write_svg``, cell by cell: the loop the
    per-row and per-column formatting replaced."""
    g = u.grid
    step = max(1, math.ceil(max(u.values.shape) / 128))
    sub = u.values[::step, ::step]
    vmax = float(u.values.max()) or 1.0
    ext = g.extent
    sx = 640 / (ext.x_max - ext.x_min)
    sy = 640 / (ext.y_max - ext.y_min)
    cell_w = g.spacing * step * sx
    cell_h = g.spacing * step * sy
    rects = []
    for j in range(sub.shape[0]):
        for i in range(sub.shape[1]):
            val = sub[j, i]
            if val <= 0:
                continue
            shade = 255 - int(170 * min(val / vmax, 1.0))
            x = (ext.x_min + i * step * g.spacing - ext.x_min) * sx
            y = (ext.y_max - (ext.y_min + j * step * g.spacing)) * sy
            rects.append(f'<rect x="{x - cell_w / 2:.2f}" y="{y - cell_h / 2:.2f}" '
                         f'width="{cell_w:.2f}" height="{cell_h:.2f}" '
                         f'fill="rgb({shade},{shade},255)"/>')
    return rects


class TestSvg:
    def test_rect_layer_matches_cell_loop(self, type3_case, tmp_path):
        u = type3_case.result.field
        path = tmp_path / "solution.svg"
        pipeline.write_svg(u, type3_case.sp, path, type3_case.profile)
        lines = path.read_text().splitlines()
        rects = [ln for ln in lines if ln.startswith("<rect x=")]
        assert rects
        assert rects == cell_loop_rects(u)


class TestMarchingSquares:
    def test_solved_type3_field(self, type3_case):
        # the level write_svg draws
        values = type3_case.result.field.values
        level = 1e-6 * float(values.max())
        segs = _marching_segments(values, type3_case.grid, level)
        assert segs
        assert segs == cell_loop_segments(values, type3_case.grid, level)

    def test_random_field_with_saddles(self):
        grid = cw.GridSpec.from_domain(cw.Rect(-1.0, -1.0, 1.0, 0.5), 41, 31)
        values = np.random.default_rng(5).standard_normal((31, 41))
        neg = (values < 0.25).astype(int)
        cell = neg[:-1, :-1] | neg[:-1, 1:] << 1 | neg[1:, 1:] << 2 | neg[1:, :-1] << 3
        assert np.any(cell == 5) and np.any(cell == 10)
        assert _marching_segments(values, grid, 0.25) \
            == cell_loop_segments(values, grid, 0.25)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            data = small_config(tmp_path)
            data["outputs"]["directory"] = str(tmp_path / sub)
            cfg = parse_config(data)
            run(cfg)
            outs.append(Path(cfg.outputs.directory))
        for name in ("solution.field", "weiss.csv", "frequency.csv",
                     "table1.csv", "solution.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # reports embed the config including the output directory; compare
        # their payload after normalizing it
        for name in ("blowup.json", "classification.json"):
            a = json.loads((outs[0] / name).read_text())
            b = json.loads((outs[1] / name).read_text())
            a["config"]["outputs"]["directory"] = ""
            b["config"]["outputs"]["directory"] = ""
            assert a == b


def type3_config(tmp_path, theta_star, n=65):
    """corner_type3.yaml with ``theta_star`` on an n x n grid, writing
    into a directory of its own under ``tmp_path``."""
    data = yaml.safe_load((CONFIGS / "corner_type3.yaml").read_text())
    data["problem"]["stagnation"]["theta_star"] = theta_star
    data["grid"] = {"nx": n, "ny": n}
    data["outputs"]["directory"] = str(tmp_path / f"{theta_star:+.6f}")
    return data


class TestThetaStar:
    """A type-3 point's cone is the one about its theta_star: the ring
    data, the air half-plane and the profile all follow it."""

    def test_upward_cone_mirrors_the_downward(self, tmp_path):
        # theta* = pi/2 is the y-mirror of theta* = -pi/2; on 65^2 both
        # solve in 110 sweeps (at 129^2 theta* = 0 runs to the cap)
        found = []
        for theta_star in (-math.pi / 2, math.pi / 2):
            cfg = parse_config(type3_config(tmp_path, theta_star))
            manifest = run(cfg)
            out = Path(cfg.outputs.directory)
            found.append((manifest,
                          json.loads((out / "blowup.json").read_text()),
                          json.loads((out / "classification.json").read_text())))
        (m_down, b_down, c_down), (m_up, b_up, c_up) = found
        assert m_down["classification"] == m_up["classification"] == "corner"
        assert m_down["solver"]["iterations"] == m_up["solver"]["iterations"]
        assert b_up["opening"] == pytest.approx(b_down["opening"], abs=1e-12)
        assert b_up["directions"] == pytest.approx(
            [-t for t in reversed(b_down["directions"])], abs=1e-12)
        assert b_up["density_estimate"] == pytest.approx(
            b_down["density_estimate"], rel=1e-12)
        assert c_up["distance_to_corner_density"] == pytest.approx(
            c_down["distance_to_corner_density"], rel=1e-9)

    def test_every_corner_pair_bisector_parses(self, tmp_path):
        pairs = oracle.corner_pairs(2.0, 1.0)
        assert len(pairs) == 12
        for p in pairs:
            cfg = parse_config(type3_config(tmp_path, (p.theta1 + p.theta2) / 2))
            prof = blowup_limit(cfg.problem)
            assert prof.theta1 == pytest.approx(p.theta1, abs=1e-14)
            assert prof.theta2 == pytest.approx(p.theta2, abs=1e-14)

    def test_verdict_scores_its_own_cone(self, tmp_path):
        # theta* = 0 is classified against the corner density of the cone
        # its ring data traced, not the nearest of the other pairs'
        cfg = parse_config(type3_config(tmp_path, 0.0))
        run(cfg)
        report = json.loads((Path(cfg.outputs.directory)
                             / "classification.json").read_text())
        prof = blowup_limit(cfg.problem)
        assert report["best_corner_density"] \
            == corner_density(cfg.problem, prof.theta1, prof.theta2)
        assert report["distance_to_corner_density"] == abs(
            report["density_estimate"] - report["best_corner_density"])
        assert "best_pair_index" not in report

    def test_refusal_names_every_admissible_theta_star(self, tmp_path):
        # the bisectors of the twelve corner pairs of (2, 1), in (-pi, pi]
        # (through the CLI: exit 2, MALFORMED["theta_star_off_every_pair"])
        with pytest.raises(ConfigError, match="edge weights differ") as err:
            parse_config(type3_config(tmp_path, -1.0))
        listed = re.findall(r"\((-?\d+\.\d\d) deg\)", str(err.value))
        assert listed == ["-162.00", "-140.51", "-90.00", "-39.49", "-18.00",
                          "0.00", "18.00", "39.49", "90.00", "140.51",
                          "162.00", "180.00"]
        # each value as printed is a theta* the parser takes
        for value in re.findall(r"(\S+) \(-?\d+\.\d\d deg\)", str(err.value)):
            parse_config(type3_config(tmp_path, float(value)))

    def test_refusal_at_unit_exponents_states_the_rule(self, tmp_path):
        # at alpha = beta = 1 every 90 deg cone balances: theta* = 0.3 loads,
        # and a diagonal is refused by the rule, not by a finite list
        def unit(theta_star):
            data = type3_config(tmp_path, theta_star)
            data["problem"]["alpha"] = 1.0
            return data

        assert parse_config(unit(0.3)).problem.stag.theta_star == 0.3
        for theta_star in (math.pi / 4, -3 * math.pi / 4):
            with pytest.raises(ConfigError, match="edge weight vanishes") as err:
                parse_config(unit(theta_star))
            assert "off the diagonals" in str(err.value)
            assert "must be one of" not in str(err.value)
            assert not re.search(r"\d deg\)", str(err.value))

    def test_bundled_cone_about_x(self):
        # corner_type3_x.yaml is corner_type3.yaml with the cone about +x
        down = yaml.safe_load((CONFIGS / "corner_type3.yaml").read_text())
        right = yaml.safe_load((CONFIGS / "corner_type3_x.yaml").read_text())
        assert right["problem"]["stagnation"]["theta_star"] == 0.0
        down["problem"]["stagnation"]["theta_star"] = 0.0
        del down["outputs"], right["outputs"]
        assert down == right


class TestTable1Writer:
    def test_table_csv(self, tmp_path):
        # every number in 17 digits; no x0 (y0) on a type-2 (type-1) row,
        # and no force direction on the type-3 row
        p = tmp_path / "t.csv"
        write_table1(1.0, 1.0, p)

        def cell(v, absent):
            return absent if v is None else "%.17g" % v

        rows = [",".join([str(r.stag_type), r.subcase, cell(r.x0, ""),
                          cell(r.y0, ""), cell(r.theta0, "N/A"),
                          *("%.17g" % v for v in (r.opening, r.theta1,
                                                  r.theta2, r.density))])
                for r in oracle.conclusion_table(1.0, 1.0)]
        text = p.read_text(encoding="ascii")
        assert text == "\n".join(
            ["type,subcase,x0,y0,theta0,opening,theta1,theta2,density",
             *rows]) + "\n"
        assert "\n1,1.1,-1,,4.7123889803846897,2.0943951023931953," in text
        assert "\n2,2.2,,1,0," in text
        assert text.endswith("\n3,3,,,N/A,1.5707963267948966,"
                             "-2.3561944901923448,-0.78539816339744828,"
                             "0.12499999999999999\n")


class TestReproduceAll:
    @staticmethod
    def script_with_run(monkeypatch, tmp_path, verdict, converged):
        """scripts/reproduce_all.py loaded as a module, with ``run`` patched
        to write two files and report ``verdict`` and ``converged``."""
        path = CONFIGS.parent / "scripts" / "reproduce_all.py"
        spec = importlib.util.spec_from_file_location("reproduce_all", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def fake_run(cfg, stages):
            # two files written out of name order, one naming the config
            outdir = Path(cfg.outputs.directory)
            outdir.mkdir(parents=True)
            (outdir / "b.csv").write_bytes(outdir.name.encode())
            (outdir / "a.csv").write_bytes(b"1\n")
            if "classify" in stages:
                return {"outputs": {}, "classification": verdict,
                        "solver": {"iterations": 910, "converged": converged,
                                   "final_energy": 0.8311472280658553,
                                   "winner": "start@0.5"}}
            return {"outputs": {}}

        monkeypatch.setattr(script, "run", fake_run)
        monkeypatch.setattr(sys, "argv", ["reproduce_all", "--out", str(tmp_path)])
        return script

    @pytest.mark.parametrize("verdict, status", [("corner", 0), ("cusp", 1)])
    def test_exit_status_follows_verdicts(self, monkeypatch, capsys, tmp_path,
                                          verdict, status):
        script = self.script_with_run(monkeypatch, tmp_path, verdict, True)
        assert script.main() == status
        # one line per config; the solver status only where it solves; the
        # digest of the files written, in name order; then the total time
        # and the peak RSS
        *lines, total = capsys.readouterr().out.splitlines()
        assert len(lines) == len(script.CONFIGS)
        assert re.fullmatch(r"total=\d+\.\ds  maxrss=\d+KiB", total)
        for line, (name, verb) in zip(lines, script.CONFIGS):
            assert line.startswith(name)
            digest = hashlib.sha256(b"a.csv\0" + b"1\n" + b"b.csv\0"
                                    + Path(name).stem.encode()).hexdigest()
            assert line.endswith(f"  sha256={digest}")
            # no report written, so no error read
            assert "  opening_err=-  density_err=-  " in line
            if verb == "run":
                assert ("sweeps=910  converged=True  "
                        "final_energy=0.8311472280658553  ") in line
                assert "  winner=start@0.5  " in line
            else:
                assert "sweeps=-  converged=-  final_energy=-  " in line
                assert "  winner=-  " in line

    def test_errors_read_from_the_reports(self, monkeypatch, tmp_path):
        # the opening against pi/degree (72 degrees on type 3), the density
        # against the run's own corner density
        script = self.script_with_run(monkeypatch, tmp_path, "corner", True)
        cfg = load_config(CONFIGS / "corner_type3.yaml")
        cfg.outputs.directory = str(tmp_path)
        (tmp_path / "b.json").write_text(
            json.dumps({"opening": math.radians(73.5)}))
        (tmp_path / "c.json").write_text(json.dumps(
            {"distance_to_corner_density": 0.002,
             "best_corner_density": 0.04}))
        outputs = {"blowup": "b.json", "classification": "c.json"}
        assert script.errors(cfg, {"outputs": outputs}) \
            == ("1.500deg", "5.000%")
        (tmp_path / "b.json").write_text(json.dumps({"opening": None}))
        assert script.errors(cfg, {"outputs": outputs}) == ("-", "5.000%")

    def test_unconverged_solve_exits_1(self, monkeypatch, capsys, tmp_path):
        # every verdict a corner, but the solves hit their sweep budget
        script = self.script_with_run(monkeypatch, tmp_path, "corner", False)
        assert script.main() == 1
        out = capsys.readouterr().out
        assert "verdict=corner  sweeps=910  converged=False  " in out


# corner_type3.yaml with one (section, key, value) set, or None for a
# config that has only problem.alpha; and the name its error must carry
MALFORMED = {
    "missing_field": (None, "'beta'"),
    # a type-3 seed pair whose edge weights differ, in the retired
    # boundary section, which is refused by name whatever it holds
    "bad_pair": (("boundary", "pair_theta1", 0.3), "unknown field 'boundary'"),
    # the retired boundary section, with the one value every config used
    "retired_perturbation": (("boundary", "perturbation", 0.0),
                             "unknown field 'boundary'"),
    # a misspelt max_iters
    "unknown_key": (("solver", "max_iter", 100), "'max_iter'"),
    # retired analysis keys, refused by name whatever their value
    "bad_delta": (("analysis", "delta", 5.0), "unknown field 'delta'"),
    "text_density_radius": (("analysis", "density_radius", "abc"),
                            "unknown field 'density_radius'"),
    "small_reference_n": (("analysis", "reference_n", 8),
                          "unknown field 'reference_n'"),
    "radii_past_delta": (("analysis", "radii", [0.1, 0.7]),
                         "unknown field 'radii'"),
    "density_radius_past_delta": (("analysis", "density_radius", 0.7),
                                  "unknown field 'density_radius'"),
    "direction_radius_off_grid": (("analysis", "direction_radius", 3.0),
                                  "unknown field 'direction_radius'"),
    "fractional_radii_count": (("analysis", "radii",
                                {"r_min": 0.05, "r_max": 0.45, "count": 2.9}),
                               "unknown field 'radii'"),
    "one_radius_count": (("analysis", "radii",
                          {"r_min": 0.05, "r_max": 0.45, "count": 1}),
                         "unknown field 'radii'"),
    "one_radius_list": (("analysis", "radii", [0.2]), "unknown field 'radii'"),
    "text_grid_size": (("grid", "nx", "abc"), "grid.nx"),
    # blow-up schedules, used only after the solve: increasing, B_{2r}(X0)
    # past the grid's reach of 1, a radius below 0, a radius that is not a
    # number, one radius not in a list, a NaN radius and no radius (leave
    # the key out for no blow-up analysis)
    "increasing_blowup_radii": (("analysis", "blowup_radii", [0.23, 0.45]),
                                "analysis.blowup_radii"),
    "blowup_ball_off_grid": (("analysis", "blowup_radii", [0.9, 0.5]),
                             "analysis.blowup_radii"),
    "negative_blowup_radius": (("analysis", "blowup_radii", [0.2, -0.1]),
                               "analysis.blowup_radii"),
    "text_blowup_radius": (("analysis", "blowup_radii", ["abc"]),
                           "analysis.blowup_radii"),
    "scalar_blowup_radii": (("analysis", "blowup_radii", 0.3),
                            "analysis.blowup_radii"),
    "nan_blowup_radius": (("analysis", "blowup_radii", [0.45, float("nan")]),
                          "analysis.blowup_radii"),
    "empty_blowup_radii": (("analysis", "blowup_radii", []),
                           "analysis.blowup_radii"),
    # integer settings: a fractional value is not truncated, the sweep
    # budget is positive, and a grid has 16 nodes per axis or more
    "fractional_grid_size": (("grid", "nx", 257.9), "grid.nx"),
    "negative_max_iters": (("solver", "max_iters", -1), "solver.max_iters"),
    "one_node_grid": (("grid", "nx", 1), "grid needs at least 16 nodes"),
    # a float setting is finite, refused before the boundary is built
    "nan_weight_constant": (("problem", "weight_constant", float("nan")),
                            "problem.weight_constant"),
    "inf_alpha": (("problem", "alpha", float("inf")), "problem.alpha"),
    # the stagnation point and the domain, each value named by its key
    "text_theta_star": (("problem", "stagnation",
                         {"type": 3, "theta_star": "abc"}),
                        "problem.stagnation.theta_star"),
    "text_x0": (("problem", "stagnation", {"type": 1, "x0": "abc"}),
                "problem.stagnation.x0"),
    "text_y0": (("problem", "stagnation", {"type": 2, "y0": "abc"}),
                "problem.stagnation.y0"),
    # a type-3 theta* that is no corner pair's bisector
    "theta_star_off_every_pair": (("problem", "stagnation",
                                   {"type": 3, "theta_star": -1.0}),
                                  "problem.stagnation: edge weights differ"),
    "short_domain": (("problem", "domain", [-1.0, -1.0, 1.0]),
                     "problem.domain"),
    "text_domain": (("problem", "domain", [-1.0, -1.0, "abc", 1.0]),
                    "problem.domain.2"),
    # X0 on the domain edge leaves delta = 0
    "stagnation_on_edge": (("problem", "domain", [-1.0, 0.0, 1.0, 2.0]),
                           "problem.stagnation"),
    # a YAML boolean is no number, although Python counts True as 1
    "bool_max_iters": (("solver", "max_iters", True), "solver.max_iters"),
    "bool_alpha": (("problem", "alpha", True), "problem.alpha"),
    "bool_domain": (("problem", "domain", [-1.0, -1.0, True, 1.0]),
                    "problem.domain.2"),
    "bool_stagnation_type": (("problem", "stagnation", {"type": True}),
                             "problem.stagnation.type"),
    "bool_blowup_radius": (("analysis", "blowup_radii", [0.45, True]),
                           "analysis.blowup_radii"),
    # the output directory, and the retired formats key whatever its value
    "number_directory": (("outputs", "directory", 5), "outputs.directory"),
    "scalar_formats": (("outputs", "formats", "csv"), "unknown field 'formats'"),
}


def _edit(path, change):
    """A header edit that calls ``change(mapping, key)`` on the key at
    ``path`` of the header; the body bytes are kept."""
    *outer, key = path

    def edit(header, body):
        fields = json.loads(header)
        mapping = fields
        for name in outer:
            mapping = mapping[name]
        change(mapping, key)
        return json.dumps(fields).encode(), body
    return edit


def _without(*path):
    """A header edit that drops the key at ``path``."""
    return _edit(path, lambda mapping, key: mapping.pop(key))


def _with(*path, value):
    """A header edit that sets the key at ``path`` to ``value``."""
    return _edit(path, lambda mapping, key: mapping.__setitem__(key, value))


def _as_text(header, body):
    """The field in the text format of earlier versions: a header without
    the "body" tag and one ``%.17g`` line per value."""
    fields = json.loads(header)
    del fields["body"]
    values = np.frombuffer(body, dtype="<f8").tolist()
    return (json.dumps(fields, sort_keys=True).encode(),
            (("%.17g\n" * len(values)) % tuple(values)).encode("ascii"))


# a saved solution.field (header line, raw float64 body) made unreadable,
# and what the refusal names; each edit takes and returns the header line
# and the body as bytes
CORRUPT_FIELDS = {
    # the body one value short, one value long, one stray byte long
    "truncated": (lambda header, body: (header, body[:-8]),
                  "expected a body of 8712 bytes, found 8704"),
    "trailing_values": (lambda header, body: (header, body + body[-8:]),
                        "expected a body of 8712 bytes, found 8720"),
    "stray_byte": (lambda header, body: (header, body + b"\n"),
                   "expected a body of 8712 bytes, found 8713"),
    "non_json_header": (lambda header, body: (b"solution of 33 x 33", body),
                        "JSONDecodeError"),
    "header_without_body_tag": (_without("body"), "does not name a '<f8' body"),
    "big_endian_body_tag": (_with("body", value=">f8"),
                            "does not name a '<f8' body"),
    "header_without_nx": (_without("nx"), "KeyError: 'nx'"),
    "header_without_problem": (_without("problem"), "KeyError: 'problem'"),
    "header_without_alpha": (_without("problem", "alpha"), "alpha"),
    # problem values the config parser refuses; the config's alpha is 0.0
    "bool_alpha": (_with("problem", "alpha", value=False), "problem.alpha"),
    "unknown_stag_type": (_with("problem", "stagnation",
                                value={"type": "type4"}), "type4"),
    "nan_weight_constant": (_with("problem", "weight_constant", value=math.nan),
                            "problem.weight_constant"),
    "text_format": (_as_text, "does not name a '<f8' body"),
}


def child_env():
    """This process's environment with the checkout's ``src`` first on
    PYTHONPATH, for a child interpreter: pytest's ``pythonpath`` setting
    does not reach it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class TestCli:
    """The CLI called in-process, its output read back with ``capsys``; the
    ``python -m cornerwave`` entry point runs as a subprocess once, in
    ``test_solver_status_reported``."""

    @pytest.fixture
    def run_cli(self, capsys):
        def run_cli(*args):
            capsys.readouterr()
            code = cli.main(list(args))
            out, err = capsys.readouterr()
            return subprocess.CompletedProcess(args, code, out, err)
        return run_cli

    @pytest.mark.parametrize("verb", ["run", "table1", "solve"])
    @pytest.mark.parametrize("config", list(MALFORMED))
    def test_malformed_config_exit_2(self, run_cli, tmp_path, config, verb):
        bad = tmp_path / "bad.yaml"
        edit, named = MALFORMED[config]
        if edit is None:
            bad.write_text("problem: {alpha: 0.0}\n")
        else:
            data = yaml.safe_load((CONFIGS / "corner_type3.yaml").read_text())
            section, key, value = edit
            data.setdefault(section, {})[key] = value
            bad.write_text(yaml.safe_dump(data))
        out = tmp_path / "o"
        r = run_cli(verb, "--config", str(bad), "--out", str(out))
        assert r.returncode == 2, r.stderr
        rec = json.loads((out / "error.json").read_text())
        assert rec["stage"] == "config"
        assert named in rec["message"]
        # rejected before any stage ran
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_table1_verb(self, run_cli, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(yaml.safe_dump(small_config(tmp_path)))
        out = tmp_path / "t1"
        r = run_cli("table1", "--config", str(cfgp), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "table1.csv").exists()

    def test_run_verb_where_u_vanishes_near_x0(self, run_cli, tmp_path,
                                                caplog, monkeypatch):
        # the 33 x 33 solve of table1.yaml has u = 0 on the smallest profile
        # circle: the run drops frequency.csv with a warning and classifies
        out = tmp_path / "t1"
        r = run_cli("run", "--config", str(CONFIGS / "table1.yaml"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "verdict: cusp" in r.stdout
        assert "no frequency profile: circle integral of u^2 is 0" in caplog.text
        assert (out / "weiss.csv").exists()
        assert not (out / "frequency.csv").exists()
        # classify reads only the density, never the profiles
        monkeypatch.setattr(pipeline, "radial_sweep", None)
        r = run_cli("classify", "--config", str(CONFIGS / "table1.yaml"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "verdict: cusp" in r.stdout

    def test_format_option_gone(self, run_cli, tmp_path, capsys):
        # every stage writes all of its artifacts; there is no --format
        with pytest.raises(SystemExit) as exc:
            run_cli("table1", "--config", str(CONFIGS / "table1.yaml"),
                    "--out", str(tmp_path / "f"), "--format", "csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_overrides_reach_the_embedded_config(self, run_cli, tmp_path):
        # the config embedded in the JSON reports reads back with the
        # --out of the run
        out = tmp_path / "o"
        r = run_cli("run", "--config", str(CONFIGS / "corner_type3.yaml"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        for name in ("blowup.json", "classification.json"):
            embedded = json.loads((out / name).read_text())["config"]
            assert parse_config(embedded).outputs.directory == str(out)

    def test_analyze_without_solution_exit_4(self, run_cli, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(yaml.safe_dump(small_config(tmp_path)))
        out = tmp_path / "empty"
        r = run_cli("analyze", "--config", str(cfgp), "--out", str(out))
        assert r.returncode == 4

    def test_solver_status_reported(self, tmp_path):
        # a solve stopped by max_iters is reported, not silently shipped;
        # run through the ``python -m cornerwave`` entry point, where the
        # pipeline's logging warning reaches stderr
        data = small_config(tmp_path, grid={"nx": 33, "ny": 33},
                            solver={"max_iters": 20})
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(yaml.safe_dump(data))
        r = subprocess.run([sys.executable, "-m", "cornerwave", "solve",
                            "--config", str(cfgp)],
                           capture_output=True, text=True, env=child_env())
        assert r.returncode == 0, r.stderr
        assert ("solver: converged=False iterations=20 "
                "message=max_iters hit before the flow settled") in r.stdout
        # and which of the nine scored states it returns
        assert re.search(r" winner=(start|flow)@(0|0\.25|0\.5|0\.75|1)\n",
                         r.stdout)
        assert "solver did not converge after 20 sweeps" in r.stderr

    @staticmethod
    def scipy_modules_after(code, *argv):
        # the scipy modules loaded by ``code`` in a fresh interpreter, as
        # this one has imported scipy for the tests.  The program needs
        # none; importing it costs every CLI process about a third of a
        # second.
        script = ("import sys\n" + code + "\nprint(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))\n")
        r = subprocess.run([sys.executable, "-c", script, *argv],
                           capture_output=True, text=True, env=child_env())
        assert r.returncode == 0, r.stderr
        return r.stdout.splitlines()[-1]

    def test_run_imports_no_scipy(self, tmp_path):
        code = ("from cornerwave import cli\n"
                "assert cli.main(['run', '--config', sys.argv[1],\n"
                "                 '--out', sys.argv[2]]) == 0")
        assert self.scipy_modules_after(code, str(CONFIGS / "table1.yaml"),
                                        str(tmp_path / "o")) == "[]"

    def test_import_loads_no_scipy(self):
        assert self.scipy_modules_after("import cornerwave.cli") == "[]"

    def test_staged_verbs_check_the_saved_field(self, run_cli, tmp_path):
        # a solution.field solved for another problem or grid than the
        # config is refused, not analysed as if it fitted
        data = small_config(tmp_path)
        run(parse_config(data), stages=("solve",))
        out = Path(data["outputs"]["directory"])
        for section, edit in (("problem", {"beta": 2.0}),
                              ("grid", {"nx": 129, "ny": 129})):
            edited = json.loads(json.dumps(data))
            edited[section].update(edit)
            cfgp = tmp_path / "c.yaml"
            cfgp.write_text(yaml.safe_dump(edited))
            for verb in ("analyze", "classify"):
                r = run_cli(verb, "--config", str(cfgp))
                assert r.returncode == 4, (section, verb, r.stdout)
                assert "solution.field was solved for another problem" in r.stderr
                assert json.loads((out / "error.json").read_text())["stage"] \
                    == "analysis"

    def saved_field_edited(self, tmp_path, edit):
        """A config's output directory holding its 33 x 33 solve's
        solution.field split at the header line, edited by ``edit`` and
        joined again; returns the config's path and the directory."""
        data = small_config(tmp_path, grid={"nx": 33, "ny": 33})
        run(parse_config(data), stages=("solve",))
        out = Path(data["outputs"]["directory"])
        path = out / "solution.field"
        header, body = edit(*path.read_bytes().split(b"\n", 1))
        path.write_bytes(header + b"\n" + body)
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(yaml.safe_dump(data))
        return cfgp, out

    @pytest.mark.parametrize("verb", ["analyze", "classify"])
    @pytest.mark.parametrize("corrupt", list(CORRUPT_FIELDS))
    def test_corrupt_solution_field_exit_4(self, run_cli, tmp_path, corrupt,
                                           verb):
        # a saved field that cannot be read is an analysis error with its
        # record, not a traceback
        edit, named = CORRUPT_FIELDS[corrupt]
        cfgp, out = self.saved_field_edited(tmp_path, edit)
        r = run_cli(verb, "--config", str(cfgp))
        assert r.returncode == 4, r.stderr
        assert "analysis error: cannot read solution.field" in r.stderr
        assert named in r.stderr
        rec = json.loads((out / "error.json").read_text())
        assert rec["stage"] == "analysis"
        assert rec["message"].startswith("cannot read solution.field")

    @pytest.mark.parametrize("verb", ["analyze", "classify"])
    def test_unedited_solution_field_read(self, run_cli, tmp_path, verb):
        # the control of the corrupt fields: split and joined unedited, the
        # saved field is read and analysed
        cfgp, out = self.saved_field_edited(tmp_path,
                                            lambda header, body: (header, body))
        r = run_cli(verb, "--config", str(cfgp))
        assert r.returncode == 0, r.stderr
        assert not (out / "error.json").exists()

    def test_solve_then_analyze_then_classify(self, run_cli, tmp_path):
        data = small_config(tmp_path)
        out = tmp_path / "staged"
        data["outputs"]["directory"] = str(out)
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(yaml.safe_dump(data))
        r = run_cli("solve", "--config", str(cfgp))
        assert r.returncode == 0
        assert "solver: converged=True" in r.stdout
        assert (out / "solution.field").exists()
        assert run_cli("analyze", "--config", str(cfgp)).returncode == 0
        assert (out / "weiss.csv").exists()
        r = run_cli("classify", "--config", str(cfgp))
        assert r.returncode == 0
        assert "verdict: corner" in r.stdout
