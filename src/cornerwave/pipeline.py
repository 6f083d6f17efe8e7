"""Config-driven orchestration: build a problem, solve, analyze, classify,
and emit deterministic reports.

A run consumes one YAML config (JSON is accepted too, YAML being a
superset) and each stage it runs writes all of its artifacts, inside the
output directory:

    solution.field        persisted solver output (JSON header line +
                          raw little-endian float64 values, row-major)
    weiss.csv             r, M, dM_numeric, remainder, remainder_integral, J1
    frequency.csv         r, D, V1, V2, V, H
    blowup.json           radii, successive distances, homogeneity residual,
                          density, directions (+ the resolved config)
    rescale_<k>.field     the rescaled fields of the blow-up schedule, in
                          the same format
    classification.json   corner/cusp/flat verdict with distances
    table1.csv            per-subcase openings, cone edges, densities
    solution.svg          contour plot + free boundary + predicted cone edges

The .field files hold the float64 values themselves, so they round-trip
bit-exactly.  The CSV, JSON and SVG artifacts are text with no
timestamps: CSV floats carry 17 significant digits, JSON floats their
round-trip repr and SVG pixel coordinates two decimals, so identical
configs reproduce byte-identical artifacts.  The three CSV files are
written by ``write_csv``, the one place that knows their format.  The
resolved config is embedded in every JSON report and can itself be fed
back as a config (provenance round-trip).

``parse_config`` checks every setting, naming its key, before any stage
runs.  Outside ``problem:`` and ``grid:`` three values are settable:
``solver.max_iters``, ``analysis.blowup_radii`` and
``outputs.directory``.  The solver's ring data is always the oracle's
blow-up profile.  A saved solution.field is analysed only for the
problem and grid it was solved for: its header carries the config's
``problem:`` mapping as written, read back by ``_parse_problem``, the
parser of that block.

The analysis works on balls B_r(X0) shrinking toward the stagnation point
X0 inside a fixed neighbourhood of radius delta, half the distance from X0
to the domain edge (``stagnation_point``).  Its scales are fixed fractions
of delta, so they follow the problem and are not settings:

    Weiss and frequency radii   32 log-spaced radii from 0.1 to 0.9 delta
    density estimate            on B_{0.6 delta}
    asymptotic directions       on annuli out to 0.9 delta
    rescaled fields             on the 129 x 129 reference grid

Only the blow-up radius schedule is set, as ``analysis.blowup_radii``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import blowup as bw
from . import oracle
from .domain import (DegenerateDenominator, GridSpec, ProblemSpec, Rect,
                     ScalarField, StagnationPoint, Type1, Type2, Type3,
                     load_field, save_field, stagnation_point)
from .energy import SolverParams, SolveResult, minimize_energy
from .frequency import frequency_profile
from .weiss import radial_sweep, weiss_profile

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad or missing configuration; exit code 2."""


class SolverError(Exception):
    """Failure inside the solve stage; exit code 3."""


class AnalysisError(Exception):
    """Failure inside an analysis stage; exit code 4."""


def _need(mapping: dict, key: str, where: str):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"missing field '{key}' in {where}")
    return mapping[key]


def _known(mapping, keys: tuple[str, ...], where: str) -> dict:
    """The mapping itself; ConfigError names the first key not in ``keys``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"unknown field '{key}' in {where}")
    return mapping


def _number(mapping: dict, key: str, where: str, default=None, kind=float,
            required: bool = False):
    """``mapping[key]`` as a ``kind`` (float or int), ``default`` when it
    is absent or null (a missing-field error when ``required``);
    ConfigError names the key when the value is not a finite number, or
    not a whole one for an int.  A boolean is no number, although Python
    counts True as 1."""
    value = _need(mapping, key, where) if required else mapping.get(key)
    if value is None:
        return default
    if isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be a number, not {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}.{key} must be a number, not {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, not {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(
                f"{where}.{key} must be a whole number, not {value!r}")
        return int(number)
    return number


def _check(key: str, validate, *args):
    """``validate(*args)``, its ValueError a ConfigError naming ``key``."""
    try:
        return validate(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class OutputConfig:
    directory: str = "out"


@dataclass
class PipelineConfig:
    problem: ProblemSpec
    grid: GridSpec
    solver: SolverParams
    blowup_radii: list[float]
    outputs: OutputConfig
    raw: dict


def _parse_stag(d: dict) -> Type1 | Type2 | Type3:
    where = "problem.stagnation"
    kind = _need(d, "type", where)
    if isinstance(kind, bool):   # True == 1 would read as type 1
        raise ConfigError(f"{where}.type must be 1, 2 or 3, not {kind!r}")
    if kind in (1, "1", "type1"):
        _known(d, ("type", "x0", "theta0"), where)
        return Type1(x0=_number(d, "x0", where, required=True),
                     theta0=_number(d, "theta0", where, 3 * math.pi / 2))
    if kind in (2, "2", "type2"):
        _known(d, ("type", "y0", "theta0"), where)
        return Type2(y0=_number(d, "y0", where, required=True),
                     theta0=_number(d, "theta0", where, 0.0))
    if kind in (3, "3", "type3"):
        _known(d, ("type", "theta_star"), where)
        return Type3(theta_star=_number(d, "theta_star", where, -math.pi / 2))
    raise ConfigError(f"unknown stagnation type {kind!r}")


def _parse_domain(prob: dict) -> Rect:
    corners = _need(prob, "domain", "problem")
    if not isinstance(corners, list) or len(corners) != 4:
        raise ConfigError("problem.domain must be four numbers [x_min, y_min, "
                          f"x_max, y_max], not {corners!r}")
    entries = dict(enumerate(corners))
    return Rect(*(_number(entries, i, "problem.domain", required=True)
                  for i in range(4)))


def _parse_problem(mapping) -> ProblemSpec:
    """The ``problem:`` block of a config, or the problem of a saved
    field's header, as a ProblemSpec."""
    prob = _known(mapping, ("alpha", "beta", "domain", "stagnation",
                            "weight_constant"), "problem")
    spec = ProblemSpec(
        alpha=_number(prob, "alpha", "problem", required=True),
        beta=_number(prob, "beta", "problem", required=True),
        stag=_parse_stag(_need(prob, "stagnation", "problem")),
        domain=_parse_domain(prob),
        weight_constant=_number(prob, "weight_constant", "problem", 1.0))
    # every analysis scale is a fraction of delta, which must be positive
    _check("problem.stagnation", stagnation_point, spec)
    return spec


def parse_config(data: dict) -> PipelineConfig:
    """The config as typed settings.  Every mapping is checked against the
    keys read from it, so a mistyped or retired key is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    try:
        _known(data, ("problem", "grid", "solver", "analysis", "outputs"),
               "config")
        spec = _parse_problem(_need(data, "problem", "config"))
        grid_cfg = _known(_need(data, "grid", "config"), ("nx", "ny"), "grid")
        grid = GridSpec.from_domain(
            spec.domain, _number(grid_cfg, "nx", "grid", kind=int, required=True),
            _number(grid_cfg, "ny", "grid", kind=int, required=True))
        sol = _known(data.get("solver") or {}, ("max_iters",), "solver")
        solver = SolverParams(
            max_iters=_number(sol, "max_iters", "solver", 6000, int))
        if solver.max_iters < 1:
            raise ConfigError("solver.max_iters must be at least 1, "
                              f"not {solver.max_iters}")
        ana = _known(data.get("analysis") or {}, ("blowup_radii",), "analysis")
        # checked here, not when the blow-up runs after the solve
        blowup_radii = ana.get("blowup_radii")
        blowup_radii = [] if blowup_radii is None else _check(
            "analysis.blowup_radii", bw.check_schedule, blowup_radii, grid,
            spec.stagnation_location)
        out = _known(data.get("outputs") or {}, ("directory",), "outputs")
        directory = out.get("directory", "out")
        if not isinstance(directory, str):
            raise ConfigError(
                f"outputs.directory must be a string, not {directory!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(problem=spec, grid=grid, solver=solver,
                          blowup_radii=blowup_radii,
                          outputs=OutputConfig(directory), raw=data)


def load_config(path) -> PipelineConfig:
    """The config in the YAML file at ``path``, parsed by PyYAML's safe
    loader, in its libyaml form where PyYAML was built with it."""
    try:
        data = yaml.load(Path(path).read_text(encoding="utf-8"),
                         Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# stage: boundary data

def build_boundary(cfg: PipelineConfig):
    """Full-grid array whose ring supplies the Dirichlet data, the oracle's
    blow-up profile (on type 3, that of the downward axis-symmetric
    pair), and that profile."""
    spec = cfg.problem
    profile = oracle.blowup_limit(spec, oracle.angle_pair(spec.alpha, spec.beta))
    X, Y = cfg.grid.mesh()
    vals = oracle.evaluate_at_points(profile, X, Y, spec.stagnation_location)
    return np.asarray(vals), profile


# ---------------------------------------------------------------------------
# stages

def run_solve(cfg: PipelineConfig) -> tuple[SolveResult, object]:
    try:
        bd, profile = build_boundary(cfg)
        result = minimize_energy(cfg.problem, cfg.grid, bd, cfg.solver)
    except Exception as exc:
        raise SolverError(f"solve stage failed: {exc}") from exc
    return result, profile


def run_analysis(cfg: PipelineConfig, u: ScalarField, sp: StagnationPoint):
    """The Weiss and frequency profiles (no frequency profile, with a warning,
    where u vanishes on a circle) and the blow-up analysis, if scheduled."""
    try:
        sweep = radial_sweep(cfg.problem, u, sp, bw.profile_radii(sp))
        wp = weiss_profile(sweep)
        try:
            fp = frequency_profile(sweep)
        except DegenerateDenominator as exc:
            log.warning("no frequency profile: %s", exc)
            fp = None
        br = bw.blowup_analysis(cfg.problem, u, sp, cfg.blowup_radii) \
            if cfg.blowup_radii else None
    except Exception as exc:
        raise AnalysisError(f"analysis stage failed: {exc}") from exc
    return wp, fp, br


def run_classify(cfg: PipelineConfig, density: float):
    try:
        spec = cfg.problem
        if spec.model.bisector is None:  # type 3: every corner pair
            pairs = oracle.corner_pairs(spec.alpha, spec.beta)
            corner = [oracle.corner_density(spec, p.theta1, p.theta2) for p in pairs]
        else:
            prof = oracle.blowup_limit(spec)
            corner = oracle.corner_density(spec, prof.theta1, prof.theta2)
        full = oracle.full_ball_density(spec)
        return bw.classify(density, corner, full)
    except Exception as exc:
        raise AnalysisError(f"classification failed: {exc}") from exc


# ---------------------------------------------------------------------------
# writers

def _json_dump(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


_FLOAT = "%.17g"   # round-trips float64 bit-exactly


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and then one comma-separated line per row: a
    ``str`` cell as it is, any other cell as ``%.17g``.  The file ends
    with a newline and is ASCII."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _FLOAT % c
                              for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_table1(alpha: float, beta: float, path) -> None:
    rows = oracle.conclusion_table(alpha, beta)
    write_csv(path, "type,subcase,x0,y0,theta0,opening,theta1,theta2,density",
              [(r.stag_type, r.subcase, "" if r.x0 is None else r.x0,
                "" if r.y0 is None else r.y0,
                "N/A" if r.theta0 is None else r.theta0,
                r.opening, r.theta1, r.theta2, r.density) for r in rows])


def _marching_segments(values: np.ndarray, grid: GridSpec, level: float):
    """Line segments of the level set by marching squares (no chaining),
    cell by cell in row-major order.  Only the mixed cells, those with
    corners on both sides of the level, are visited, all at once: each
    cell's crossing points, in the order of its edges (bottom, right,
    top, left), pair up into its segments."""
    v = values - level
    xs, ys = grid.xs(), grid.ys()
    neg = (v < 0).astype(np.uint8)
    cell = neg[:-1, :-1] | neg[:-1, 1:] << 1 | neg[1:, 1:] << 2 | neg[1:, :-1] << 3
    J, I = np.nonzero((cell != 0) & (cell != 15))
    # corners counter-clockwise from (i, j); edge a runs from corner a to
    # corner a + 1
    ci = np.stack([I, I + 1, I + 1, I], axis=1)
    cj = np.stack([J, J, J + 1, J + 1], axis=1)
    x, y, val = xs[ci], ys[cj], v[cj, ci]
    x2, y2, v2 = (np.roll(c, -1, axis=1) for c in (x, y, val))
    cross = (val < 0) != (v2 < 0)
    x, y, val, x2, y2, v2 = (c[cross] for c in (x, y, val, x2, y2, v2))
    t = val / (val - v2)
    pts = list(zip((x + t * (x2 - x)).tolist(), (y + t * (y2 - y)).tolist()))
    return list(zip(pts[0::2], pts[1::2]))


def write_svg(u: ScalarField, sp: StagnationPoint, path, profile) -> None:
    """Grayscale contour of u on a 640-pixel square, the free-boundary
    polyline, and the predicted cone edges of ``profile``."""
    size = 640
    g = u.grid
    # at most 128 shaded cells per side
    step = max(1, math.ceil(max(u.values.shape) / 128))
    sub = u.values[::step, ::step]
    vmax = float(u.values.max()) or 1.0
    ext = g.extent
    sx = size / (ext.x_max - ext.x_min)
    sy = size / (ext.y_max - ext.y_min)

    def to_px(x, y):
        return ((x - ext.x_min) * sx, (ext.y_max - y) * sy)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    cell_w = g.spacing * step * sx
    cell_h = g.spacing * step * sy
    # the cell's left edge depends on its column only, its top on its row
    left = [f"{to_px(ext.x_min + i * step * g.spacing, 0.0)[0] - cell_w / 2:.2f}"
            for i in range(sub.shape[1])]
    top = [f"{to_px(0.0, ext.y_min + j * step * g.spacing)[1] - cell_h / 2:.2f}"
           for j in range(sub.shape[0])]
    size_attrs = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    shaded = sub > 0
    shades = 255 - (170 * np.minimum(sub[shaded] / vmax, 1.0)).astype(int)
    for j, i, shade in zip(*np.nonzero(shaded), shades.tolist()):
        parts.append(f'<rect x="{left[i]}" y="{top[j]}" {size_attrs} '
                     f'fill="rgb({shade},{shade},255)"/>')
    level = 1e-6 * vmax
    for (p1, p2) in _marching_segments(u.values, g, level):
        a, b = to_px(*p1), to_px(*p2)
        parts.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                     f'y2="{b[1]:.2f}" stroke="black" stroke-width="1"/>')
    x0, y0 = sp.location
    L = 0.9 * sp.delta * 2
    for th in (profile.theta1, profile.theta2):
        a = to_px(x0, y0)
        b = to_px(x0 + L * math.cos(th), y0 + L * math.sin(th))
        parts.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                     f'y2="{b[1]:.2f}" stroke="red" stroke-width="1.5" '
                     f'stroke-dasharray="6,4"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# orchestration

def run(cfg: PipelineConfig,
        stages=("solve", "analyze", "classify", "table1")) -> dict:
    """Execute the requested stages; returns a manifest of written files."""
    outdir = Path(cfg.outputs.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"outputs": {}}
    spec = cfg.problem
    sp = stagnation_point(spec)

    def output(key: str, name: str) -> Path:
        """The path of an output file, entered in the manifest."""
        manifest["outputs"][key] = name
        return outdir / name

    if "table1" in stages:
        write_table1(spec.alpha, spec.beta, output("table1", "table1.csv"))

    solution = None
    if "solve" in stages:
        result, profile = run_solve(cfg)
        solution = result.field
        save_field(solution, output("solution", "solution.field"),
                   problem=cfg.raw["problem"])
        manifest["solver"] = {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_energy": result.energy,
            "message": result.message,
            "winner": f"{result.winner.source}@{result.winner.trim:g}",
        }
        if not result.converged:
            log.warning("solver did not converge after %d sweeps: %s",
                        result.iterations, result.message)

    if {"analyze", "classify"} & set(stages) and solution is None:
        p = outdir / "solution.field"
        if not p.exists():
            raise AnalysisError("no solution field available; run solve first")
        try:
            solution, header = load_field(p)
            # the saved solve must be of the config's problem on its grid
            fits = _parse_problem(header["problem"]) == spec \
                and solution.grid == cfg.grid
        except (ConfigError, LookupError, OSError, TypeError,
                ValueError) as exc:
            raise AnalysisError("cannot read solution.field: "
                                f"{type(exc).__name__}: {exc}") from exc
        if not fits:
            raise AnalysisError("solution.field was solved for another "
                                "problem or grid than the config")

    br = None
    if "analyze" in stages:
        wp, fp, br = run_analysis(cfg, solution, sp)
        write_csv(output("weiss", "weiss.csv"),
                  "r,M,dM_numeric,remainder,remainder_integral,J1",
                  zip(*astuple(wp)))
        if fp is not None:
            write_csv(output("frequency", "frequency.csv"),
                      "r,D,V1,V2,V,H", zip(*astuple(fp)))
        if br is not None:
            rescale_names = [f"rescale_{k}.field"
                             for k in range(len(br.rescaled_fields))]
            for name, f in zip(rescale_names, br.rescaled_fields):
                save_field(f, outdir / name)
            est = br.direction_report
            _json_dump({
                "config": cfg.raw,
                "radii_used": br.radii_used,
                "successive_distance": br.successive_distance,
                "homogeneity_residual": br.homogeneity_residual,
                "density_estimate": br.density_estimate,
                "directions": [est.theta1, est.theta2] if est else None,
                "opening": est.opening if est else None,
                "disconnected": est.disconnected if est else None,
                "rescaled_fields": rescale_names,
            }, output("blowup", "blowup.json"))
    if "classify" in stages:
        try:  # the blow-up analysis reads the same density
            density = br.density_estimate if br is not None \
                else bw.stagnation_density(spec, solution, sp)
        except Exception as exc:
            raise AnalysisError(f"analysis stage failed: {exc}") from exc
        report = run_classify(cfg, density)
        _json_dump({"config": cfg.raw, **asdict(report)},
                   output("classification", "classification.json"))
        manifest["classification"] = report.verdict
    if "solve" in stages:
        write_svg(solution, sp, output("svg", "solution.svg"), profile)
    return manifest


def write_error_record(outdir, stage: str, exc: Exception) -> None:
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        _json_dump({"stage": stage, "error": type(exc).__name__,
                    "message": str(exc)}, Path(outdir) / "error.json")
    except OSError:
        pass
