"""Config-driven orchestration: build a problem, solve, analyze, classify,
and emit deterministic reports.

A run consumes one YAML config (JSON is accepted too, YAML being a
superset) and produces, inside the output directory:

    solution.field        persisted solver output (JSON header + values)
    weiss.csv             r, M, dM_numeric, remainder, remainder_integral, J1
    frequency.csv         r, D, V1, V2, V, H
    blowup.json           radii, successive distances, homogeneity residual,
                          density, directions (+ the resolved config)
    rescale_<k>.field     the rescaled fields of the blow-up schedule
    classification.json   corner/cusp/flat verdict with distances
    table1.csv            per-subcase openings, cone edges, densities
    solution.svg          contour plot + free boundary + predicted cone edges

All floating-point output is written with 17 significant digits and no
timestamps, so identical configs reproduce byte-identical artifacts.  The
resolved config is embedded in every JSON report and can itself be fed
back as a config (provenance round-trip).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import blowup as bw
from . import oracle
from .domain import (GridSpec, ProblemSpec, Rect, ScalarField, StagnationPoint,
                     Type1, Type2, Type3, _fmt, load_field, save_field,
                     stagnation_point)
from .energy import SolverParams, SolveResult, minimize_energy
from .frequency import frequency_profile
from .weiss import radial_sweep, weiss_profile

FORMATS = ("csv", "json", "svg")

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad or missing configuration; exit code 2."""


class SolverError(Exception):
    """Failure inside the solve stage; exit code 3."""


class AnalysisError(Exception):
    """Failure inside an analysis stage; exit code 4."""


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
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


def _float_or_none(mapping: dict, key: str, where: str) -> float | None:
    """``mapping[key]`` as a float, None when it is absent or null;
    ConfigError names the key when the value is not a number."""
    value = mapping.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}.{key} must be a number, not {value!r}") from None


@dataclass
class BoundaryConfig:
    perturbation: float = 0.0       # amplitude of the decaying same-cone mode
    pair_theta1: float | None = None  # type-3 seed pair
    init: str = "hull"              # hull | oracle


@dataclass
class AnalysisConfig:
    delta: float | None = None
    radii: list[float] = field(default_factory=list)
    blowup_radii: list[float] = field(default_factory=list)
    density_radius: float | None = None
    direction_radius: float | None = None
    reference_n: int = 129


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = FORMATS


@dataclass
class PipelineConfig:
    problem: ProblemSpec
    grid: GridSpec
    solver: SolverParams
    boundary: BoundaryConfig
    analysis: AnalysisConfig
    outputs: OutputConfig
    raw: dict = field(default_factory=dict)


def _parse_stag(d: dict) -> Type1 | Type2 | Type3:
    where = "problem.stagnation"
    kind = _need(d, "type", where)
    if kind in (1, "1", "type1"):
        _known(d, ("type", "x0", "theta0"), where)
        return Type1(x0=_need(d, "x0", where),
                     theta0=d.get("theta0", 3 * math.pi / 2))
    if kind in (2, "2", "type2"):
        _known(d, ("type", "y0", "theta0"), where)
        return Type2(y0=_need(d, "y0", where),
                     theta0=d.get("theta0", 0.0))
    if kind in (3, "3", "type3"):
        _known(d, ("type", "theta_star"), where)
        return Type3(theta_star=d.get("theta_star", -math.pi / 2))
    raise ConfigError(f"unknown stagnation type {kind!r}")


def parse_config(data: dict) -> PipelineConfig:
    """The config as typed settings.  Every mapping is checked against the
    keys read from it, so a mistyped or retired key is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    try:
        _known(data, ("problem", "grid", "solver", "boundary", "analysis",
                      "outputs"), "config")
        prob = _known(_need(data, "problem", "config"),
                      ("alpha", "beta", "domain", "stagnation",
                       "weight_constant"), "problem")
        alpha = _need(prob, "alpha", "problem")
        beta = _need(prob, "beta", "problem")
        dom = _need(prob, "domain", "problem")
        spec = ProblemSpec(
            alpha=float(alpha), beta=float(beta),
            stag=_parse_stag(_need(prob, "stagnation", "problem")),
            domain=Rect(*[float(v) for v in dom]),
            weight_constant=float(prob.get("weight_constant", 1.0)))
        grid_cfg = _known(_need(data, "grid", "config"), ("nx", "ny"), "grid")
        grid = GridSpec.from_domain(spec.domain,
                                    int(_need(grid_cfg, "nx", "grid")),
                                    int(_need(grid_cfg, "ny", "grid")))
        sol = _known(data.get("solver") or {}, ("max_iters",), "solver")
        solver = SolverParams(max_iters=int(sol.get("max_iters", 6000)))
        bnd = _known(data.get("boundary") or {},
                     ("source", "perturbation", "pair_theta1", "init"),
                     "boundary")
        # the boundary data is always the oracle's blow-up profile; the
        # key stays readable because checked-in configs spell it out
        if bnd.get("source", "oracle") != "oracle":
            raise ConfigError(f"unknown boundary source {bnd['source']!r}")
        boundary = BoundaryConfig(
            perturbation=float(bnd.get("perturbation", 0.0)),
            pair_theta1=_float_or_none(bnd, "pair_theta1", "boundary"),
            init=bnd.get("init", "hull"))
        if boundary.init not in ("hull", "oracle"):
            raise ConfigError(f"unknown solver init {boundary.init!r}")
        if boundary.pair_theta1 is not None:
            # the pair seeds type-3 boundary data and the table's type-3 row
            oracle.angle_pair(spec.alpha, spec.beta, boundary.pair_theta1)
        ana = _known(data.get("analysis") or {},
                     ("delta", "radii", "blowup_radii", "density_radius",
                      "direction_radius", "reference_n"), "analysis")
        radii = _radii_list(ana.get("radii"))
        analysis = AnalysisConfig(
            delta=_float_or_none(ana, "delta", "analysis"),
            radii=radii,
            blowup_radii=[float(r) for r in ana.get("blowup_radii", [])],
            density_radius=_float_or_none(ana, "density_radius", "analysis"),
            direction_radius=_float_or_none(ana, "direction_radius",
                                            "analysis"),
            reference_n=int(ana.get("reference_n", 129)))
        # checked here, so a bad delta fails before the solve, not after it
        stagnation_point(spec, analysis.delta)
        out = _known(data.get("outputs") or {}, ("directory", "formats"),
                     "outputs")
        formats = check_formats(out.get("formats", FORMATS))
        outputs = OutputConfig(directory=out.get("directory", "out"), formats=formats)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(problem=spec, grid=grid, solver=solver,
                          boundary=boundary, analysis=analysis,
                          outputs=outputs, raw=data)


def check_formats(formats) -> tuple[str, ...]:
    """The output formats as a tuple; ConfigError names an unknown one."""
    formats = tuple(formats)
    for f in formats:
        if f not in FORMATS:
            raise ConfigError(f"unknown output format {f!r}")
    return formats


def _radii_list(spec) -> list[float]:
    if spec is None:
        return []
    if isinstance(spec, (list, tuple)):
        return [float(r) for r in spec]
    if isinstance(spec, dict):
        _known(spec, ("r_min", "r_max", "count", "log"), "analysis.radii")
        r0 = float(_need(spec, "r_min", "analysis.radii"))
        r1 = float(_need(spec, "r_max", "analysis.radii"))
        n = int(_need(spec, "count", "analysis.radii"))
        if spec.get("log", True):
            return list(np.geomspace(r0, r1, n))
        return list(np.linspace(r0, r1, n))
    raise ConfigError("analysis.radii must be a list or {r_min, r_max, count}")


def load_config(path) -> PipelineConfig:
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# stage: boundary data

def build_boundary(cfg: PipelineConfig):
    """Full-grid array whose ring supplies the Dirichlet data (the blow-up
    profile, plus the optional perturbation mode), and that profile."""
    spec = cfg.problem
    # the seed pair is read for type 3 only
    pair = oracle.angle_pair(spec.alpha, spec.beta, cfg.boundary.pair_theta1)
    profile = oracle.blowup_limit(spec, pair)
    X, Y = cfg.grid.mesh()
    x0, y0 = spec.stagnation_location
    vals = oracle.evaluate_at_points(profile, X, Y, (x0, y0))
    if cfg.boundary.perturbation:
        # same-cone mode one power of r above the blow-up degree: decays
        # linearly under rescaling, giving a measurable convergence rate
        d = profile.degree
        rr = np.hypot(X - x0, Y - y0)
        th = np.arctan2(Y - y0, X - x0)
        dth = np.mod(th - profile.theta1, 2 * math.pi)
        inside = dth <= profile.opening
        mode = np.where(inside, np.maximum(
            np.cos(d * (profile.theta1 + dth) + profile.phi0), 0.0), 0.0)
        vals = vals + cfg.boundary.perturbation * profile.prefactor * profile.C0 \
            * rr ** (d + 1.0) * mode
    return np.asarray(vals), profile


# ---------------------------------------------------------------------------
# stages

def run_solve(cfg: PipelineConfig) -> tuple[SolveResult, object]:
    try:
        bd, profile = build_boundary(cfg)
        initial = None
        if cfg.boundary.init == "oracle":
            initial = ScalarField(cfg.grid, bd.copy())
        result = minimize_energy(cfg.problem, cfg.grid, bd, cfg.solver,
                                 initial=initial)
    except Exception as exc:
        raise SolverError(f"solve stage failed: {exc}") from exc
    return result, profile


def run_analysis(cfg: PipelineConfig, u: ScalarField):
    try:
        sp = stagnation_point(cfg.problem, cfg.analysis.delta)
        wp = fp = None
        if cfg.analysis.radii:
            sweep = radial_sweep(cfg.problem, u, sp, cfg.analysis.radii)
            wp = weiss_profile(sweep)
            fp = frequency_profile(sweep)
        br = bw.blowup_analysis(
            cfg.problem, u, sp, cfg.analysis.blowup_radii,
            reference_n=cfg.analysis.reference_n,
            density_radius=cfg.analysis.density_radius,
            direction_radius=cfg.analysis.direction_radius) \
            if cfg.analysis.blowup_radii else None
        return sp, wp, fp, br
    except Exception as exc:
        raise AnalysisError(f"analysis stage failed: {exc}") from exc


def run_classify(cfg: PipelineConfig, sp: StagnationPoint, density: float):
    try:
        spec = cfg.problem
        if spec.model.bisector is None:  # type 3: every corner pair
            pairs = oracle.corner_pairs(spec.alpha, spec.beta)
            corner = [oracle.corner_density(spec, p.theta1, p.theta2) for p in pairs]
        else:
            prof = oracle.blowup_limit(spec)
            corner = oracle.corner_density(spec, prof.theta1, prof.theta2)
        full = oracle.full_ball_density(spec)
        return bw.classify(spec, density, sp, corner, full)
    except Exception as exc:
        raise AnalysisError(f"classification failed: {exc}") from exc


# ---------------------------------------------------------------------------
# writers

def _json_dump(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def write_table1(alpha: float, beta: float, path,
                 pair_theta1: float | None = None) -> None:
    rows = oracle.conclusion_table(alpha, beta,
                                   pair=oracle.angle_pair(alpha, beta, pair_theta1))
    lines = ["type,subcase,x0,y0,theta0,opening,theta1,theta2,density"]
    for r in rows:
        lines.append(",".join([
            str(r.stag_type), r.subcase,
            _fmt(r.x0) if r.x0 is not None else "",
            _fmt(r.y0) if r.y0 is not None else "",
            _fmt(r.theta0) if r.theta0 is not None else "N/A",
            _fmt(r.opening), _fmt(r.theta1), _fmt(r.theta2), _fmt(r.density)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _marching_segments(values: np.ndarray, grid: GridSpec, level: float):
    """Line segments of the level set by marching squares (no chaining),
    cell by cell in row-major order.  Only the mixed cells, those with
    corners on both sides of the level, are visited."""
    v = values - level
    xs, ys = grid.xs(), grid.ys()
    segs = []
    neg = (v < 0).astype(np.uint8)
    cell = neg[:-1, :-1] | neg[:-1, 1:] << 1 | neg[1:, 1:] << 2 | neg[1:, :-1] << 3
    J, I = np.nonzero((cell != 0) & (cell != 15))

    def edge_point(x1, y1, v1, x2, y2, v2):
        t = v1 / (v1 - v2)
        return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))

    for j, i in zip(J.tolist(), I.tolist()):
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


def write_svg(u: ScalarField, spec: ProblemSpec, sp: StagnationPoint, path,
              profile=None, size: int = 640) -> None:
    """Grayscale contour of u, the free-boundary polyline, and (when a
    profile is given) the predicted cone edges."""
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
    for j in range(sub.shape[0]):
        for i in range(sub.shape[1]):
            val = sub[j, i]
            if val <= 0:
                continue
            shade = 255 - int(170 * min(val / vmax, 1.0))
            x, y = to_px(ext.x_min + i * step * g.spacing,
                         ext.y_min + j * step * g.spacing)
            parts.append(f'<rect x="{x - cell_w / 2:.2f}" y="{y - cell_h / 2:.2f}" '
                         f'width="{cell_w:.2f}" height="{cell_h:.2f}" '
                         f'fill="rgb({shade},{shade},255)"/>')
    level = 1e-6 * vmax
    for (p1, p2) in _marching_segments(u.values, g, level):
        a, b = to_px(*p1), to_px(*p2)
        parts.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                     f'y2="{b[1]:.2f}" stroke="black" stroke-width="1"/>')
    if profile is not None:
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
    fmts = cfg.outputs.formats
    spec = cfg.problem

    if "table1" in stages and "csv" in fmts:
        p = outdir / "table1.csv"
        write_table1(spec.alpha, spec.beta, p,
                     pair_theta1=cfg.boundary.pair_theta1)
        manifest["outputs"]["table1"] = p.name

    solution = None
    profile = None
    if "solve" in stages:
        result, profile = run_solve(cfg)
        solution = result.field
        p = outdir / "solution.field"
        save_field(solution, p, spec=spec)
        manifest["outputs"]["solution"] = p.name
        manifest["solver"] = {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_energy": result.energies[-1],
            "message": result.message,
        }
        if not result.converged:
            log.warning("solver did not converge after %d sweeps: %s",
                        result.iterations, result.message)

    needs_analysis = {"analyze", "classify"} & set(stages)
    if needs_analysis and solution is None:
        p = outdir / "solution.field"
        if not p.exists():
            raise AnalysisError("no solution field available; run solve first")
        solution, _ = load_field(p)

    sp = None
    density = None
    if needs_analysis:
        sp, wp, fp, br = run_analysis(cfg, solution)
        if "analyze" in stages:
            if wp is not None and "csv" in fmts:
                p = outdir / "weiss.csv"
                wp.to_csv(p)
                manifest["outputs"]["weiss"] = p.name
            if fp is not None and "csv" in fmts:
                p = outdir / "frequency.csv"
                fp.to_csv(p)
                manifest["outputs"]["frequency"] = p.name
            if br is not None:
                rescale_names = []
                for k, f in enumerate(br.rescaled_fields):
                    q = outdir / f"rescale_{k}.field"
                    save_field(f, q)
                    rescale_names.append(q.name)
                if "json" in fmts:
                    p = outdir / "blowup.json"
                    _json_dump({
                        "config": cfg.raw,
                        "radii_used": br.radii_used,
                        "successive_distance": br.successive_distance,
                        "homogeneity_residual": br.homogeneity_residual,
                        "density_estimate": br.density_estimate,
                        "directions": list(br.directions) if br.directions else None,
                        "opening": (br.directions[1] - br.directions[0])
                        if br.directions else None,
                        "disconnected": br.direction_report.disconnected
                        if br.direction_report else None,
                        "rescaled_fields": rescale_names,
                    }, p)
                    manifest["outputs"]["blowup"] = p.name
        if br is not None:
            density = br.density_estimate
    if "classify" in stages:
        if density is None:
            sp = sp or stagnation_point(spec, cfg.analysis.delta)
            r_dens = cfg.analysis.density_radius or (
                cfg.analysis.blowup_radii[-1] if cfg.analysis.blowup_radii
                else 0.5 * sp.delta)
            density = bw.limit_density(spec, solution, sp, r_dens)
        report = run_classify(cfg, sp, density)
        if "json" in fmts:
            p = outdir / "classification.json"
            _json_dump({"config": cfg.raw, **asdict(report)}, p)
            manifest["outputs"]["classification"] = p.name
        manifest["classification"] = report.verdict
    if "solve" in stages and "svg" in fmts and solution is not None:
        p = outdir / "solution.svg"
        write_svg(solution, spec, sp or stagnation_point(spec, cfg.analysis.delta),
                  p, profile=profile)
        manifest["outputs"]["svg"] = p.name
    return manifest


def write_error_record(outdir, stage: str, exc: Exception) -> None:
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        _json_dump({"stage": stage, "error": type(exc).__name__,
                    "message": str(exc)}, Path(outdir) / "error.json")
    except OSError:
        pass
