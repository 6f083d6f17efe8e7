"""Spans around calls into cornerwave, recorded from the benchmark side.

The tracer rebinds module attributes that ``pipeline.run`` and
``energy.minimize_energy`` look up at call time, so a traced pass runs
the unchanged program while every call into a listed function records a
span: name, start, end, parent span and, for a few functions, what the
call worked on.  Nothing inside the program is edited; a target that no
longer exists is reported as absent and the pass runs without it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

# (module looked up at call time, attribute, span name).  The span name is
# "<layer>.<function>", the layer being the module that defines it.
TARGETS = (
    ("cornerwave.pipeline", "run", "pipeline.run"),
    ("cornerwave.pipeline", "load_config", "pipeline.load_config"),
    ("cornerwave.pipeline", "build_boundary", "pipeline.build_boundary"),
    ("cornerwave.pipeline", "run_classify", "pipeline.run_classify"),
    ("cornerwave.pipeline", "write_table1", "pipeline.write_table1"),
    ("cornerwave.pipeline", "write_svg", "pipeline.write_svg"),
    ("cornerwave.pipeline", "save_field", "domain.save_field"),
    ("cornerwave.pipeline", "minimize_energy", "energy.minimize_energy"),
    ("cornerwave.energy", "harmonic_extension", "energy.harmonic_extension"),
    ("cornerwave.energy", "_energy_raw", "energy.energy_eval"),
    ("cornerwave.energy", "_relax_on_support", "energy.sharpen"),
    ("cornerwave.pipeline", "weiss_profile", "weiss.weiss_profile"),
    ("cornerwave.pipeline", "frequency_profile", "frequency.frequency_profile"),
    ("cornerwave.blowup", "blowup_analysis", "blowup.blowup_analysis"),
    ("cornerwave.oracle", "solve_angle_pairs", "oracle.solve_angle_pairs"),
    ("cornerwave.oracle", "blowup_limit", "oracle.blowup_limit"),
    ("cornerwave.oracle", "conclusion_table", "oracle.conclusion_table"),
    ("cornerwave.quadrature", "DiskStencil.__init__", "quadrature.disk_stencil"),
)

LAYERS = ("pipeline", "domain", "energy", "quadrature", "weiss", "frequency",
          "blowup", "oracle")


def _solve_info(args, kwargs, result):
    spec, grid = args[0], args[1]
    params = args[3] if len(args) > 3 else kwargs.get("params")
    return {"spec": spec, "grid": grid, "params": params,
            "weighted": kwargs.get("weight") is not None,
            "iterations": result.iterations, "converged": result.converged}


# what a span keeps of its call, for the per-layer counts
RECORDERS = {
    "energy.minimize_energy": _solve_info,
    "energy.energy_eval": lambda args, kwargs, result: {"energy": result},
    "energy.sharpen": lambda args, kwargs, result: {
        "sweeps": args[2] if len(args) > 2 else kwargs["sweeps"]},
    "domain.save_field": lambda args, kwargs, result: {"path": args[1]},
}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers on ``TARGETS`` and removes them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        record = RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if record is not None:
                span.info = record(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                self.absent[name] = f"{module_name}.{attr} not found ({exc})"
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list[Span]:
        """Spans recorded since the last call, clearing the buffer."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# Bytes per grid node that one red-black half-sweep of the projected SOR
# kernel reads and writes, tallied by hand from its NumPy statements with
# every operand of each elementwise operation counted once at its dtype
# size (8 for float64, 1 for bool) and a colour mask selecting half the
# nodes.  A computed figure: it ignores caches, and it follows the kernel
# only as far as the kernel still matches this tally.
HALF_SWEEP_BYTES_PER_NODE = (
    ("nb = zeros_like(u)", 8),
    ("nb[inner] = four shifted slices of u, three adds", 3 * 24 + 16),
    ("band = (u > 0) & (u < eps)", 9 + 17 + 3),
    ("target = 0.25*nb - quarter*band_force*band", 16 + 16 + 17 + 24),
    ("u[mask] = (1-omega)*u[mask] + omega*target[mask]", 9 + 8 + 9 + 8 + 12 + 9),
    ("np.maximum(u, 0, out=u)", 16),
    ("u[air] = 0", 5),
)
ENVELOPE_BYTES_PER_NODE = ("u > envelope; zapped |= viol; u[zapped] = 0", 17 + 3 + 1)

LAYER_METRICS = {
    **{f"{name}_s": "s" for _, _, name in TARGETS},
    "energy.sweep_s": "s",
    "energy.sweeps": "count",
    "energy.converged": "share",
    "energy.node_updates_per_s": "1/s",
    "energy.half_sweep_bytes_computed": "B",
    "energy.sharpen_sweeps": "count",
    "energy.energy_evals": "count",
    "energy.best_update_ratio": "ratio",
    "domain.save_field_bytes": "B",
    "quadrature.disk_stencils": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _solve_shape(info: dict) -> tuple[int, int]:
    """(free nodes, half-sweep bytes computed) of one recorded solve."""
    energy = importlib.import_module("cornerwave.energy")
    domain = importlib.import_module("cornerwave.domain")
    spec, grid, params = info["spec"], info["grid"], info["params"]
    params = params or energy.SolverParams()
    pinned = energy.boundary_ring(grid)
    if params.enforce_support:
        pinned = pinned | energy.support_mask(spec, grid)
    per_node = sum(b for _, b in HALF_SWEEP_BYTES_PER_NODE)
    if (params.bernstein_trim and not info["weighted"]
            and not isinstance(spec.stag, domain.Type3)):
        per_node += ENVELOPE_BYTES_PER_NODE[1]
    return int((~pinned).sum()), per_node * grid.nx * grid.ny


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one pass from its spans (0 where a layer was
    not entered)."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    selfs = self_times(spans)
    for span, own in zip(spans, selfs):
        out[f"{span.name}_s"] += span.duration
        out[f"{span.name.split('.')[0]}.self_s"] += own
    solves = [(i, s) for i, s in enumerate(spans)
              if s.name == "energy.minimize_energy" and s.info]
    evals = improving = 0
    updates = 0.0
    for i, solve in solves:
        out["energy.sweep_s"] += selfs[i]
        out["energy.sweeps"] += solve.info["iterations"]
        out["energy.converged"] += solve.info["converged"] / len(solves)
        free, nbytes = _solve_shape(solve.info)
        updates += solve.info["iterations"] * free
        out["energy.half_sweep_bytes_computed"] = max(
            out["energy.half_sweep_bytes_computed"], nbytes)
        best = None
        for child in spans:
            if child.parent != i or child.name != "energy.energy_eval":
                continue
            e = child.info["energy"]
            evals += 1
            if best is not None and e < best:
                improving += 1
            best = e if best is None else min(best, e)
    if out["energy.sweep_s"] > 0:
        out["energy.node_updates_per_s"] = updates / out["energy.sweep_s"]
    if evals:
        out["energy.best_update_ratio"] = improving / evals
    for span in spans:
        if span.name == "energy.energy_eval":
            out["energy.energy_evals"] += 1
        elif span.name == "energy.sharpen":
            out["energy.sharpen_sweeps"] += span.info["sweeps"]
        elif span.name == "quadrature.disk_stencil":
            out["quadrature.disk_stencils"] += 1
        elif span.name == "domain.save_field":
            out["domain.save_field_bytes"] += os.path.getsize(span.info["path"])
    return out
