"""Workloads of the cornerwave benchmark.

A workload is one generated config driven through ``pipeline.load_config``
and ``pipeline.run`` the way the CLI drives it.  The seed only sets the
weight scale c written into ``problem.weight_constant`` of the generated
config: the solution scales by sqrt(c) and its energy by c, so every seed
does the same work and c = 1 (seed 0) reproduces the checked-in configs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

pipeline = importlib.import_module("cornerwave.pipeline")

# the checked-in config each workload runs in full; why each workload is
# here: BENCHMARK.json.  A workload that only analyses a closed-form field
# was tried and dropped: its interpreter-bound pass time drifted with the
# host three times as much as a solve's (cornerbench/BASELINE.md, Noise).
WORKLOADS = {
    "type3": "corner_type3",
    "beta2-capped": "corner_beta2",
}
# manifest output keys a full run must write
EXPECTED = ("table1", "solution", "weiss", "frequency", "blowup", "classification", "svg")


def weight_scale(seed: int) -> float:
    """Weight constant c of a seed: 1 for seed 0, else log-uniform on [1/2, 2]."""
    if seed == 0:
        return 1.0
    return 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


@dataclass
class Job:
    name: str
    config: Path                   # the generated config a pass loads
    expected: tuple[str, ...] = EXPECTED   # manifest output keys it must write


def setup(workload: str, workdir: Path, c: float) -> Job:
    """Write the workload's generated config under ``workdir``; returns the
    job each pass runs."""
    name = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))
    data["problem"]["weight_constant"] = c
    data["outputs"]["directory"] = str(workdir / name)
    path = workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")
    return Job(name, path)


def run_job(job: Job):
    """One job as a user runs it: parse the config, run every stage."""
    cfg = pipeline.load_config(job.config)
    return cfg, pipeline.run(cfg)


def _finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return True


@dataclass
class JobCheck:
    values: dict[str, float]
    problems: list[str]
    digest: str


def check_job(job: Job, cfg, manifest: dict, c: float) -> JobCheck:
    """Values a job reports and what is wrong with its outputs: a missing
    artifact, a verdict other than corner, or a non-finite number."""
    outdir = Path(cfg.outputs.directory)
    outputs = manifest.get("outputs", {})
    problems = [f"{job.name}: artifact {key} missing" for key in job.expected
                if key not in outputs or not (outdir / outputs[key]).is_file()]
    if manifest.get("classification") != "corner":
        problems.append(f"{job.name}: verdict {manifest.get('classification')!r}")
    values = {}
    solver = manifest.get("solver")
    if solver is not None:
        values["sweeps"] = float(solver["iterations"])
        values["converged"] = float(solver["converged"])
        values["final_energy"] = solver["final_energy"] / c
    reports = {}
    for key in ("blowup", "classification"):
        if key in outputs and (outdir / outputs[key]).is_file():
            reports[key] = json.loads((outdir / outputs[key]).read_text(encoding="utf-8"))
    if "blowup" in reports:
        opening = reports["blowup"]["opening"]
        if opening is None:
            problems.append(f"{job.name}: no opening measured")
        else:
            values["opening_err_deg"] = math.degrees(
                abs(opening - math.pi / cfg.problem.degree))
    if "classification" in reports:
        report = reports["classification"]
        values["density_rel_err"] = (report["distance_to_corner_density"]
                                     / report["best_corner_density"])
    if not (_finite(values) and _finite(reports)):
        problems.append(f"{job.name}: non-finite number reported")
    digest = hashlib.sha256()
    for key in sorted(outputs):
        path = outdir / outputs[key]
        if path.is_file():
            digest.update(key.encode() + b"\0" + path.read_bytes())
    return JobCheck(values, problems, digest.hexdigest())
