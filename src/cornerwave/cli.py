"""Command-line interface.

    cornerwave run      --config cfg.yaml [--out DIR]
    cornerwave solve    --config cfg.yaml ...
    cornerwave analyze  --config cfg.yaml ...
    cornerwave classify --config cfg.yaml ...
    cornerwave table1   --config cfg.yaml ...

Each verb runs its stages, and each stage writes all of its artifacts.
``--out`` overrides the config's ``outputs.directory``, in the config
embedded in the JSON reports too.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 analysis
error.  Failures leave a machine-readable error.json in the output
directory naming the failing stage.  Verbs that solve print one
``solver:`` line: whether the flow converged, after how many sweeps, why
it stopped and which candidate won (``<source>@<trim>``, see
``energy.Candidate``); a solve that hits ``max_iters`` still exits 0.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import (AnalysisError, ConfigError, OutputConfig, SolverError,
                       load_config, run, write_error_record)

STAGES = {
    "run": ("solve", "analyze", "classify", "table1"),
    "solve": ("solve",),
    "analyze": ("analyze",),
    "classify": ("classify",),
    "table1": ("table1",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerwave",
        description="degenerate Bernoulli free-boundary laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in STAGES:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="YAML/JSON config file")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = args.out or OutputConfig().directory
    try:
        cfg = load_config(args.config)
        if args.out:
            # the config embedded in the JSON reports is the one this run
            # used, so it reads back with the same outputs
            cfg.outputs.directory = args.out
            cfg.raw["outputs"] = {**(cfg.raw.get("outputs") or {}),
                                  "directory": args.out}
        outdir = cfg.outputs.directory
        manifest = run(cfg, stages=STAGES[args.verb])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        write_error_record(outdir, "config", exc)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        write_error_record(outdir, "solve", exc)
        return 3
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        write_error_record(outdir, "analysis", exc)
        return 4
    for key, name in manifest.get("outputs", {}).items():
        print(f"{key}: {name}")
    if "solver" in manifest:
        print("solver:", *(f"{key}={manifest['solver'][key]}" for key in
                           ("converged", "iterations", "message", "winner")))
    if "classification" in manifest:
        print(f"verdict: {manifest['classification']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
