"""Command-line front end.

Subcommands:

* ``solve``      -- pose-and-scale from a correspondence file
* ``align``      -- robust alignment of one reconstruction to another
* ``merge``      -- hierarchical merge of N reconstruction files
* ``bench``      -- noise-sweep / scalability protocols, CSV output
* ``stability``  -- numerical-stability protocol, CSV output

Exit codes: 0 success, 1 estimation failure, 2 invalid input.  Data
outputs are deterministic for a fixed seed; wall-clock timings go to
stderr (and an optional sidecar file), never into data streams.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from .errors import RayposeError, InvalidInputError, EmptySolutionError, RankDeficiencyError
from .geometry import SimilarityTransform, alignment_from_pose
from .io import load_correspondences, load_reconstruction, reconstruction_to_json
from .pipeline import DEFAULT_GROUP_SIZE, hierarchical_merge, localize
from .robust import RobustConfig
from .solver import gdls_solve

EXIT_OK = 0
EXIT_ESTIMATION = 1
EXIT_INVALID = 2


def _apply_config(defaults: RobustConfig, overrides: Sequence[str]) -> RobustConfig:
    """``defaults`` with key=value overrides applied; every RobustConfig
    field is an int or a float."""
    values = {}
    fields = {f.name for f in dataclasses.fields(defaults)}
    for item in overrides:
        if "=" not in item:
            raise InvalidInputError(f"--config expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in fields:
            raise InvalidInputError(f"unknown config key {key!r} "
                                    f"(known: {sorted(fields)})")
        kind = type(getattr(defaults, key))
        try:
            values[key] = kind(raw)
        except ValueError:
            raise InvalidInputError(f"config key {key!r} expects "
                                    f"{kind.__name__}, got {raw!r}") from None
    return dataclasses.replace(defaults, **values)


def _transform_json(T: SimilarityTransform) -> dict:
    q = T.rotation
    return {"orientation": [q.w, q.x, q.y, q.z],
            "translation": [float(v) for v in T.translation],
            "scale": T.scale}


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    corrs = load_correspondences(args.input)
    report = gdls_solve(corrs, fix_scale=args.fix_scale)
    doc = {
        "best": _transform_json(report.best.transform),
        "candidates": [
            {"transform": _transform_json(c.transform), "cost": c.cost,
             "cheirality_ok": c.cheirality_ok} for c in report.candidates],
        "n_correspondences": report.n_correspondences,
        "fix_scale": report.fix_scale,
    }
    _emit(json.dumps(doc, indent=1, sort_keys=True) + "\n", args.out)
    print(f"runtime_seconds: {report.runtime_seconds:.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_align(args) -> int:
    config = _apply_config(RobustConfig(), args.config)
    warnings: List[str] = []
    base = load_reconstruction(args.base, warnings)
    other = load_reconstruction(args.other, warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    result = localize(base, other, config, seed=args.seed)
    if not result.success:
        print(f"alignment failed: {result.failure_reason}", file=sys.stderr)
        return EXIT_ESTIMATION
    doc = {
        "pose": _transform_json(result.transform),
        "alignment": _transform_json(alignment_from_pose(result.transform)),
        "inlier_count": int(len(result.inlier_indices)),
        "inlier_ratio": result.inlier_ratio,
        "iterations_run": result.iterations_run,
    }
    _emit(json.dumps(doc, indent=1, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_merge(args) -> int:
    config = _apply_config(RobustConfig(), args.config)
    warnings: List[str] = []
    cameras = [load_reconstruction(p, warnings) for p in args.inputs]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = hierarchical_merge(cameras, config,
                                max_group_size=args.max_group_size,
                                seed=args.seed, threads=args.threads)
    _emit(reconstruction_to_json(report.final_camera), args.out)
    report_doc = {
        "n_inputs": len(cameras),
        "n_levels": len(report.levels),
        "failed_members": {str(k): v for k, v in sorted(report.failed_members.items(),
                                                        key=lambda kv: str(kv[0]))},
        "transforms": {str(k): _transform_json(t)
                       for k, t in sorted(report.transform_log.items())},
    }
    report_path = args.report or (args.out + ".report.json" if args.out else None)
    if report_path:
        _emit(json.dumps(report_doc, indent=1, sort_keys=True) + "\n", report_path)
    if report.failed_members:
        print(f"{len(report.failed_members)} member(s) failed to localize",
              file=sys.stderr)
        return EXIT_ESTIMATION
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench as bench_mod   # the harness loads only for the commands that run it
    if args.experiment == "noise":
        rows, runtimes = bench_mod.run_noise_sweep(
            levels=tuple(range(args.max_noise_px + 1)),
            trials_per_level=args.trials, seed=args.seed)
        timing_lines = [f"mean_runtime_{m}: {v:.6f}" for m, v in sorted(runtimes.items())]
    else:   # "scalability": argparse's choices let nothing else through
        rows, runtimes = bench_mod.run_scalability(trials=args.trials, seed=args.seed)
        timing_lines = [f"mean_runtime_n{n}: {v:.6f}" for n, v in sorted(runtimes.items())]
    _emit(bench_mod.rows_to_csv(rows), args.out)
    for line in timing_lines:
        print(line, file=sys.stderr)
    if args.timings:
        _emit("\n".join(timing_lines) + "\n", args.timings)
    return EXIT_OK


def _cmd_stability(args) -> int:
    from . import bench as bench_mod
    summary = bench_mod.run_stability(args.trials, seed=args.seed)
    _emit(bench_mod.rows_to_csv(bench_mod.stability_rows(summary, args.seed)), args.out)
    print(f"mean_runtime: {summary.mean_runtime_seconds:.6f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raypose",
        description="Pose-and-scale estimation and reconstruction merging "
                    "for distributed cameras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, config=False):
        p.add_argument("--out", help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if config:
            p.add_argument("--config", action="append", default=[],
                           metavar="KEY=VALUE", help="robust-estimation override")

    p = sub.add_parser("solve", help="pose-and-scale from a correspondence file")
    p.add_argument("--input", required=True, help="correspondence JSON file")
    p.add_argument("--fix-scale", action="store_true",
                   help="freeze the scale at 1 (single-origin geometry)")
    common(p, seed=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("align", help="robustly align one reconstruction to another")
    p.add_argument("base", help="base reconstruction JSON file")
    p.add_argument("other", help="reconstruction to localize against the base")
    common(p, config=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("merge", help="hierarchically merge reconstructions")
    p.add_argument("inputs", nargs="+", help="reconstruction JSON files")
    p.add_argument("--max-group-size", type=int, default=DEFAULT_GROUP_SIZE)
    p.add_argument("--threads", type=int, default=1, help="worker threads per level")
    p.add_argument("--report", help="merge report output path")
    common(p, config=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("bench", help="run a benchmark protocol, emit CSV")
    p.add_argument("--experiment", choices=("noise", "scalability"), required=True)
    p.add_argument("--trials", type=int, default=1000, help="trials per config point")
    p.add_argument("--max-noise-px", type=int, default=10)
    p.add_argument("--timings", help="sidecar file for wall-clock timings")
    common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stability", help="run the numerical-stability protocol")
    p.add_argument("--trials", type=int, default=10000)
    common(p)
    p.set_defaults(func=_cmd_stability)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0,) else EXIT_OK
    try:
        return args.func(args)
    except (EmptySolutionError, RankDeficiencyError) as e:
        # The error names the keyword fix_scale; a hinted one reaches here
        # only from ``solve``, whose flag is --fix-scale.
        hint = "; rerun with --fix-scale" if getattr(e, "fix_scale_hint", False) else ""
        print(f"error: {e}{hint}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (RayposeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
