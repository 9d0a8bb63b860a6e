"""Command-line driver: reconstruct, simulate, verify, and metrics.

Exit codes: 0 success, 1 invalid input (unparseable, invalid, or
uncalibratable), 2 file I/O failure, 3 internal invariant violation, 4 verify
bound violation. Stdout carries machine-readable reports; stderr carries
diagnostics and warnings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from .config import DEFAULT_CONFIG, PipelineConfig, load_config_text
from .errors import ParseError, PlanningError, RallyForgeError, ValidationError
from .ingest import load_json, parse_clip
from .pipeline import reconstruct_scene
from .scene import parse_scene, serialize_scene
from .scene_metrics import MetricsWindow
from .simulate import GroundTruthRally, project_clip, round_trip_report, simulate_rally

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3
EXIT_VERIFY = 4

_WINDOW_FLAGS = {"match": MetricsWindow.MATCH_START, "game": MetricsWindow.CURRENT_GAME}


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _IOFailure(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _IOFailure(f"cannot write {path}: {e.strerror or e}") from None


class _IOFailure(Exception):
    pass


def _load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return DEFAULT_CONFIG
    config, warnings = load_config_text(_read_text(path))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return config


# ============================================================
# Subcommands
# ============================================================


def _cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    clip = parse_clip(_read_text(args.clip))
    t0 = time.perf_counter()
    stats: dict = {}
    scene = reconstruct_scene(clip, config, stats=stats)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    _write_text(args.out, serialize_scene(scene))
    print(f"points={len(scene.points)} events={stats['event_records']} "
          f"camera_keyframes={stats['camera_keyframes']} wall_ms={wall_ms:.1f}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    flags = {"points": args.points, "pixel_noise_sigma_px": args.pixel_noise_sigma_px,
             "dropout_rate": args.dropout_rate, "fps": args.fps,
             "quantize_pixels": args.quantize_pixels or None}
    sim = replace(config.simulator, seed=args.seed,
                  **{name: value for name, value in flags.items() if value is not None})
    rally = simulate_rally(sim, rules=config.scoring)
    clip_doc, truth_doc = project_clip(rally, sim)
    _write_text(args.out, _dump_json(clip_doc))
    _write_text(args.truth, _dump_json(truth_doc))
    print(f"frames={rally.n_frames} points={len(rally.points)} "
          f"clip={args.out} truth={args.truth}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    clip = parse_clip(_read_text(args.clip))
    truth = GroundTruthRally.from_dict(load_json(_read_text(args.truth), "truth JSON"))
    scene = reconstruct_scene(clip, config)
    report = round_trip_report(truth, scene, config.export.sample_rate_hz)
    bounds = {"ball_rmse_m": config.verify.ball_rmse_m,
              "player_rmse_m": config.verify.player_rmse_m}
    # not <=: a NaN error is a failure, never a pass
    failures = [f"verify bound violated: {name} {report[name]:.6g} > {bound:.6g}"
                for name, bound in bounds.items() if not report[name] <= bound]
    # an error over no samples is 0.0, which no bound can tell from a pass
    failures += [f"verify has no evidence: {name} is 0"
                 for name in ("ball_samples", "player_samples") if not report[name]]
    report_doc = dict(report)
    report_doc["bounds"] = bounds
    report_doc["pass"] = not failures
    sys.stdout.write(_dump_json(report_doc))
    for failure in failures:
        print(failure, file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_metrics(args) -> int:
    scene = parse_scene(_read_text(args.scene))
    window = _WINDOW_FLAGS[args.window]
    if not scene.points:
        raise ValidationError("scene document contains no points")
    metrics = scene.points[-1].metrics.get(window)
    if metrics is None:
        raise ValidationError(f"scene stores no {window.value} metrics snapshot")
    sys.stdout.write(_dump_json(metrics.to_dict()))
    return EXIT_OK


# ============================================================
# Entry point
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rallyforge",
        description="Rally reconstruction, simulation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="build a scene timeline from a clip document")
    p.add_argument("--clip", required=True, help="input clip JSON")
    p.add_argument("--out", required=True, help="output scene timeline JSON")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("simulate", help="generate a synthetic clip with ground truth")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--out", required=True, help="output clip JSON")
    p.add_argument("--truth", required=True, help="output ground-truth JSON")
    p.add_argument("--pixel-noise-sigma-px", type=float, dest="pixel_noise_sigma_px")
    p.add_argument("--dropout-rate", type=float, dest="dropout_rate")
    p.add_argument("--quantize-pixels", action="store_true", dest="quantize_pixels")
    p.add_argument("--fps", type=float)
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="reconstruct a clip and score it against ground truth")
    p.add_argument("--clip", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("metrics", help="print zone metrics stored in a scene timeline")
    p.add_argument("--scene", required=True)
    p.add_argument("--window", required=True, choices=sorted(_WINDOW_FLAGS))
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IOFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except PlanningError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except RallyForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
