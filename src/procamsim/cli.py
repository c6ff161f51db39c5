"""Command-line surface: calibrate, eval, dpm, render, psf.

Exit codes: 0 success, 2 configuration or usage error, 3 calibration or
runtime failure, 4 dynamic run with more than 10% lost frames. Every command
validates its inputs before creating any output.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .calibration import load_profile, save_profile, sweep_calibrate
from .config import RunConfig, load_config
from .errors import ConfigError, ProcamError, SceneFormatError
from .geometry import Pose
from .imaging import render_capture, write_image
from .optics import blur_radius, make_disk_psf
from .pipeline import (
    DpmSetup,
    EvalRow,
    EvalSetup,
    run_alignment_eval,
    run_dpm,
    timing_summary,
    write_metrics,
    write_table,
    write_timings,
    zone_transitions,
)
from .scene import FiducialBoard, load_scene, load_trajectory, write_object

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_LOST = 4

FRAME_TIME_WARN_MS = 1000.0


def _require_target(cfg: RunConfig, name: str, kind=object):
    targets = load_scene(cfg.scene_path)
    if name not in targets:
        raise ConfigError(f"scene file does not define a {name!r} target")
    if not isinstance(targets[name], kind):
        raise ConfigError(f"scene target {name!r} must be a {kind.__name__}")
    return targets[name]


def cmd_calibrate(cfg: RunConfig, out_profile: str) -> int:
    board = _require_target(cfg, "calibration_board", FiducialBoard)
    profile = sweep_calibrate(
        board, cfg.etl, cfg.base_intrinsics, cfg.device_wh, cfg.stations,
        detector=cfg.detector, noise=cfg.corner_noise, seed=cfg.seed,
        sensor_sigma=cfg.sensor_sigma,
    )
    save_profile(profile, out_profile)
    print(f"wrote profile with {len(profile.entries)} stations to {out_profile}")
    print(f"{'power_d':>10} {'current_ma':>11} {'fx':>10} {'fy':>10} {'rms_px':>9}")
    for e in profile.entries:
        print(f"{e.power_d:>10.4f} {e.current_ma:>11.3f} "
              f"{e.intrinsics.fx:>10.3f} {e.intrinsics.fy:>10.3f} {e.rms_px:>9.5f}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, profile_path: str, mode: str, fixed_at: float | None,
             out_csv: str) -> int:
    if mode == "fixed" and fixed_at is None:
        raise ConfigError("--mode fixed requires --fixed-at")
    if fixed_at is not None and not fixed_at > 0.0:
        raise ConfigError(f"--fixed-at must be a positive distance, got {fixed_at}")
    board = _require_target(cfg, "evaluation_board", FiducialBoard)
    profile = load_profile(profile_path)
    setup = EvalSetup.from_config(
        cfg, profile, board=board, stations=cfg.stations,
        tilt_deg=cfg.eval_tilt_deg, settle_steps=cfg.settle_steps,
    )
    pinned = {"fixed_at_mm": fixed_at} if mode == "fixed" else {}
    rows = run_alignment_eval(setup, mode, **pinned)
    write_table(out_csv, [f.name for f in dataclasses.fields(EvalRow)],
                map(dataclasses.astuple, rows))
    print(f"wrote {len(rows)} rows to {out_csv}")
    print(f"{'distance':>9} {'mean_mm':>9} {'std_mm':>9} {'blur_ir':>8} {'blur_vis':>9}")
    for r in rows:
        print(f"{r.distance_mm:>9.0f} {r.mean_mm:>9.4f} {r.std_mm:>9.4f} "
              f"{r.blur_ir_px:>8.3f} {r.blur_vis_px:>9.3f}")
    return EXIT_OK


def cmd_dpm(cfg: RunConfig, profile_path: str, trajectory_path: str, out_dir: str) -> int:
    prism = _require_target(cfg, "prism")
    profile = load_profile(profile_path)
    trajectory = load_trajectory(trajectory_path)
    setup = DpmSetup.from_config(
        cfg, profile, prism=prism, frames=cfg.dpm_frames,
        wiener_nsr=cfg.wiener_nsr, ambient=cfg.ambient,
        external_camera=cfg.external_camera,
    )
    os.makedirs(out_dir, exist_ok=True)
    records, _ = run_dpm(setup, trajectory, out_dir=out_dir)
    write_metrics(records, os.path.join(out_dir, "metrics.csv"))
    write_timings(records, os.path.join(out_dir, "timings.csv"))
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "frames": len(records),
        "scene": cfg.scene_path,
        "trajectory": trajectory_path,
        "profile": profile_path,
        "detector": cfg.detector,
    }
    write_object(os.path.join(out_dir, "manifest.json"), manifest, "manifest")

    transitions = zone_transitions(records)
    print(f"zone transitions at frames: {transitions}")
    summary = timing_summary(records)
    total_ms = sum(summary.values())
    for stage, ms in summary.items():
        print(f"  {stage}: {ms:.1f} ms")
    print(f"mean frame time: {total_ms:.1f} ms")
    if total_ms > FRAME_TIME_WARN_MS:
        print(f"warning: mean frame time {total_ms:.0f} ms exceeds the "
              f"{FRAME_TIME_WARN_MS:.0f} ms soft ceiling", file=sys.stderr)
    lost = sum(r.target_lost for r in records)
    print(f"lost frames: {lost}/{len(records)}")
    if lost > 0.1 * len(records):
        return EXIT_LOST
    return EXIT_OK


def cmd_render(cfg: RunConfig, distance: float, power: float, out_path: str) -> int:
    board = _require_target(cfg, "evaluation_board")
    blur = blur_radius(cfg.etl, distance, power)  # rejects a distance <= 0 before rendering
    pose = Pose(np.eye(3), np.array([0.0, 0.0, distance]))
    img = render_capture(board, pose, cfg.etl, cfg.base_intrinsics, power,
                         cfg.device_wh, noise_sigma=cfg.sensor_sigma, seed=cfg.seed)
    write_image(img, out_path)
    print(f"wrote {out_path} ({cfg.device_wh[0]}x{cfg.device_wh[1]}, blur {blur:.3f} px)")
    return EXIT_OK


def cmd_psf(cfg: RunConfig, distance: float, power: float, channel: str) -> int:
    r = blur_radius(cfg.etl, distance, power, channel)
    psf = make_disk_psf(r)
    print(f"blur radius {r:.4f} px, kernel {psf.kernel.shape[0]}x{psf.kernel.shape[1]}")
    for row in psf.kernel:
        print(" ".join(f"{v:.5f}" for v in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procamsim",
        description="Coaxial projector-camera simulator: calibration sweep, "
                    "alignment evaluation, and dynamic projection runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="run the multi-focus calibration sweep")
    p_cal.add_argument("--config", required=True)
    p_cal.add_argument("--out", required=True, help="output profile JSON path")

    p_eval = sub.add_parser("eval", help="adaptive vs fixed alignment evaluation")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--profile", required=True)
    p_eval.add_argument("--mode", required=True, choices=["adaptive", "fixed"])
    p_eval.add_argument("--fixed-at", type=float, default=None, metavar="MM")
    p_eval.add_argument("--out", required=True, help="output CSV path")

    p_dpm = sub.add_parser("dpm", help="dynamic projection run over a trajectory")
    p_dpm.add_argument("--config", required=True)
    p_dpm.add_argument("--profile", required=True)
    p_dpm.add_argument("--trajectory", required=True)
    p_dpm.add_argument("--out-dir", required=True)

    p_render = sub.add_parser("render", help="debug: render one capture frame")
    p_render.add_argument("--config", required=True)
    p_render.add_argument("--distance", type=float, required=True, metavar="MM")
    p_render.add_argument("--power", type=float, default=0.0, metavar="D")
    p_render.add_argument("--out", required=True)

    p_psf = sub.add_parser("psf", help="print the defocus kernel for a distance/power")
    p_psf.add_argument("--config", required=True)
    p_psf.add_argument("--distance", type=float, required=True, metavar="MM")
    p_psf.add_argument("--power", type=float, default=0.0, metavar="D")
    p_psf.add_argument("--channel", choices=["ir", "visible"], default="ir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = getattr(args, "out", None)
        if out and os.path.isdir(out):
            raise ConfigError(f"--out {out} is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ConfigError(f"--out {out}: its directory does not exist")
        if os.path.exists(getattr(args, "out_dir", "")) and not os.path.isdir(args.out_dir):
            raise ConfigError(f"--out-dir {args.out_dir} exists and is not a directory")
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.profile, args.mode, args.fixed_at, args.out)
        if args.command == "dpm":
            return cmd_dpm(cfg, args.profile, args.trajectory, args.out_dir)
        if args.command == "render":
            return cmd_render(cfg, args.distance, args.power, args.out)
        if args.command == "psf":
            return cmd_psf(cfg, args.distance, args.power, args.channel)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, SceneFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProcamError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
