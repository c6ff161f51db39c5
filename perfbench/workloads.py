"""The three workloads: set-up, one timed unit each, and their outputs.

A unit is what one user command does: the whole dpm trajectory
(``pipeline.run_dpm``) or the whole calibration sweep
(``calibration.sweep_calibrate``), built the way ``procamsim.cli`` builds it
from ``configs/default.json`` with the seed replaced by the benchmark's.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
from procamsim import calibration, optics, pipeline
from procamsim.calibration import IntrinsicProfile, ProfileEntry
from procamsim.config import load_config
from procamsim.errors import ProcamError
from procamsim.geometry import Intrinsics
from procamsim.scene import load_scene, load_trajectory

from layers import FrameClock, Patch

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = "configs/default.json"
TRAJECTORY = "configs/trajectory.json"
# Views per station: sweep_calibrate's default, which the CLI uses.
VIEWS_PER_STATION = 8

# name -> (kind, detector)
WORKLOADS = {
    "dpm-image": ("dpm", "image"),
    "dpm-oracle": ("dpm", "oracle"),
    "calibrate-image": ("calibrate", "image"),
}


@dataclasses.dataclass
class Context:
    workload: str
    kind: str
    detector: str
    cfg: object
    target: object
    profile: IntrinsicProfile | None = None
    trajectory: object = None


@dataclasses.dataclass
class Unit:
    """Measured and checked outcome of one unit."""

    run_s: float
    frame_ms: list
    attempted: int
    failed: int
    digests: dict             # output name -> sha256
    accuracy: dict
    problems: list


def stored_profile() -> IntrinsicProfile:
    """The dpm input profile, built from the numbers kept with the benchmark."""
    doc = json.loads((BENCH_DIR / "profile.json").read_text(encoding="utf-8"))
    entries = tuple(
        ProfileEntry(
            power_d=e["power_d"],
            current_ma=e["current_ma"],
            intrinsics=Intrinsics(fx=e["fx"], fy=e["fy"], cx=e["cx"], cy=e["cy"],
                                  k1=e["k1"], k2=e["k2"]),
            rms_px=e["rms_px"],
        )
        for e in doc["entries"]
    )
    return IntrinsicProfile(entries=entries, device_wh=tuple(doc["device_wh"]))


def set_up(workload: str, seed: int) -> tuple[Context, dict]:
    """Config and scene load, albedo rasterization, profile build.

    Returns the context and the milliseconds of ``load_config`` and of the
    target's ``faces()`` (albedo rasterization).
    """
    kind, detector = WORKLOADS[workload]
    t0 = time.perf_counter()
    cfg = dataclasses.replace(load_config(CONFIG), seed=seed)
    t1 = time.perf_counter()
    target = load_scene(cfg.scene_path)["prism" if kind == "dpm" else "calibration_board"]
    t2 = time.perf_counter()
    target.faces()
    t3 = time.perf_counter()
    ctx = Context(workload, kind, detector, cfg, target)
    if kind == "dpm":
        ctx.profile = stored_profile()
        ctx.trajectory = load_trajectory(TRAJECTORY)
    return ctx, {"load_config": 1000.0 * (t1 - t0), "faces": 1000.0 * (t3 - t2)}


def run_unit(ctx: Context, out_dir: Path, on_frame=None, hash_frames=False) -> Unit:
    """One unit; ``hash_frames`` adds a digest of every dpm frame's images."""
    if ctx.kind == "dpm":
        return _run_dpm(ctx, out_dir, on_frame, hash_frames)
    return _run_calibrate(ctx, out_dir, on_frame)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_frames(patch: Patch, h) -> None:
    """Feed each frame's capture, projector image and external view into ``h``.

    metrics.csv holds no image content, so this is what shows a change in
    the generate, Wiener, projection or external-view output.
    """
    def hook(image_of):
        def make(original):
            @functools.wraps(original)
            def hashed(*args, **kwargs):
                result = original(*args, **kwargs)
                h.update(np.ascontiguousarray(image_of(args, result).data).tobytes())
                return result
            return hashed
        return make

    patch.set("pipeline", "render_capture", hook(lambda args, result: result))
    patch.set("pipeline", "render_projection_on_surface", hook(lambda args, result: args[0]))
    patch.set("pipeline", "render_external", hook(lambda args, result: result))


def _run_dpm(ctx: Context, out_dir: Path, on_frame, hash_frames: bool) -> Unit:
    cfg = ctx.cfg
    setup = pipeline.DpmSetup(
        prism=ctx.target, etl=cfg.etl, base_intrinsics=cfg.base_intrinsics,
        profile=ctx.profile, device_wh=cfg.device_wh, detector=ctx.detector,
        noise=cfg.corner_noise, sensor_sigma=cfg.sensor_sigma, seed=cfg.seed,
        ema_alpha=cfg.ema_alpha, frames=cfg.dpm_frames,
        wiener_nsr=cfg.wiener_nsr, ambient=cfg.ambient,
        external_camera=cfg.external_camera,
    )
    # The frame clock: one stamp at each call into sample_trajectory.
    clock = FrameClock(on_frame)
    frames = hashlib.sha256()
    with Patch() as patch:
        patch.set("pipeline", "sample_trajectory", clock.wrapper)
        if hash_frames:
            _hash_frames(patch, frames)
        t0 = time.perf_counter()
        records, _ = pipeline.run_dpm(setup, ctx.trajectory)
        t1 = time.perf_counter()
    frame_ms = clock.frame_ms(t1)

    path = out_dir / "metrics.csv"
    pipeline.write_metrics(records, path)
    digests = {"metrics.csv": _sha256(path.read_bytes())}
    if hash_frames:
        digests["frame images"] = frames.hexdigest()

    problems = []
    if len(records) != cfg.dpm_frames or len(frame_ms) != cfg.dpm_frames:
        problems.append(f"expected {cfg.dpm_frames} frames, got {len(records)} records "
                        f"and {len(frame_ms)} frame clock stamps")
    lost = sum(r.target_lost for r in records)
    misalign = [r.misalignment_mm for r in records
                if not r.target_lost and r.misalignment_mm >= 0.0]
    return Unit(
        run_s=t1 - t0,
        frame_ms=frame_ms,
        attempted=len(records),
        failed=lost,
        digests=digests,
        accuracy={"misalign_mm.mean": statistics.fmean(misalign) if misalign else math.inf},
        problems=problems,
    )


def profile_digest(profile: IntrinsicProfile, out_dir: Path) -> str:
    """sha256 of the saved profile document without its ``created`` stamp."""
    path = out_dir / "profile.json"
    calibration.save_profile(profile, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("created", None)
    return _sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def _run_calibrate(ctx: Context, out_dir: Path, on_frame) -> Unit:
    cfg = ctx.cfg
    stations = len(cfg.stations)
    # A frame is one captured view: one stamp at each capture render.
    clock = FrameClock(on_frame)
    problems = []
    profile = None
    with Patch() as patch:
        patch.set("imaging", "render_capture", clock.wrapper)
        t0 = time.perf_counter()
        try:
            profile = calibration.sweep_calibrate(
                ctx.target, cfg.etl, cfg.base_intrinsics, cfg.device_wh, cfg.stations,
                detector=ctx.detector, noise=cfg.corner_noise, seed=cfg.seed,
            )
        except ProcamError as exc:
            problems.append(f"sweep raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
    frame_ms = clock.frame_ms(t1)
    if profile is None:
        return Unit(t1 - t0, frame_ms, stations, stations, {}, {}, problems)

    if len(frame_ms) != stations * VIEWS_PER_STATION:
        problems.append(f"expected {stations * VIEWS_PER_STATION} captured views, "
                        f"the frame clock saw {len(frame_ms)}")
    focal_err = 0.0
    for e in profile.entries:
        truth = optics.intrinsics_at_power(cfg.etl, cfg.base_intrinsics, e.power_d)
        focal_err = max(focal_err, abs(e.intrinsics.fx - truth.fx),
                        abs(e.intrinsics.fy - truth.fy))
    return Unit(
        run_s=t1 - t0,
        frame_ms=frame_ms,
        attempted=stations,
        failed=0,
        digests={"profile": profile_digest(profile, out_dir)},
        accuracy={
            "focal_err_px.max": float(focal_err),
            "rms_px.max": max(e.rms_px for e in profile.entries),
        },
        problems=problems,
    )
