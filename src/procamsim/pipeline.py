"""Closed-loop autofocus control and the two headline experiment runs.

Every frame: capture IR, detect markers with the currently active
intrinsics, estimate the target pose, low-pass the distance, command the
lens power that focuses there, and swap in the interpolated intrinsics for
that power. Projection content is generated from the estimated pose and
precompensated for the visible channel's defocus before being cast onto the
scene.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import optics
from .calibration import IntrinsicProfile, _etl_hash, interpolate
from .errors import (BeyondDistortionRange, ConfigError, EmptyRegion, IoError,
                     NoKnownMarkers, PointBehindCamera, TargetLost)
from .geometry import Intrinsics, Pose, project, rotation_from_axis_angle, undistort
from .image import Image
from .imaging import (
    DEFAULT_SENSOR_SIGMA,
    ExternalCamera,
    centroid,
    default_external_camera,
    face_ray_homography,
    render_capture,
    render_device_image,
    render_external,
    render_projection_on_surface,
    write_image,
)
from .optics import (
    EtlModel,
    blur_radius,
    current_for_power,
    power_for_current,
    power_for_focus,
    wiener_precompensate,
    make_disk_psf,
)
from .scene import (
    FiducialBoard,
    PrismTarget,
    Trajectory,
    WORKING_RANGE_MM,
    ZONE_RGB,
    sample_trajectory,
    visible_faces,
    zone_color,
)
from .vision import NoiseModel, detect_markers, estimate_pose, estimate_target_distance, oracle_detect

EMA_ALPHA = 0.5
# Innovations beyond this are treated as a target jump and reset the filter;
# smoothing is for measurement noise, not for step changes.
EMA_RESET_MM = 25.0
SETTLE_STEPS = 10
DOT_SIGMA_MM = 0.8


@dataclass(frozen=True)
class ControllerState:
    """Closed-loop state carried from frame to frame."""

    drive_current: float
    active_intrinsics: Intrinsics
    filtered_distance: float | None
    power_clamped: bool = False

    @staticmethod
    def initial(profile: IntrinsicProfile, etl: EtlModel) -> "ControllerState":
        # Belief consistent with actuation: 0 mA drive and the interpolated
        # intrinsics for the power that current actually commands.
        power = power_for_current(etl, 0.0)
        intr, _ = interpolate(profile, power)
        return ControllerState(0.0, intr, None)


def autofocus_step(
    state: ControllerState,
    captured: Image | None,
    profile: IntrinsicProfile,
    target,
    etl: EtlModel,
    detections=None,
    ema_alpha: float = EMA_ALPHA,
) -> tuple[ControllerState, Pose]:
    """One control step: detect, estimate pose, filter distance, refocus.

    ``detections`` short-circuits the image detector (oracle mode). No
    detection, a corner past the lens's fold, or a pose whose distance is not
    positive and finite, raises TargetLost before the filter sees it.
    """
    if detections is None:
        detections = detect_markers(captured)
    try:
        pose, _rms = estimate_pose(target, detections, state.active_intrinsics)
    except (NoKnownMarkers, BeyondDistortionRange) as exc:
        raise TargetLost(str(exc)) from exc
    distance = estimate_target_distance(pose)
    if not 0.0 < distance < math.inf:
        raise TargetLost(f"implausible pose: target distance {distance:.4g} mm")
    if state.filtered_distance is None or abs(distance - state.filtered_distance) > EMA_RESET_MM:
        filtered = distance
    else:
        filtered = ema_alpha * distance + (1.0 - ema_alpha) * state.filtered_distance
    power, clamped = power_for_focus(etl, filtered)
    current = current_for_power(etl, power)
    new_intr, _ = interpolate(profile, power)
    new_state = ControllerState(
        drive_current=current,
        active_intrinsics=new_intr,
        filtered_distance=filtered,
        power_clamped=clamped,
    )
    return new_state, pose


def recovery_state(state: ControllerState, profile: IntrinsicProfile,
                   etl: EtlModel, attempt: int) -> ControllerState:
    """Focus-sweep recovery after a lost frame: cycle the profile stations.

    Sweeps from the highest calibrated power (nearest focus) downward so a
    close, badly defocused target is reacquired first.
    """
    entries = profile.entries
    entry = entries[len(entries) - 1 - (attempt % len(entries))]
    return replace(
        state,
        drive_current=current_for_power(etl, entry.power_d),
        active_intrinsics=entry.intrinsics,
    )


@dataclass(frozen=True, kw_only=True)
class Rig:
    """The device: lens, raster, calibrated profile, detector and control filter.

    Alignment evaluation and the dynamic run drive the same unit through the
    same per-frame detect and control steps, which are methods here.
    """

    etl: EtlModel
    base_intrinsics: Intrinsics
    profile: IntrinsicProfile
    device_wh: tuple[int, int]
    detector: str = "image"
    noise: NoiseModel = field(default_factory=NoiseModel)
    sensor_sigma: float = DEFAULT_SENSOR_SIGMA
    seed: int = 0
    ema_alpha: float = EMA_ALPHA

    @classmethod
    def from_config(cls, cfg, profile: IntrinsicProfile, **fields):
        """The rig a run config describes; ``fields`` are the subclass's own.

        A profile calibrated for another raster or lens is a ConfigError; an
        empty ``etl_hash`` marks a profile older than that fingerprint and
        skips the lens check.
        """
        if profile.device_wh != cfg.device_wh:
            raise ConfigError(f"profile was calibrated for a {profile.device_wh} raster, "
                              f"the config's device is {cfg.device_wh}")
        if profile.etl_hash and profile.etl_hash != _etl_hash(cfg.etl):
            raise ConfigError(f"profile etl_hash {profile.etl_hash} does not match "
                              "the config's etl block")
        return cls(
            etl=cfg.etl, base_intrinsics=cfg.base_intrinsics, profile=profile,
            device_wh=cfg.device_wh, detector=cfg.detector, noise=cfg.corner_noise,
            sensor_sigma=cfg.sensor_sigma, seed=cfg.seed, ema_alpha=cfg.ema_alpha,
            **fields,
        )

    def detect(self, target, pose_true: Pose, power: float, frame_seed: int):
        """Detections for one frame and the IR capture (None for the oracle)."""
        if self.detector == "image":
            capture = render_capture(
                target, pose_true, self.etl, self.base_intrinsics, power, self.device_wh,
                noise_sigma=self.sensor_sigma, seed=frame_seed,
            )
            return detect_markers(capture), capture
        if self.detector == "oracle":
            blur = blur_radius(self.etl, pose_true.translation[2], power, optics.IR)
            intr_true = optics.intrinsics_at_power(self.etl, self.base_intrinsics, power)
            return oracle_detect(target, pose_true, intr_true, blur, self.noise, frame_seed), None
        raise ValueError(f"unknown detector mode {self.detector!r}")

    def step(self, state: ControllerState, target, detections, attempt: int):
        """One control step; a lost target falls back to focus-sweep recovery.

        ``attempt`` counts the losses before this frame. Returns
        ``(state, pose)``, with ``pose`` None when the target was lost.
        """
        try:
            return autofocus_step(
                state, None, self.profile, target, self.etl, detections=detections,
                ema_alpha=self.ema_alpha,
            )
        except TargetLost:
            return recovery_state(state, self.profile, self.etl, attempt), None


# --- projection content --------------------------------------------------------

def dot_projection_texture(board: FiducialBoard) -> Image:
    """Bright soft dots at the board's reference-dot positions, black elsewhere."""
    face = board.faces()[0]
    h, w = face.albedo.height, face.albedo.width
    ys, xs = np.mgrid[0:h, 0:w]
    u, v = face.mm_at(xs, ys)
    canvas = np.zeros((h, w))
    for cx, cy in board.reference_dots:
        r2 = (u - cx) ** 2 + (v - cy) ** 2
        canvas = np.maximum(canvas, np.exp(-0.5 * r2 / (DOT_SIGMA_MM ** 2)))
    return Image.from_array(np.repeat(canvas[:, :, None], 3, axis=2))


def stripe_projection_texture(face_width_mm: float, height_mm: float, ppm: float) -> Image:
    """Full-face bright panel with a dark diagonal stripe, for visual tracking."""
    w = int(round(face_width_mm * ppm))
    h = int(round(height_mm * ppm))
    ys, xs = np.mgrid[0:h, 0:w]
    u = (xs + 0.5) / ppm - face_width_mm / 2.0
    v = (ys + 0.5) / ppm - height_mm / 2.0
    margin = 0.08 * min(face_width_mm, height_mm)
    panel = (
        (np.abs(u) < face_width_mm / 2.0 - margin)
        & (np.abs(v) < height_mm / 2.0 - margin)
    ).astype(float)
    stripe = np.abs(u - v) < 0.08 * face_width_mm
    canvas = panel * np.where(stripe, 0.25, 1.0)
    return Image.from_array(np.repeat(canvas[:, :, None], 3, axis=2))


def tinted(texture: Image, rgb: tuple[float, float, float]) -> Image:
    return Image.from_array(texture.data * np.asarray(rgb))


def projection_textures(target, color: tuple[float, float, float]) -> dict[int, Image]:
    """Per-face projection content for a target, tinted with a zone color."""
    if isinstance(target, FiducialBoard):
        return {0: tinted(dot_projection_texture(target), color)}
    if isinstance(target, PrismTarget):
        tex = stripe_projection_texture(target.face_width_mm, target.height_mm,
                                        target.texture_ppm)
        return {k: tinted(tex, color) for k in range(6)}
    raise TypeError(f"unsupported target type {type(target).__name__}")


# --- misalignment metrics --------------------------------------------------------

def device_px_to_face_mm(px, intr_true: Intrinsics, pose_true: Pose, face) -> np.ndarray:
    """Where the true optics land a device pixel on a face plane, in face mm."""
    pn = np.array([(px[0] - intr_true.cx) / intr_true.fx,
                   (px[1] - intr_true.cy) / intr_true.fy])
    if intr_true.k1 != 0.0 or intr_true.k2 != 0.0:
        pn = undistort(intr_true, pn)
    ray = np.array([pn[0], pn[1], 1.0])
    m = np.linalg.inv(face_ray_homography(pose_true, face))
    a, b, c = m @ ray
    return np.array([a / c, b / c])


def face_transfer_misalignment(
    target,
    pose_est: Pose,
    intr_est: Intrinsics,
    pose_true: Pose,
    intr_true: Intrinsics,
) -> float:
    """Mean on-surface distance between intended and realized projection points.

    For every visible face center the controller's device pixel is computed
    from the estimate and mapped back through the true optics.
    """
    errors = []
    faces = target.faces()
    for idx in visible_faces(target, pose_true):
        face = faces[idx]
        try:
            px = project(intr_est, pose_est, face.point_at(0.0, 0.0))
            landed = device_px_to_face_mm(px, intr_true, pose_true, face)
        except (PointBehindCamera, BeyondDistortionRange):
            continue
        errors.append(float(np.hypot(landed[0], landed[1])))
    if not errors:
        return math.inf
    return float(np.mean(errors))


def pose_errors(pose_est: Pose, pose_true: Pose) -> tuple[float, float]:
    dt = float(np.linalg.norm(pose_est.translation - pose_true.translation))
    rel = pose_est.rotation.T @ pose_true.rotation
    cos_angle = max(-1.0, min(1.0, (np.trace(rel) - 1.0) / 2.0))
    return dt, math.degrees(math.acos(cos_angle))


# --- alignment evaluation ---------------------------------------------------------

@dataclass(frozen=True)
class EvalRow:
    distance_mm: float
    mean_mm: float
    std_mm: float
    blur_ir_px: float
    blur_vis_px: float
    frames_lost: int = 0


@dataclass(frozen=True, kw_only=True)
class EvalSetup(Rig):
    """Everything run_alignment_eval needs beyond mode flags."""

    board: FiducialBoard
    stations: list[float]
    tilt_deg: float = 28.0
    settle_steps: int = SETTLE_STEPS


def _board_pose(z_mm: float, tilt_deg: float) -> Pose:
    """Evaluation pose: board tilted about the image diagonal.

    A tilt about a single image axis lets a wrong focal length be absorbed
    almost exactly by the estimated pose, hiding the misalignment the fixed
    mode is supposed to show; the diagonal axis avoids that degeneracy.
    """
    axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rot = rotation_from_axis_angle(axis * math.radians(tilt_deg))
    return Pose(rot, np.array([0.0, 0.0, z_mm]))


def run_station(setup: EvalSetup, z_mm: float):
    """Settle the loop at one station; returns (state, pose_est, lost_count)."""
    target = setup.board
    pose_true = _board_pose(z_mm, setup.tilt_deg)
    state = ControllerState.initial(setup.profile, setup.etl)
    pose_est = None
    lost = 0
    steps = 0
    max_steps = setup.settle_steps + len(setup.profile.entries) + 2
    while steps < max_steps and (steps < setup.settle_steps or pose_est is None):
        frame_seed = (setup.seed * 1_000_003 + int(z_mm) * 977 + steps) & 0x7FFFFFFF
        power = power_for_current(setup.etl, state.drive_current)
        detections, _ = setup.detect(target, pose_true, power, frame_seed)
        state, pose = setup.step(state, target, detections, lost)
        if pose is None:
            lost += 1
        else:
            pose_est = pose
        steps += 1
    if pose_est is None:
        raise TargetLost(f"station {z_mm:g} mm: no detection within {max_steps} frames")
    return state, pose_est, lost


def measure_station_misalignment(setup, z_mm, state, pose_est):
    """Project bright dots from the converged state; measure per-dot error in mm."""
    board = setup.board
    pose_true = _board_pose(z_mm, setup.tilt_deg)
    power = power_for_current(setup.etl, state.drive_current)
    textures = projection_textures(board, (1.0, 1.0, 1.0))
    device_img = render_device_image(board, pose_est, state.active_intrinsics,
                                     textures, setup.device_wh)
    irradiance = render_projection_on_surface(
        device_img, board, pose_true, setup.etl, setup.base_intrinsics, power,
    )
    face = board.faces()[0]
    errors = []
    window_mm = 6.0
    for dot in board.reference_dots:
        x0, y0 = face.texture_px(dot[0] - window_mm, dot[1] - window_mm)
        x1, y1 = face.texture_px(dot[0] + window_mm, dot[1] + window_mm)
        region = (int(round(x0)), int(round(y0)), int(round(x1)) + 1, int(round(y1)) + 1)
        try:
            cx, cy = centroid(irradiance[0], region, 0.05)
        except EmptyRegion:
            errors.append(math.inf)
            continue
        u, v = face.mm_at(cx, cy)
        errors.append(float(np.hypot(u - dot[0], v - dot[1])))
    return errors


def run_alignment_eval(
    setup: EvalSetup,
    mode: str,
    fixed_at_mm: float = 150.0,
) -> list[EvalRow]:
    """Misalignment sweep over the stations, adaptive or pinned intrinsics.

    Fixed mode runs the same loop on a profile pinned to the intrinsics for
    ``fixed_at_mm``, reproducing the full failure chain.
    """
    if mode not in ("adaptive", "fixed"):
        raise ValueError(f"unknown eval mode {mode!r}")
    if mode == "fixed":
        pinned_power, _ = power_for_focus(setup.etl, fixed_at_mm)
        pinned, _ = interpolate(setup.profile, pinned_power)
        entries = tuple(replace(e, intrinsics=pinned) for e in setup.profile.entries)
        setup = replace(setup, profile=replace(setup.profile, entries=entries))
    rows = []
    for z in setup.stations:
        state, pose_est, lost = run_station(setup, z)
        errors = measure_station_misalignment(setup, z, state, pose_est)
        finite = [e for e in errors if math.isfinite(e)]
        power = power_for_current(setup.etl, state.drive_current)
        rows.append(
            EvalRow(
                distance_mm=z,
                mean_mm=float(np.mean(finite)) if finite else math.inf,
                std_mm=float(np.std(finite)) if finite else math.inf,
                blur_ir_px=blur_radius(setup.etl, z, power, optics.IR),
                blur_vis_px=blur_radius(setup.etl, z, power, optics.VISIBLE),
                frames_lost=lost,
            )
        )
    return rows


# --- dynamic projection run --------------------------------------------------------

@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    time_s: float
    true_distance_mm: float
    estimated_distance_mm: float
    power_d: float
    power_clamped: bool
    blur_ir_px: float
    blur_vis_px: float
    zone: str
    misalignment_mm: float
    pose_err_mm: float
    pose_err_deg: float
    target_lost: bool
    timings_ms: dict = field(default_factory=dict, compare=False)


METRICS_FIELDS = [f.name for f in fields(FrameRecord) if f.name != "timings_ms"]


@dataclass(frozen=True, kw_only=True)
class DpmSetup(Rig):
    """Everything run_dpm needs beyond the trajectory."""

    prism: PrismTarget
    frames: int = 60
    wiener_nsr: float = 0.01
    ambient: float = 0.15
    external_camera: ExternalCamera = field(default_factory=default_external_camera)


def run_dpm(setup: DpmSetup, trajectory: Trajectory, out_dir=None):
    """Closed-loop dynamic projection over a trajectory.

    Returns (records, artifacts): per-frame metric records and the list of
    image files written when ``out_dir`` is given.
    """
    target = setup.prism
    state = ControllerState.initial(setup.profile, setup.etl)
    records = []
    artifacts = []
    lost_attempts = 0
    times = np.linspace(trajectory.t_start, trajectory.t_end, setup.frames)
    for k, t in enumerate(times):
        timings = {}
        pose_true = sample_trajectory(trajectory, float(t))
        true_z = float(pose_true.translation[2])
        power = power_for_current(setup.etl, state.drive_current)

        t0 = time.perf_counter()
        frame_seed = (setup.seed * 1_000_003 + k) & 0x7FFFFFFF
        detections, capture = setup.detect(target, pose_true, power, frame_seed)
        timings["capture_detect"] = 1000.0 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        state, pose_est = setup.step(state, target, detections, lost_attempts)
        lost = pose_est is None
        lost_attempts = lost_attempts + 1 if lost else 0
        timings["control"] = 1000.0 * (time.perf_counter() - t0)

        est_z = state.filtered_distance if state.filtered_distance is not None else setup.etl.z0
        power_new = power_for_current(setup.etl, state.drive_current)
        zone = "none" if lost else zone_color(float(np.clip(est_z, *WORKING_RANGE_MM)))
        blur_ir = blur_radius(setup.etl, true_z, power, optics.IR)
        blur_vis = blur_radius(setup.etl, true_z, power_new, optics.VISIBLE)

        misalignment = math.inf
        pose_err_mm = math.inf
        pose_err_deg = math.inf
        if not lost:
            t0 = time.perf_counter()
            textures = projection_textures(target, ZONE_RGB[zone])
            device_img = render_device_image(target, pose_est, state.active_intrinsics,
                                             textures, setup.device_wh)
            timings["generate"] = 1000.0 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            psf = make_disk_psf(blur_radius(setup.etl, est_z, power_new, optics.VISIBLE))
            device_img = wiener_precompensate(device_img, psf, setup.wiener_nsr)
            timings["precompensate"] = 1000.0 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            irradiance = render_projection_on_surface(
                device_img, target, pose_true, setup.etl, setup.base_intrinsics, power_new,
            )
            external = render_external(setup.external_camera, target, pose_true, irradiance,
                                       setup.ambient)
            timings["project_render"] = 1000.0 * (time.perf_counter() - t0)

            intr_true = optics.intrinsics_at_power(setup.etl, setup.base_intrinsics, power_new)
            misalignment = face_transfer_misalignment(
                target, pose_est, state.active_intrinsics, pose_true, intr_true,
            )
            pose_err_mm, pose_err_deg = pose_errors(pose_est, pose_true)

            if out_dir is not None:
                if capture is not None:
                    path = f"{out_dir}/frame_{k:04d}_capture.pgm"
                    write_image(capture, path)
                    artifacts.append(path)
                for name, img in (("device", device_img), ("external", external)):
                    path = f"{out_dir}/frame_{k:04d}_{name}.ppm"
                    write_image(img, path)
                    artifacts.append(path)

        records.append(
            FrameRecord(
                frame_index=k,
                time_s=float(t),
                true_distance_mm=true_z,
                estimated_distance_mm=float(est_z),
                power_d=power_new,
                power_clamped=state.power_clamped,
                blur_ir_px=blur_ir,
                blur_vis_px=blur_vis,
                zone=zone,
                misalignment_mm=misalignment if math.isfinite(misalignment) else -1.0,
                pose_err_mm=pose_err_mm if math.isfinite(pose_err_mm) else -1.0,
                pose_err_deg=pose_err_deg if math.isfinite(pose_err_deg) else -1.0,
                target_lost=lost,
                timings_ms=timings,
            )
        )
    return records, artifacts


def zone_transitions(records: list[FrameRecord]) -> list[int]:
    """Frame indices where the projected zone color changes.

    Lost frames project nothing and do not participate.
    """
    transitions = []
    prev = None
    for rec in records:
        if rec.target_lost:
            continue
        if prev is not None and rec.zone != prev:
            transitions.append(rec.frame_index)
        prev = rec.zone
    return transitions


# --- metrics output -----------------------------------------------------------------

def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, rows) -> None:
    """The one CSV writer: the header, then each row, ``_csv_field`` values, LF endings."""
    table = [header, *rows]
    if len(table) == 1:
        raise ValueError(f"no rows to write to {path}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for row in table:
                fh.write(",".join(map(_csv_field, row)) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_metrics(records: list[FrameRecord], path) -> None:
    """Deterministic metrics CSV: fixed header, repr floats, LF endings.

    Wall-clock timings are volatile and live in a separate file; see
    ``write_timings``.
    """
    write_table(path, METRICS_FIELDS,
                ([getattr(rec, f) for f in METRICS_FIELDS] for rec in records))


def write_timings(records: list[FrameRecord], path) -> None:
    stages = sorted({k for rec in records for k in rec.timings_ms})
    write_table(path, ["frame_index"] + stages,
                ([rec.frame_index] + [rec.timings_ms.get(s, 0.0) for s in stages]
                 for rec in records))


def timing_summary(records: list[FrameRecord]) -> dict[str, float]:
    """Mean per-stage milliseconds over frames that ran the stage."""
    stages = sorted({k for rec in records for k in rec.timings_ms})
    out = {}
    for stage in stages:
        vals = [rec.timings_ms[stage] for rec in records if stage in rec.timings_ms]
        out[stage] = float(np.mean(vals)) if vals else 0.0
    return out
