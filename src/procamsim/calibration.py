"""Planar-target calibration and the focus-power intrinsic profile.

Per view a board-to-image homography is estimated; the image of the absolute
conic gives a closed-form zero-skew pinhole solution; damped least squares
then refines the pinhole constants, two radial coefficients, and all board
poses against the raw corner observations. Repeating this at several focus
stations and interpolating per parameter over optical power yields runtime
intrinsics for any drive current.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import imaging, vision
from .errors import (
    DegenerateMotion,
    InsufficientStations,
    InsufficientViews,
    IoError,
    NonPositiveDefinite,
    ProcamError,
    SchemaError,
    check,
)
from .geometry import (
    Homography,
    Intrinsics,
    Pose,
    extrinsics_from_homography,
    homography_dlt,
    rotation_from_axis_angle,
)
from .imaging import CAPTURE_SUPERSAMPLE, DEFAULT_SENSOR_SIGMA, _undistorted_grid
from .optim import levenberg_marquardt
from .optics import EtlModel, current_for_power, intrinsics_at_power, power_for_focus
from .scene import _naming, _read_object, _value, marker_corners_3d, write_object
from .vision import NoiseModel, oracle_detect

MIN_CORRESPONDENCES = 16
MIN_VIEWS = 3
VIEWS_PER_STATION = 8
MAX_TILT_DEG = 30.0
# The Intrinsics a profile entry stores, in the order its document lists them.
_INTRINSIC_FIELDS = ("fx", "fy", "cx", "cy", "k1", "k2")


@dataclass
class CalibView:
    """Correspondences of one board observation (board mm -> image px)."""

    object_points: np.ndarray
    image_points: np.ndarray

    def __post_init__(self):
        self.object_points = np.asarray(self.object_points, dtype=float).reshape(-1, 2)
        self.image_points = np.asarray(self.image_points, dtype=float).reshape(-1, 2)
        if self.object_points.shape[0] != self.image_points.shape[0]:
            raise ValueError("point lists must have equal length")
        if self.object_points.shape[0] < MIN_CORRESPONDENCES:
            raise ValueError(f"need at least {MIN_CORRESPONDENCES} correspondences")
        spread = self.object_points.max(axis=0) - self.object_points.min(axis=0)
        if min(spread) <= 0:
            raise ValueError("correspondences must spread over two board dimensions")


def _conic_row(h: np.ndarray, i: int, j: int) -> np.ndarray:
    return np.array(
        [
            h[0, i] * h[0, j],
            h[0, i] * h[1, j] + h[1, i] * h[0, j],
            h[1, i] * h[1, j],
            h[2, i] * h[0, j] + h[0, i] * h[2, j],
            h[2, i] * h[1, j] + h[1, i] * h[2, j],
            h[2, i] * h[2, j],
        ]
    )


def zhang_closed_form(homographies: list[Homography]) -> Intrinsics:
    """Closed-form zero-skew pinhole solution from board homographies."""
    if len(homographies) < MIN_VIEWS:
        raise InsufficientViews(f"need at least {MIN_VIEWS} views, got {len(homographies)}")
    rows = []
    for hom in homographies:
        h = hom.matrix
        rows.append(_conic_row(h, 0, 1))
        rows.append(_conic_row(h, 0, 0) - _conic_row(h, 1, 1))
    v = np.asarray(rows)
    _, s, vt = np.linalg.svd(v)
    if s[-2] - s[-1] < 1e-9:
        raise DegenerateMotion("board motion does not constrain the conic image")
    b11, b12, b22, b13, b23, b33 = vt[-1]
    if b11 < 0:
        b11, b12, b22, b13, b23, b33 = -b11, -b12, -b22, -b13, -b23, -b33
    b12 = 0.0  # zero skew
    den = b11 * b22 - b12 * b12
    if b11 <= 0 or b22 <= 0 or den <= 0:
        raise NonPositiveDefinite("conic image is not positive definite")
    cy = (b12 * b13 - b11 * b23) / den
    lam = b33 - (b13 * b13 + cy * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0:
        raise NonPositiveDefinite("conic image is not positive definite")
    fx = math.sqrt(lam / b11)
    fy = math.sqrt(lam * b11 / den)
    cx = -b13 * fx * fx / lam
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy)


def _reprojection_residuals(views: list[CalibView]):
    counts = [v.object_points.shape[0] for v in views]

    def fn(x):
        fx, fy, cx, cy, k1, k2 = x[:6]
        res = np.empty(2 * sum(counts))
        offset = 0
        for i, view in enumerate(views):
            base = 6 + 6 * i
            # Inline slices, not Pose.from_vector: this runs ~10^4 times per sweep.
            rot = rotation_from_axis_angle(x[base: base + 3])
            t = x[base + 3: base + 6]
            pts = np.hstack([view.object_points, np.zeros((counts[i], 1))])
            xc = pts @ rot.T + t
            z = xc[:, 2]
            if np.any(z <= 1e-9):
                res[offset: offset + 2 * counts[i]] = 1e9
                offset += 2 * counts[i]
                continue
            xn = xc[:, 0] / z
            yn = xc[:, 1] / z
            r2 = xn * xn + yn * yn
            f = 1.0 + k1 * r2 + k2 * r2 * r2
            du = fx * xn * f + cx - view.image_points[:, 0]
            dv = fy * yn * f + cy - view.image_points[:, 1]
            res[offset: offset + 2 * counts[i]: 2] = du
            res[offset + 1: offset + 2 * counts[i]: 2] = dv
            offset += 2 * counts[i]
        return res

    return fn


def refine_lm(
    views: list[CalibView],
    init_intr: Intrinsics,
    init_poses: list[Pose],
) -> tuple[Intrinsics, list[Pose], float]:
    """Joint refinement of pinhole constants, radial terms, and board poses."""
    if len(views) < MIN_VIEWS:
        raise InsufficientViews(f"need at least {MIN_VIEWS} views")
    x0 = np.concatenate(
        [[init_intr.fx, init_intr.fy, init_intr.cx, init_intr.cy, init_intr.k1, init_intr.k2]]
        + [pose.vector() for pose in init_poses]
    )
    # View i's residual rows depend only on the intrinsics and its own pose.
    ends = 2 * np.cumsum([v.object_points.shape[0] for v in views])
    rows = [slice(start, end) for start, end in zip([0, *ends[:-1]], ends)]
    result = levenberg_marquardt(_reprojection_residuals(views), x0, blocks=(6, 6, rows))
    x = result.x
    intr = Intrinsics(fx=x[0], fy=x[1], cx=x[2], cy=x[3], k1=x[4], k2=x[5])
    poses = [Pose.from_vector(x[6 + 6 * i: 12 + 6 * i]) for i in range(len(views))]
    rms = math.sqrt(result.cost / ends[-1])
    return intr, poses, rms


def calibrate(views: list[CalibView]) -> tuple[Intrinsics, float]:
    """Full pipeline: per-view homography, closed form, extrinsics, refinement."""
    if len(views) < MIN_VIEWS:
        raise InsufficientViews(f"need at least {MIN_VIEWS} views")
    homographies = [homography_dlt(v.object_points, v.image_points) for v in views]
    init = zhang_closed_form(homographies)
    poses = [extrinsics_from_homography(init, h) for h in homographies]
    intr, _, rms = refine_lm(views, init, poses)
    return intr, rms


# --- focus-power sweep ---------------------------------------------------------

@dataclass(frozen=True)
class ProfileEntry:
    power_d: float
    current_ma: float
    intrinsics: Intrinsics
    rms_px: float

    def __post_init__(self):
        check(power_d=self.power_d, current_ma=self.current_ma)
        check("non-negative", rms_px=self.rms_px)


@dataclass(frozen=True)
class IntrinsicProfile:
    """Calibrated (optical power -> intrinsics) table, sorted by power."""

    entries: tuple
    device_wh: tuple[int, int]
    etl_hash: str = ""

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) < 2:
            raise InsufficientStations("profile needs at least two stations")
        powers = [e.power_d for e in entries]
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise SchemaError("profile powers must be strictly increasing")
        object.__setattr__(self, "entries", entries)

    @property
    def power_min(self) -> float:
        return self.entries[0].power_d

    @property
    def power_max(self) -> float:
        return self.entries[-1].power_d


def station_poses(
    z_mm: float,
    count: int = VIEWS_PER_STATION,
    lateral_amp_mm: float = 4.0,
) -> list[Pose]:
    """Deterministic spread of board poses around one station distance.

    Tilts alternate around axes spaced 45 degrees apart with magnitudes up to
    ``MAX_TILT_DEG``, plus in-plane rotation, lateral offsets of amplitude
    ``lateral_amp_mm``, and depth jitter, so the homographies are never
    co-planar in motion. Larger lateral amplitudes push the board toward the
    image rim, which is what keeps the radial terms observable at far
    stations.
    """
    poses = []
    for i in range(count):
        tilt = math.radians(10.0 + (MAX_TILT_DEG - 10.0) * ((i % 4) / 3.0))
        axis_angle_dir = math.radians(45.0 * i)
        axis = np.array([math.cos(axis_angle_dir), math.sin(axis_angle_dir), 0.0])
        r_tilt = rotation_from_axis_angle(axis * tilt)
        r_inplane = rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(15.0 * (i - count / 2))]))
        offset = np.array(
            [
                lateral_amp_mm * math.cos(2.3 * i),
                lateral_amp_mm * math.sin(1.7 * i),
                z_mm * (1.0 + 0.05 * math.sin(2.9 * i)),
            ]
        )
        poses.append(Pose(r_tilt @ r_inplane, offset))
    return poses


def _station_lateral_amp(board, etl, base_intr, device_wh, z_mm, power) -> float:
    """Offset amplitude that reaches toward the image rim but keeps the board in view."""
    fx = intrinsics_at_power(etl, base_intr, power).fx
    half_fov_mm = z_mm * (min(device_wh) / 2.0) / fx
    board_half_diag = math.hypot(*board.extent_mm) / 2.0
    return max(4.0, 0.7 * (half_fov_mm - board_half_diag - 4.0))


def sweep_calibrate(
    board,
    etl: EtlModel,
    base_intr: Intrinsics,
    device_wh: tuple[int, int],
    stations: list[float],
    detector: str = "oracle",
    noise: NoiseModel | None = None,
    seed: int = 0,
    sensor_sigma: float = DEFAULT_SENSOR_SIGMA,
) -> IntrinsicProfile:
    """Calibrate at each station's in-focus power and assemble the profile.

    ``detector`` selects the correspondence source: "oracle" projects
    ground-truth corners with the noise model applied, "image" renders the
    IR capture with sensor noise ``sensor_sigma`` and runs the full marker
    detector.
    """
    if len(stations) < 2:
        raise InsufficientStations("need at least two stations")
    noise = noise or NoiseModel(sigma0=0.0, eta=0.0)
    entries = []
    for station_idx, z in enumerate(sorted(stations)):
        power, _ = power_for_focus(etl, z)
        true_intr = intrinsics_at_power(etl, base_intr, power)
        amp = _station_lateral_amp(board, etl, base_intr, device_wh, z, power)
        if detector == "image":  # one inversion per station; each view slices it
            _undistorted_grid(true_intr, *device_wh, CAPTURE_SUPERSAMPLE)
        views = []
        poses = station_poses(z, lateral_amp_mm=amp)
        for view_idx, pose in enumerate(poses):
            det_seed = seed + 1000 * station_idx + view_idx
            detections = _station_detections(
                board, pose, etl, base_intr, power, device_wh,
                detector, noise, det_seed, true_intr, sensor_sigma,
            )
            obj = []
            img = []
            for det in detections:
                corners3 = marker_corners_3d(board, det.marker_id)
                obj.append(corners3[:, :2])
                img.append(det.corners)
            if not obj:
                raise DegenerateMotion(
                    f"station {z:g} mm view {view_idx}: no markers detected"
                )
            views.append(CalibView(np.vstack(obj), np.vstack(img)))
        try:
            intr, rms = calibrate(views)
        except ProcamError as exc:
            raise type(exc)(f"station {z:g} mm: {exc}") from exc
        entries.append(
            ProfileEntry(
                power_d=power,
                current_ma=current_for_power(etl, power),
                intrinsics=intr,
                rms_px=rms,
            )
        )
    entries.sort(key=lambda e: e.power_d)
    return IntrinsicProfile(
        entries=tuple(entries),
        device_wh=device_wh,
        etl_hash=_etl_hash(etl),
    )


def _station_detections(board, pose, etl, base_intr, power, device_wh,
                        detector, noise, det_seed, true_intr, sensor_sigma):
    if detector == "oracle":
        return oracle_detect(board, pose, true_intr, 0.0, noise, det_seed)
    if detector == "image":
        capture = imaging.render_capture(board, pose, etl, base_intr, power, device_wh,
                                         noise_sigma=sensor_sigma, seed=det_seed)
        return vision.detect_markers(capture)
    raise ValueError(f"unknown detector mode {detector!r}")


def _etl_hash(etl: EtlModel) -> str:
    fields = (etl.z0, etl.current_gain, etl.power_min, etl.power_max,
              etl.blur_gain, etl.chroma_offset, etl.breathing_beta, etl.breathing_gamma)
    return format(abs(hash(fields)) % (1 << 48), "012x")


def interpolate(profile: IntrinsicProfile, power: float) -> tuple[Intrinsics, bool]:
    """Per-parameter piecewise-linear interpolation over optical power.

    Outside the calibrated range the nearest endpoint is used and the
    clamped flag set.
    """
    powers = np.array([e.power_d for e in profile.entries])
    clamped = power < powers[0] or power > powers[-1]
    p = min(max(power, powers[0]), powers[-1])
    fields = {}
    for name in _INTRINSIC_FIELDS:
        values = np.array([getattr(e.intrinsics, name) for e in profile.entries])
        fields[name] = float(np.interp(p, powers, values))
    return Intrinsics(**fields), clamped


# --- profile serialization -------------------------------------------------------

PROFILE_VERSION = 1


def save_profile(profile: IntrinsicProfile, path) -> None:
    doc = {
        "version": PROFILE_VERSION,
        "device": {"width": profile.device_wh[0], "height": profile.device_wh[1]},
        "etl_hash": profile.etl_hash,
        "entries": [
            {
                "power_d": e.power_d,
                "current_ma": e.current_ma,
                **{name: getattr(e.intrinsics, name) for name in _INTRINSIC_FIELDS},
                "rms_px": e.rms_px,
            }
            for e in profile.entries
        ],
    }
    write_object(path, doc, "profile")


def load_profile(path) -> IntrinsicProfile:
    doc = _read_object(path, "profile", SchemaError, unreadable=IoError)
    if doc.get("version") != PROFILE_VERSION:
        raise SchemaError(f"unsupported profile version {doc.get('version')!r}")
    with _naming(f"profile {path}", SchemaError):
        return IntrinsicProfile(
            entries=tuple(
                ProfileEntry(_value(raw, "power_d"), _value(raw, "current_ma"),
                             Intrinsics(**{f: _value(raw, f) for f in _INTRINSIC_FIELDS}),
                             _value(raw, "rms_px"))
                for raw in doc["entries"]
            ),
            device_wh=(_value(doc["device"], "width", int), _value(doc["device"], "height", int)),
            etl_hash=_value(doc, "etl_hash", str, ""),
        )
