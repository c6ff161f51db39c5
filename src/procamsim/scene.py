"""Projection targets: fiducial markers, boards, the hexagonal prism, trajectories.

Marker code family
------------------
Each marker is a 6x6 binary grid: a one-cell black border around a 4x4
payload. The payload carries a 10-bit id plus a 6-bit checksum. Four checksum
bits sit in the payload corners with the fixed pattern (1, 0, 0, 0) and anchor
the orientation: any 90-degree rotation of a valid payload moves the single
bright corner, so at most one rotation of an observed grid can decode. The
remaining two checksum bits are parity over the even and odd id bits.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DistanceOutOfRange,
    IoError,
    SceneFormatError,
    TimeOutOfRange,
    UnknownMarkerId,
)
from .geometry import Pose, axis_angle_from_rotation, rotation_from_axis_angle
from .image import Image

# The working range: device-to-target distances, in mm, that stations and zones cover.
WORKING_RANGE_MM = (70.0, 250.0)

ZONE_BLUE = "blue"
ZONE_GREEN = "green"
ZONE_YELLOW = "yellow"

ZONE_RGB = {
    ZONE_BLUE: (0.15, 0.25, 0.95),
    ZONE_GREEN: (0.10, 0.85, 0.20),
    ZONE_YELLOW: (0.95, 0.90, 0.10),
}

MARKER_CELLS = 6
PAYLOAD_CELLS = 4
MAX_MARKER_ID = 1023

# Payload cell coordinates (row, col) for the id bits, MSB first; the four
# corner cells hold the orientation anchor and the last two slots the parity.
_ID_CELLS = [
    (0, 1), (0, 2),
    (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 0), (2, 1), (2, 2), (2, 3),
]
_PARITY_CELLS = [(3, 1), (3, 2)]
_ANCHOR_CELLS = [(0, 0), (0, 3), (3, 3), (3, 0)]
_ANCHOR_VALUES = [1, 0, 0, 0]

ALBEDO_WHITE = 0.85
ALBEDO_BLACK = 0.05
# Texel pitch of 0.25 mm keeps the antialiased print edge about one device
# pixel wide over the whole working range, which the renderer's pixel
# integration relies on.
DEFAULT_TEXTURE_PPM = 4.0


def _check(rule: str = "finite", **values) -> None:
    """Raise ValueError naming the first value that is not finite, or not ``rule``.

    ``rule`` is "finite", "positive" or "non-negative".
    """
    for name, value in values.items():
        if not math.isfinite(value) or (rule == "positive" and value <= 0.0) or (
                rule == "non-negative" and value < 0.0):
            what = "finite" if rule == "finite" else f"finite and {rule}"
            raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_face(width_mm: float, height_mm: float, ppm: float) -> None:
    """Raise ValueError unless the face size and texel density are finite and positive
    and the face holds at least one texel each way."""
    _check("positive", width_mm=width_mm, height_mm=height_mm, texture_ppm=ppm)
    if round(width_mm * ppm) < 1 or round(height_mm * ppm) < 1:
        raise ValueError(f"a {width_mm:g} x {height_mm:g} mm face holds no texel at {ppm:g}/mm")


def _id_parity(marker_id: int) -> tuple[int, int]:
    bits = [(marker_id >> (9 - i)) & 1 for i in range(10)]
    return (
        bits[0] ^ bits[2] ^ bits[4] ^ bits[6] ^ bits[8],
        bits[1] ^ bits[3] ^ bits[5] ^ bits[7] ^ bits[9],
    )


def encode_marker_bits(marker_id: int) -> np.ndarray:
    """6x6 grid for a marker id; 1 = white cell, 0 = black cell."""
    if not (0 <= marker_id <= MAX_MARKER_ID):
        raise UnknownMarkerId(f"marker id {marker_id} outside 0..{MAX_MARKER_ID}")
    payload = np.zeros((PAYLOAD_CELLS, PAYLOAD_CELLS), dtype=np.uint8)
    for (r, c), v in zip(_ANCHOR_CELLS, _ANCHOR_VALUES):
        payload[r, c] = v
    for i, (r, c) in enumerate(_ID_CELLS):
        payload[r, c] = (marker_id >> (9 - i)) & 1
    p0, p1 = _id_parity(marker_id)
    payload[_PARITY_CELLS[0]] = p0
    payload[_PARITY_CELLS[1]] = p1
    bits = np.zeros((MARKER_CELLS, MARKER_CELLS), dtype=np.uint8)
    bits[1:5, 1:5] = payload
    return bits


def decode_payload(payload: np.ndarray) -> tuple[int, int] | None:
    """Decode a 4x4 payload, trying all four rotations.

    Returns (id, rotation) where rotation counts the number of 90-degree
    clockwise turns applied to the canonical marker to produce the observed
    payload, or None when no rotation validates.
    """
    payload = np.asarray(payload).astype(np.uint8)
    for rot in range(4):
        # Undo `rot` clockwise turns: np.rot90 rotates counter-clockwise in
        # (row, col) indexing, which is clockwise on screen with y down.
        candidate = np.rot90(payload, -rot)
        if any(candidate[r, c] != v for (r, c), v in zip(_ANCHOR_CELLS, _ANCHOR_VALUES)):
            continue
        marker_id = 0
        for r, c in _ID_CELLS:
            marker_id = (marker_id << 1) | int(candidate[r, c])
        p0, p1 = _id_parity(marker_id)
        if candidate[_PARITY_CELLS[0]] == p0 and candidate[_PARITY_CELLS[1]] == p1:
            return marker_id, rot
    return None


@dataclass(frozen=True)
class FiducialMarker:
    """Coded square marker; side_mm is the printed outer size."""

    id: int
    side_mm: float = 13.0
    bits: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        _check("positive", side_mm=self.side_mm)
        bits = self.bits if self.bits is not None else encode_marker_bits(self.id)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (MARKER_CELLS, MARKER_CELLS):
            raise ValueError("marker grid must be 6x6")
        if bits[0, :].any() or bits[-1, :].any() or bits[:, 0].any() or bits[:, -1].any():
            raise ValueError("border cells must be black")
        decoded = decode_payload(bits[1:5, 1:5])
        if decoded is None or decoded != (self.id, 0):
            raise ValueError("payload does not validate for this id")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def local_corners(self) -> np.ndarray:
        """Corner coordinates (mm) in the marker frame: TL, TR, BR, BL."""
        h = self.side_mm / 2.0
        return np.array([[-h, -h], [h, -h], [h, h], [-h, h]])


@dataclass(frozen=True)
class MarkerPlacement:
    marker: FiducialMarker
    center_mm: tuple[float, float]
    angle_rad: float = 0.0


@dataclass
class FiducialBoard:
    """Planar target: markers plus printed reference dots on a white board.

    Board frame: x right, y down, z out of the printed face toward the
    viewer is -z (the device sees the board front when its +z axis meets
    the board's -z normal).
    """

    markers: list[MarkerPlacement]
    reference_dots: list[tuple[float, float]]
    extent_mm: tuple[float, float]
    dot_radius_mm: float = 2.0
    texture_ppm: float = DEFAULT_TEXTURE_PPM
    _faces: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        w, h = self.extent_mm
        _check_face(w, h, self.texture_ppm)
        _check("non-negative", dot_radius_mm=self.dot_radius_mm)
        for p in self.markers:
            _check(center_x_mm=p.center_mm[0], center_y_mm=p.center_mm[1], angle_rad=p.angle_rad)
            half = p.marker.side_mm / 2.0 * math.sqrt(2.0)
            if abs(p.center_mm[0]) + half > w / 2.0 or abs(p.center_mm[1]) + half > h / 2.0:
                raise ValueError(f"marker {p.marker.id} exceeds the board extent")
        for dx, dy in self.reference_dots:
            _check(dot_x_mm=dx, dot_y_mm=dy)
            if abs(dx) + self.dot_radius_mm > w / 2.0 or abs(dy) + self.dot_radius_mm > h / 2.0:
                raise ValueError("reference dot exceeds the board extent")
            for p in self.markers:
                half = p.marker.side_mm / 2.0
                if (
                    abs(dx - p.center_mm[0]) < half + self.dot_radius_mm
                    and abs(dy - p.center_mm[1]) < half + self.dot_radius_mm
                ):
                    raise ValueError("reference dot overlaps a marker")

    def marker_ids(self) -> list[int]:
        return [p.marker.id for p in self.markers]

    def faces(self) -> list["SceneFace"]:
        if self._faces is None:
            albedo = rasterize_face_albedo(
                self.extent_mm[0], self.extent_mm[1], self.markers,
                self.reference_dots, self.dot_radius_mm, self.texture_ppm,
            )
            self._faces = [
                SceneFace(
                    origin=np.zeros(3),
                    eu=np.array([1.0, 0.0, 0.0]),
                    ev=np.array([0.0, 1.0, 0.0]),
                    normal=np.array([0.0, 0.0, -1.0]),
                    width_mm=self.extent_mm[0],
                    height_mm=self.extent_mm[1],
                    albedo=albedo,
                    ppm=self.texture_ppm,
                    markers=tuple(self.markers),
                )
            ]
        return self._faces


@dataclass(frozen=True)
class SceneFace:
    """One planar facet: a local frame, a rasterized albedo texture and its markers.

    Face coordinates (u, v) run over [-w/2, w/2] x [-h/2, h/2] mm; texture
    pixel (0, 0) is centered at (-w/2 + 0.5/ppm, -h/2 + 0.5/ppm). Each
    marker placement is given in face coordinates.
    """

    origin: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    normal: np.ndarray
    width_mm: float
    height_mm: float
    albedo: Image
    ppm: float
    markers: tuple[MarkerPlacement, ...] = ()

    def point_at(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return (
            self.origin
            + u[..., None] * self.eu
            + v[..., None] * self.ev
        )

    def texture_px(self, u, v):
        """Face mm -> texture pixel coordinates."""
        x = (np.asarray(u, dtype=float) + self.width_mm / 2.0) * self.ppm - 0.5
        y = (np.asarray(v, dtype=float) + self.height_mm / 2.0) * self.ppm - 0.5
        return x, y

    def mm_at(self, x_px, y_px):
        u = (np.asarray(x_px, dtype=float) + 0.5) / self.ppm - self.width_mm / 2.0
        v = (np.asarray(y_px, dtype=float) + 0.5) / self.ppm - self.height_mm / 2.0
        return u, v


@dataclass
class PrismTarget:
    """Regular hexagonal prism, axis along object-frame y, one marker per face.

    Face k's outward normal is the -z axis rotated by k*60 degrees about y,
    so face 0 faces the device when the prism pose is the identity rotation.
    """

    face_width_mm: float = 20.0
    height_mm: float = 20.0
    marker_ids: tuple[int, ...] = (10, 11, 12, 13, 14, 15)
    marker_side_mm: float = FiducialMarker.side_mm
    texture_ppm: float = DEFAULT_TEXTURE_PPM
    _faces: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_face(self.face_width_mm, self.height_mm, self.texture_ppm)
        _check("positive", marker_side_mm=self.marker_side_mm)
        if len(self.marker_ids) != 6 or len(set(self.marker_ids)) != 6:
            raise ValueError("prism needs six distinct marker ids")
        if self.marker_side_mm > min(self.face_width_mm, self.height_mm):
            raise ValueError("marker does not fit on a face")

    @property
    def apothem_mm(self) -> float:
        return self.face_width_mm * math.sqrt(3.0) / 2.0

    def face_frame(self, k: int):
        """(origin, eu, ev, normal) of face k in the prism frame."""
        theta = math.radians(60.0 * k)
        c, s = math.cos(theta), math.sin(theta)
        normal = np.array([-s, 0.0, -c])
        eu = np.array([c, 0.0, -s])
        ev = np.array([0.0, 1.0, 0.0])
        origin = self.apothem_mm * normal
        return origin, eu, ev, normal

    def faces(self) -> list[SceneFace]:
        if self._faces is None:
            faces = []
            for k in range(6):
                origin, eu, ev, normal = self.face_frame(k)
                placement = MarkerPlacement(
                    FiducialMarker(self.marker_ids[k], self.marker_side_mm), (0.0, 0.0))
                albedo = rasterize_face_albedo(
                    self.face_width_mm, self.height_mm,
                    [placement], [], 0.0, self.texture_ppm,
                )
                faces.append(
                    SceneFace(origin, eu, ev, normal,
                              self.face_width_mm, self.height_mm,
                              albedo, self.texture_ppm, (placement,))
                )
            self._faces = faces
        return self._faces


def rasterize_face_albedo(
    width_mm: float,
    height_mm: float,
    markers: list[MarkerPlacement],
    dots: list[tuple[float, float]],
    dot_radius_mm: float,
    ppm: float,
) -> Image:
    """Draw markers and dots on a white face, 4x supersampled for soft edges.

    Each marker is evaluated only on the samples of its box (centre plus or
    minus its half-diagonal), each dot on its centre plus or minus radius box,
    both widened by one sample; no sample outside its box can be inside.
    """
    ss = 4
    w_px = int(round(width_mm * ppm))
    h_px = int(round(height_mm * ppm))
    xs = (np.arange(w_px * ss) + 0.5) / (ppm * ss) - width_mm / 2.0
    ys = (np.arange(h_px * ss) + 0.5) / (ppm * ss) - height_mm / 2.0
    canvas = np.full((ys.size, xs.size), ALBEDO_WHITE)

    def box(cx, cy, half):
        r0, r1 = np.searchsorted(ys, (cy - half, cy + half))
        c0, c1 = np.searchsorted(xs, (cx - half, cx + half))
        return slice(max(r0 - 1, 0), r1 + 1), slice(max(c0 - 1, 0), c1 + 1)

    for placement in markers:
        marker = placement.marker
        cx, cy = placement.center_mm
        rows, cols = box(cx, cy, marker.side_mm / 2.0 * math.sqrt(2.0))
        ca, sa = math.cos(placement.angle_rad), math.sin(placement.angle_rad)
        dx, dy = xs[None, cols] - cx, ys[rows, None] - cy
        lx = ca * dx + sa * dy
        ly = -sa * dx + ca * dy
        cell = marker.side_mm / MARKER_CELLS
        col = np.floor(lx / cell + MARKER_CELLS / 2.0).astype(int)
        row = np.floor(ly / cell + MARKER_CELLS / 2.0).astype(int)
        inside = (col >= 0) & (col < MARKER_CELLS) & (row >= 0) & (row < MARKER_CELLS)
        values = marker.bits[row.clip(0, 5), col.clip(0, 5)]
        np.copyto(canvas[rows, cols], np.where(values > 0, ALBEDO_WHITE, ALBEDO_BLACK),
                  where=inside)

    for cx, cy in dots:
        rows, cols = box(cx, cy, dot_radius_mm)
        r2 = (xs[None, cols] - cx) ** 2 + (ys[rows, None] - cy) ** 2
        canvas[rows, cols][r2 <= dot_radius_mm * dot_radius_mm] = ALBEDO_BLACK

    return Image.from_array(canvas.reshape(h_px, ss, w_px, ss).mean(axis=(1, 3)))


def marker_corners_3d(target, marker_id: int) -> np.ndarray:
    """Ordered (TL, TR, BR, BL) marker corners in the target's object frame, mm."""
    for face in target.faces():
        for placement in face.markers:
            if placement.marker.id == marker_id:
                ca = math.cos(placement.angle_rad)
                sa = math.sin(placement.angle_rad)
                local = placement.marker.local_corners()
                u = ca * local[:, 0] - sa * local[:, 1] + placement.center_mm[0]
                v = sa * local[:, 0] + ca * local[:, 1] + placement.center_mm[1]
                return face.point_at(u, v)
    raise UnknownMarkerId(f"marker {marker_id} is not on the target")


def visible_faces(target, pose: Pose) -> list[int]:
    """Indices of faces whose outward normal points toward the device (strict)."""
    out = []
    for i, face in enumerate(target.faces()):
        if (pose.rotation @ face.normal)[2] < 0.0:
            out.append(i)
    return out


def zone_color(distance_mm: float) -> str:
    """Distance-dependent body color over the working range."""
    lo, hi = WORKING_RANGE_MM
    if not (lo <= distance_mm <= hi):
        raise DistanceOutOfRange(f"distance {distance_mm:.4g} mm outside [{lo:g}, {hi:g}]")
    if distance_mm < 130.0:
        return ZONE_BLUE
    if distance_mm < 190.0:
        return ZONE_GREEN
    return ZONE_YELLOW


@dataclass(frozen=True)
class Trajectory:
    """Keyframed rigid motion: linear in translation, spherical in rotation."""

    keyframes: tuple

    def __post_init__(self):
        frames = tuple(self.keyframes)
        if len(frames) < 2:
            raise ValueError("trajectory needs at least two keyframes")
        times = [t for t, _ in frames]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("keyframe times must be strictly increasing")
        object.__setattr__(self, "keyframes", frames)

    @property
    def t_start(self) -> float:
        return self.keyframes[0][0]

    @property
    def t_end(self) -> float:
        return self.keyframes[-1][0]


def sample_trajectory(traj: Trajectory, t: float) -> Pose:
    frames = traj.keyframes
    if t < frames[0][0] or t > frames[-1][0]:
        raise TimeOutOfRange(
            f"t={t:.4g} outside [{frames[0][0]:.4g}, {frames[-1][0]:.4g}]"
        )
    for (t0, p0), (t1, p1) in zip(frames, frames[1:]):
        if t <= t1:
            s = (t - t0) / (t1 - t0)
            translation = (1.0 - s) * p0.translation + s * p1.translation
            relative = p0.rotation.T @ p1.rotation
            step = axis_angle_from_rotation(relative)
            rotation = p0.rotation @ rotation_from_axis_angle(s * step)
            return Pose(rotation, translation)
    return frames[-1][1]


# --- default targets ---------------------------------------------------------

def evaluation_board() -> FiducialBoard:
    """One centered 13 mm marker with four reference dots at (+-15, +-15) mm."""
    return load_target(default_scene_document()["targets"]["evaluation_board"])


def calibration_board() -> FiducialBoard:
    """3x3 grid of 13 mm markers at an 18 mm pitch: 36 corners per view."""
    return load_target(default_scene_document()["targets"]["calibration_board"])


def hex_prism() -> PrismTarget:
    return PrismTarget()


# --- JSON loading ------------------------------------------------------------

def _read_object(path, what: str, error=SceneFormatError) -> dict:
    """The JSON object in file ``path``; any other content raises ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return doc


def write_object(path, doc: dict, what: str) -> None:
    """Write ``doc`` as indented JSON ending in a newline; an OSError raises IoError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def _given(doc: dict, **kinds) -> dict:
    """The keys ``doc`` holds among ``kinds``, converted; the rest keep their defaults."""
    return {key: kind(doc[key]) for key, kind in kinds.items() if key in doc}


def _board_from_dict(doc: dict) -> FiducialBoard:
    try:
        markers = [
            MarkerPlacement(
                FiducialMarker(int(m["id"]), **_given(m, side_mm=float)),
                (float(m["center_mm"][0]), float(m["center_mm"][1])),
                **_given(m, angle_rad=float),
            )
            for m in doc["markers"]
        ]
        return FiducialBoard(
            markers=markers,
            reference_dots=[(float(d[0]), float(d[1])) for d in doc.get("reference_dots", [])],
            extent_mm=(float(doc["extent_mm"][0]), float(doc["extent_mm"][1])),
            **_given(doc, dot_radius_mm=float),
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise SceneFormatError(f"bad board document: {exc}") from exc


def _prism_from_dict(doc: dict) -> PrismTarget:
    try:
        return PrismTarget(**_given(
            doc, face_width_mm=float, height_mm=float,
            marker_ids=lambda ids: tuple(int(i) for i in ids), marker_side_mm=float,
        ))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneFormatError(f"bad prism document: {exc}") from exc


def load_target(doc: dict):
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "board":
        return _board_from_dict(doc)
    if kind == "prism":
        return _prism_from_dict(doc)
    raise SceneFormatError(f"unknown target type {kind!r}")


def load_scene(path) -> dict:
    """Load a scene document holding named targets.

    Schema: {"targets": {name: {"type": "board"|"prism", ...}, ...}}
    """
    doc = _read_object(path, "scene file")
    if "targets" not in doc or not isinstance(doc["targets"], dict):
        raise SceneFormatError("scene document must contain a 'targets' object")
    return {name: load_target(sub) for name, sub in doc["targets"].items()}


def default_scene_document() -> dict:
    """The built-in targets as a scene document, the one definition of the boards."""
    return {
        "targets": {
            "calibration_board": {
                "type": "board",
                "extent_mm": [60.0, 60.0],
                "markers": [
                    {"id": 1 + r * 3 + c, "center_mm": [18.0 * (c - 1), 18.0 * (r - 1)]}
                    for r in range(3)
                    for c in range(3)
                ],
            },
            "evaluation_board": {
                "type": "board",
                "extent_mm": [50.0, 50.0],
                "markers": [{"id": 0, "center_mm": [0.0, 0.0]}],
                "reference_dots": [[-15.0, -15.0], [15.0, -15.0], [15.0, 15.0], [-15.0, 15.0]],
            },
            "prism": {"type": "prism"},
        }
    }


def load_trajectory(path) -> Trajectory:
    """Load {"keyframes": [{"t": s, "translation": [mm x3], "axis_angle": [rad x3]}]}."""
    doc = _read_object(path, "trajectory file")
    try:
        frames = tuple(
            (
                float(k["t"]),
                Pose(
                    rotation_from_axis_angle(k.get("axis_angle", [0.0, 0.0, 0.0])),
                    np.asarray(k["translation"], dtype=float),
                ),
            )
            for k in doc["keyframes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneFormatError(f"bad trajectory document: {exc}") from exc
    try:
        return Trajectory(frames)
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from exc
