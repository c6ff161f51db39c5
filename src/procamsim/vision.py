"""Marker detection and planar pose estimation.

The detector pipeline: block-mean adaptive threshold, connected components,
boundary tracing, polygon simplification to a quadrilateral, homography
rectification and cell sampling, checksum decoding with rotation recovery,
then subpixel corner refinement from border-edge line intersections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import imaging
from .errors import (
    BeyondDistortionRange,
    DegenerateConfiguration,
    InsufficientPoints,
    NoKnownMarkers,
    check,
)
from .geometry import (
    Intrinsics,
    Pose,
    extrinsics_from_homography,
    homography_dlt,
    nearest_rotation,
    project_many,
    undistort_many,
)
from .image import Image
from .optim import levenberg_marquardt
from .scene import MARKER_CELLS, decode_payload, marker_corners_3d, visible_faces

THRESHOLD_BLOCK = 32
THRESHOLD_OFFSET = 0.02
DP_EPSILON_FRAC = 0.03
MIN_QUAD_AREA = 25.0
DECODE_MARGIN = 0.15
MIN_COMPONENT_PX = 25
_MIN_IMAGE_PX = 64
EDGE_SAMPLES_PER_SIDE = 10
EDGE_PROFILE_HALF_PX = 3.0
EDGE_PROFILE_STEP = 0.25


@dataclass(frozen=True)
class Detection:
    """One decoded marker with subpixel corners ordered TL, TR, BR, BL."""

    marker_id: int
    corners: np.ndarray
    decode_confidence: float

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=float).reshape(4, 2)
        if not _usable_quad(corners):
            raise ValueError("detection corners must form a convex quad of at least 25 px^2")
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)


@dataclass(frozen=True)
class NoiseModel:
    """Corner-noise law for the oracle detector: sigma = sigma0 + eta * blur."""

    sigma0: float = 0.05
    eta: float = 0.1

    def __post_init__(self):
        check("non-negative", sigma0=self.sigma0, eta=self.eta)

    def sigma(self, blur_radius_px: float) -> float:
        return self.sigma0 + self.eta * blur_radius_px


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _is_convex(poly: np.ndarray) -> bool:
    n = len(poly)
    sign = 0.0
    for i in range(n):
        a = poly[(i + 1) % n] - poly[i]
        b = poly[(i + 2) % n] - poly[(i + 1) % n]
        cross = a[0] * b[1] - a[1] * b[0]
        if cross != 0.0:
            if sign == 0.0:
                sign = cross
            elif sign * cross < 0.0:
                return False
    return sign != 0.0


def _usable_quad(quad: np.ndarray) -> bool:
    """Whether four corners can be a Detection: convex, and not too small to decode."""
    return abs(_signed_area(quad)) >= MIN_QUAD_AREA and _is_convex(quad)


# --- contour extraction -------------------------------------------------------

_MOORE_OFFSETS = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]


def _trace_boundary(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Moore-neighbor boundary trace of an 8-connected component.

    ``start`` must be the topmost-leftmost foreground pixel. Returns the
    closed boundary as (n, 2) pixel coordinates (x, y).
    """
    h, w = mask.shape

    def fg(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    contour = [start]
    prev_dir = 6  # entered moving west, so the backtrack direction is east of start
    r, c = start
    for _ in range(4 * mask.size):
        found = False
        for i in range(8):
            d = (prev_dir + 1 + i) % 8
            dr, dc = _MOORE_OFFSETS[d]
            if fg(r + dr, c + dc):
                r, c = r + dr, c + dc
                prev_dir = (d + 4) % 8
                found = True
                break
        if not found:
            break  # isolated pixel
        if (r, c) == start and len(contour) > 2:
            break
        contour.append((r, c))
    return np.array([(c, r) for r, c in contour], dtype=float)


def _dp_simplify(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Douglas-Peucker on an open polyline; keeps endpoints."""
    if len(points) < 3:
        return points
    a, b = points[0], points[-1]
    ab = b - a
    norm = np.hypot(ab[0], ab[1])
    if norm < 1e-12:
        dists = np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    else:
        dists = np.abs(ab[0] * (points[:, 1] - a[1]) - ab[1] * (points[:, 0] - a[0])) / norm
    idx = int(np.argmax(dists))
    if dists[idx] <= epsilon:
        return np.array([a, b])
    left = _dp_simplify(points[: idx + 1], epsilon)
    right = _dp_simplify(points[idx:], epsilon)
    return np.vstack([left[:-1], right])


def _simplify_closed(contour: np.ndarray, epsilon: float) -> np.ndarray:
    """Simplify a closed contour by splitting at its two most distant points."""
    if len(contour) < 4:
        return contour
    d0 = np.hypot(contour[:, 0] - contour[0, 0], contour[:, 1] - contour[0, 1])
    i = int(np.argmax(d0))
    di = np.hypot(contour[:, 0] - contour[i, 0], contour[:, 1] - contour[i, 1])
    j = int(np.argmax(di))
    i, j = min(i, j), max(i, j)
    first = _dp_simplify(contour[i: j + 1], epsilon)
    second = _dp_simplify(np.vstack([contour[j:], contour[: i + 1]]), epsilon)
    return np.vstack([first[:-1], second[:-1]])


def _local_mean(arr: np.ndarray, block: int) -> np.ndarray:
    """Mean over a centered window of side 2*(block//2)+1 via an integral image."""
    half = block // 2
    padded = np.pad(arr, half + 1, mode="edge")
    integral = padded.cumsum(axis=0).cumsum(axis=1)
    side = 2 * half + 1
    h, w = arr.shape
    total = (
        integral[side:side + h, side:side + w]
        - integral[:h, side:side + w]
        - integral[side:side + h, :w]
        + integral[:h, :w]
    )
    return total / float(side * side)


# --- decoding helpers ----------------------------------------------------------

_CELL_SUBSAMPLES = np.array([(-0.25, -0.25), (0.25, -0.25), (-0.25, 0.25),
                             (0.25, 0.25), (0.0, 0.0)])


def _sample_cells(plane: np.ndarray, h_cells_to_img: np.ndarray) -> np.ndarray:
    """Mean intensity of every marker cell via the rectifying homography."""
    grid = []
    for rr in range(MARKER_CELLS):
        for cc in range(MARKER_CELLS):
            for dx, dy in _CELL_SUBSAMPLES:
                grid.append((cc + 0.5 + dx, rr + 0.5 + dy))
    pts = np.asarray(grid)
    ones = np.ones((len(pts), 1))
    mapped = np.hstack([pts, ones]) @ h_cells_to_img.T
    xy = mapped[:, :2] / mapped[:, 2:3]
    vals = imaging.bilinear_sample_multi(plane[:, :, None], xy[:, 0], xy[:, 1])[..., 0]
    return vals.reshape(MARKER_CELLS, MARKER_CELLS, len(_CELL_SUBSAMPLES)).mean(axis=2)


def _side_edge_points(plane, a, b, normal, half_px):
    """Subpixel edge points along one quad side.

    Profiles run along the inward normal from bright (outside) to dark
    (inside); integrating the normalized profile locates the edge without the
    quantization bias of level-crossing interpolation.
    """
    offsets = np.arange(-half_px, half_px + 1e-9, EDGE_PROFILE_STEP)
    ts = np.linspace(0.2, 0.8, EDGE_SAMPLES_PER_SIDE)
    bases = a[None, :] + ts[:, None] * (b - a)[None, :]
    pts = bases[:, None, :] + offsets[None, :, None] * normal[None, None, :]
    vals = imaging.bilinear_sample_multi(plane[:, :, None], pts[..., 0], pts[..., 1])[..., 0]
    edge_points = []
    for base, row in zip(bases, vals):
        bright = row[:3].max()
        dark = row.min()
        if bright - dark < 0.1 or row[0] < bright - 0.35 * (bright - dark):
            continue
        u = np.clip((row - dark) / (bright - dark), 0.0, 1.0)
        below = np.nonzero(u <= 0.02)[0]
        end = int(below[0]) if below.size else len(u) - 1
        if end < 2:
            continue
        s = offsets[0] + EDGE_PROFILE_STEP * float(np.trapezoid(u[: end + 1]))
        edge_points.append(base + s * normal)
    return edge_points


def _refine_corners(plane: np.ndarray, quad: np.ndarray) -> np.ndarray | None:
    """Subpixel corners from intersecting fitted border-edge lines.

    The profile window widens until the edge transition fits inside it, so
    heavily defocused borders still refine; returns None when any side fails.
    """
    centroid = quad.mean(axis=0)
    side_len = min(
        np.hypot(*(quad[(j + 1) % 4] - quad[j])) for j in range(4)
    )
    lines = []
    for j in range(4):
        a, b = quad[j], quad[(j + 1) % 4]
        direction = b - a
        direction = direction / np.hypot(direction[0], direction[1])
        normal = np.array([-direction[1], direction[0]])
        if normal @ (centroid - a) < 0:
            normal = -normal
        edge_points = []
        for half in (EDGE_PROFILE_HALF_PX, 6.0, 12.0):
            if half > EDGE_PROFILE_HALF_PX and half > 0.8 * side_len:
                break
            edge_points = _side_edge_points(plane, a, b, normal, half)
            if len(edge_points) >= 4:
                break
        if len(edge_points) < 4:
            return None
        pts = np.asarray(edge_points)
        mean = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - mean)
        lines.append((mean, vt[0]))
    corners = np.empty((4, 2))
    for j in range(4):
        p1, d1 = lines[(j - 1) % 4]
        p2, d2 = lines[j]
        mat = np.array([[d1[0], -d2[0]], [d1[1], -d2[1]]])
        if abs(np.linalg.det(mat)) < 1e-9:
            return None
        t = np.linalg.solve(mat, p2 - p1)
        corners[j] = p1 + t[0] * d1
    return corners


def detect_markers(img: Image) -> list[Detection]:
    """Detect and decode all fiducial markers in a one-channel image.

    Returns detections sorted by marker id; an empty list when nothing
    decodes.
    """
    plane = img.gray()
    h, w = plane.shape
    if h < _MIN_IMAGE_PX or w < _MIN_IMAGE_PX:
        raise ValueError(f"detector expects images of at least {_MIN_IMAGE_PX}x{_MIN_IMAGE_PX} px")
    dark = plane < (_local_mean(plane, THRESHOLD_BLOCK) - THRESHOLD_OFFSET)
    labels, count = ndimage.label(dark, structure=np.ones((3, 3), dtype=int))
    detections = []
    slices = ndimage.find_objects(labels)
    for comp_idx, slc in enumerate(slices, start=1):
        if slc is None:
            continue
        ys, xs = slc
        comp_h = ys.stop - ys.start
        comp_w = xs.stop - xs.start
        if comp_h * comp_w < MIN_COMPONENT_PX:
            continue
        if ys.start == 0 or xs.start == 0 or ys.stop == h or xs.stop == w:
            continue  # clipped by the image border
        if comp_h * comp_w > 0.25 * h * w:
            continue
        mask = labels[slc] == comp_idx
        if int(mask.sum()) < MIN_COMPONENT_PX:
            continue
        rows, cols = np.nonzero(mask)
        first = int(np.argmin(rows * mask.shape[1] + cols))
        contour = _trace_boundary(mask, (int(rows[first]), int(cols[first])))
        if len(contour) < 8:
            continue
        contour = contour + np.array([xs.start, ys.start], dtype=float)
        perimeter = float(np.sum(np.hypot(*(np.diff(np.vstack([contour, contour[:1]]), axis=0).T))))
        quad = _simplify_closed(contour, DP_EPSILON_FRAC * perimeter)
        if len(quad) != 4:
            continue
        if not _usable_quad(quad):
            continue
        if _signed_area(quad) < 0:
            quad = quad[::-1].copy()  # clockwise on screen
        detection = _decode_quad(plane, quad)
        if detection is not None:
            detections.append(detection)
    detections.sort(key=lambda d: d.marker_id)
    return detections


def _decode_quad(plane: np.ndarray, quad: np.ndarray) -> Detection | None:
    cell_corners = np.array(
        [[0.0, 0.0], [MARKER_CELLS, 0.0], [MARKER_CELLS, MARKER_CELLS], [0.0, MARKER_CELLS]]
    )
    refined = _refine_corners(plane, quad)
    if refined is None:
        refined = quad  # keep the coarse quad when edges are too degraded
    if not _usable_quad(refined):
        return None
    try:
        h_cells = homography_dlt(cell_corners, refined)
    except DegenerateConfiguration:
        return None
    cells = _sample_cells(plane, h_cells.matrix / h_cells.matrix[2, 2])
    border = np.concatenate([cells[0, :], cells[-1, :], cells[1:-1, 0], cells[1:-1, -1]])
    payload_cells = cells[1:-1, 1:-1]
    # Defocus lifts border cells toward the surround, so judge the border
    # against the quad's own bright/dark levels rather than a fixed value.
    bright = payload_cells.max()
    if bright < 0.5 or border.mean() > 0.45 or border.max() > bright - 0.1:
        return None
    bits = (payload_cells > 0.5).astype(np.uint8)
    decoded = decode_payload(bits)
    if decoded is None:
        return None
    marker_id, rot = decoded
    confidence = float(np.mean(np.abs(cells - 0.5) > DECODE_MARGIN))
    # Quad corner index 0 holds the canonical corner displaced by the decoded
    # rotation; rolling forward by `rot` restores TL, TR, BR, BL order.
    corners = np.roll(refined, rot, axis=0)
    try:
        return Detection(marker_id, corners, confidence)
    except ValueError:
        return None


# --- oracle detector -----------------------------------------------------------

def oracle_detect(
    target,
    pose: Pose,
    intr: Intrinsics,
    blur_radius_px: float,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> list[Detection]:
    """Fast detector double: projected ground-truth corners plus Gaussian noise."""
    noise = noise or NoiseModel()
    faces = target.faces()
    ids = [p.marker.id for k in visible_faces(target, pose) for p in faces[k].markers]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0D]))
    sigma = noise.sigma(blur_radius_px)
    detections = []
    for marker_id in sorted(ids):
        px, valid = project_many(intr, pose, marker_corners_3d(target, marker_id))
        if not valid.all():
            continue
        if sigma > 0:
            px = px + rng.normal(0.0, sigma, px.shape)
        if _usable_quad(px):  # not when seen nearly edge-on; its noise is drawn all the same
            detections.append(Detection(marker_id, px, 1.0))
    return detections


# --- pose estimation -----------------------------------------------------------

def _plane_basis(object_points: np.ndarray):
    """Orthonormal in-plane basis for coplanar points; raises if non-planar."""
    centroid = object_points.mean(axis=0)
    centered = object_points - centroid
    _, s, vt = np.linalg.svd(centered)
    if s.size > 2 and s[2] > 1e-6 * max(s[0], 1.0):
        raise DegenerateConfiguration("object points are not coplanar")
    if s[1] < 1e-9:
        raise DegenerateConfiguration("object points are collinear")
    e1, e2 = vt[0], vt[1]
    return centroid, e1, e2


def _refine_pose(intr, object_points, image_points, init: Pose) -> tuple[Pose, float]:
    """Damped least squares over the pose 6-vector; returns (pose, rms px)."""
    def residuals(x):
        px, valid = project_many(intr, Pose.from_vector(x), object_points)
        res = (px - image_points).ravel()
        if not valid.all():
            res = res.copy()
            res[np.repeat(~valid, 2)] = 1e6
        return res

    result = levenberg_marquardt(residuals, init.vector())
    return Pose.from_vector(result.x), math.sqrt(result.cost / (2 * object_points.shape[0]))


def pnp_planar(intr: Intrinsics, object_points, image_points) -> tuple[Pose, float]:
    """Pose of a planar target from n >= 4 correspondences.

    Homography initialization on undistorted points, then damped least
    squares over the six pose parameters against the raw observations. A
    point at or past the lens's fold has no ray: BeyondDistortionRange.
    """
    object_points = np.asarray(object_points, dtype=float).reshape(-1, 3)
    image_points = np.asarray(image_points, dtype=float).reshape(-1, 2)
    if object_points.shape[0] < 4 or object_points.shape[0] != image_points.shape[0]:
        raise InsufficientPoints("need at least 4 matched coplanar points")
    centroid, e1, e2 = _plane_basis(object_points)
    centered = object_points - centroid
    plane_uv = np.stack([centered @ e1, centered @ e2], axis=1)
    focal, centre = np.array([intr.fx, intr.fy]), np.array([intr.cx, intr.cy])
    pn = undistort_many(intr, (image_points - centre) / focal)
    if np.isnan(pn).any():
        raise BeyondDistortionRange("an observed point lies past the lens's fold")
    h = homography_dlt(plane_uv, focal * pn + centre)
    pose_plane = extrinsics_from_homography(intr, h)
    # Convert the plane-frame pose into the object frame.
    basis = np.stack([e1, e2, np.cross(e1, e2)], axis=1)
    rotation = nearest_rotation(pose_plane.rotation @ basis.T)
    init = Pose(rotation, pose_plane.translation - rotation @ centroid)
    return _refine_pose(intr, object_points, image_points, init)


def estimate_target_distance(pose: Pose) -> float:
    """Optical-axis coordinate of the target origin (not the Euclidean norm)."""
    return float(pose.translation[2])


def estimate_pose(target, detections, intr: Intrinsics) -> tuple[Pose, float]:
    """Target pose from the detections of its markers; returns (pose, rms px).

    A one-face target is solved by planar PnP over every matched corner. A
    target with more faces starts from the marker with the largest image
    footprint and is then refined jointly over all of them.
    """
    faces = target.faces()
    ids = {p.marker.id for face in faces for p in face.markers}
    known = [d for d in detections if d.marker_id in ids]
    if not known:
        raise NoKnownMarkers("no detection matches a marker on the target")
    obj = np.vstack([marker_corners_3d(target, d.marker_id) for d in known])
    img = np.vstack([d.corners for d in known])
    if len(faces) == 1:
        return pnp_planar(intr, obj, img)
    best = max(known, key=lambda d: (abs(_signed_area(d.corners)), -d.marker_id))
    init_pose, _ = pnp_planar(intr, marker_corners_3d(target, best.marker_id), best.corners)
    return _refine_pose(intr, obj, img, init_pose)
