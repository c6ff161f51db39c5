"""Rendering of captured IR frames, projected visible light, and external views.

Capture and projection share one pinhole model (single image plane), so the
device-to-face map used to render a capture is, by construction, the exact
inverse of the face-to-device map used to project. The external view is a
device-image render of the lit faces through the external camera. Warps
sample bilinearly. The capture inverts the lens and warps each face only
inside a window that bounds its distorted outline, which gives the same
bytes as the full grid; the device image and the external view run on the
full pixel grid. The last full ray grid is kept, and the calibration
sweep asks for one per station, which its views' windows slice. Defocus
is a uniform per-frame disk blur evaluated at the target origin's distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics
from .errors import DimensionMismatch, EmptyRegion, IoError, NoVisibleSurface
from .geometry import Intrinsics, Pose, distortion_fold, project, project_many, undistort_many
from .image import Image
from .optics import EtlModel, blur_radius, convolve, intrinsics_at_power, make_disk_psf
from .scene import SceneFace, visible_faces

AMBIENT_FLOOR = 0.02
DEFAULT_SENSOR_SIGMA = 0.003
CAPTURE_SUPERSAMPLE = 2
EDGE_SAMPLES = 64  # per face edge, for the capture's warp window


@dataclass(frozen=True)
class ExternalCamera:
    """Evaluation camera observing the scene from the side.

    ``device_pose`` expresses the device frame in the external camera frame.
    """

    intrinsics: Intrinsics
    device_pose: Pose
    width: int = 800
    height: int = 600


def default_external_camera() -> ExternalCamera:
    """800x600 camera 350 mm from the working-volume center, 45 deg off-axis."""
    target = np.array([0.0, 0.0, 160.0])
    theta = math.radians(45.0)
    position = target + 350.0 * np.array([math.sin(theta), 0.0, -math.cos(theta)])
    # Look-at: camera +z toward the target, y kept downward.
    z_axis = target - position
    z_axis = z_axis / np.linalg.norm(z_axis)
    y_axis = np.array([0.0, 1.0, 0.0])
    x_axis = np.cross(y_axis, z_axis)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    r_cam_to_device = np.stack([x_axis, y_axis, z_axis], axis=1)
    rotation = r_cam_to_device.T
    translation = -rotation @ position
    return ExternalCamera(
        intrinsics=Intrinsics(900.0, 900.0, 400.0, 300.0),
        device_pose=Pose(rotation, translation),
    )


# --- warp machinery ----------------------------------------------------------

_last_grid: dict = {}  # at most one entry: (intr, width, height, supersample) -> full grid


def _undistorted_grid(
    intr: Intrinsics, width: int, height: int, supersample: int = 1,
    window: tuple[slice, slice] | None = None,
) -> np.ndarray:
    """Undistorted normalized coordinates of the (sub)pixel samples in ``window``.

    With ``supersample`` = n the raster is sampled n times per pixel per
    axis, centered inside each pixel footprint, for later box averaging.
    ``window`` is (rows, columns) of that sample raster, the whole raster
    when omitted. Undistortion works sample by sample, so a window's grid
    holds the same bytes as the same slice of the full grid; the capture
    inverts the lens only inside the windows it warps. A sample at or past
    the lens's fold has no ray: it holds NaN, which every warp leaves black.

    The last full undistorted grid is kept, and every grid is returned
    read-only. Any window of a kept grid is a slice of it: the calibration
    sweep asks for one full grid per focus station, and the windows of the
    station's views slice it. Any other request drops the entry before its
    grid is built, so the cache never holds two grids at once. A windowed
    grid, and a pinhole grid (a plain meshgrid, cheap to rebuild), are not
    kept.
    """
    rows, cols = window or (slice(None), slice(None))
    key = (intr, width, height, supersample)
    if key in _last_grid:
        return _last_grid[key][rows, cols]
    _last_grid.clear()
    rows = range(*rows.indices(height * supersample))
    cols = range(*cols.indices(width * supersample))
    xs = (np.arange(cols.start, cols.stop) + 0.5) / supersample - 0.5
    ys = (np.arange(rows.start, rows.stop) + 0.5) / supersample - 0.5
    u = (xs - intr.cx) / intr.fx
    v = (ys - intr.cy) / intr.fy
    grid = np.stack(np.meshgrid(u, v), axis=-1)
    if intr.k1 != 0.0 or intr.k2 != 0.0:
        grid = undistort_many(intr, grid)
        if window is None:
            _last_grid[key] = grid
    grid.flags.writeable = False
    return grid


def face_ray_homography(pose: Pose, face: SceneFace) -> np.ndarray:
    """3x3 map from face plane (u mm, v mm, 1) to normalized camera rays."""
    r = pose.rotation
    return np.stack(
        [r @ face.eu, r @ face.ev, r @ face.origin + pose.translation], axis=1
    )


def bilinear_sample_multi(tex: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample an (h, w, c) array at float coordinates with edge clamping."""
    h, w = tex.shape[:2]
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    top = tex[y0, x0] * (1.0 - fx) + tex[y0, x1] * fx
    bottom = tex[y1, x0] * (1.0 - fx) + tex[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def _warp_face(canvas: np.ndarray, face: SceneFace, tex: np.ndarray, pose: Pose,
               grid: np.ndarray) -> None:
    """Inverse-warp one face texture into ``canvas``, which ``grid`` describes.

    Every sample is computed on its own, so warping a window of the grid into
    the same window of the canvas gives the same bytes as the full grid.
    """
    m = np.linalg.inv(face_ray_homography(pose, face))
    a = m[0, 0] * grid[..., 0] + m[0, 1] * grid[..., 1] + m[0, 2]
    b = m[1, 0] * grid[..., 0] + m[1, 1] * grid[..., 1] + m[1, 2]
    c = m[2, 0] * grid[..., 0] + m[2, 1] * grid[..., 1] + m[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        fu = np.where(np.abs(c) > 1e-12, a / c, np.inf)
        fv = np.where(np.abs(c) > 1e-12, b / c, np.inf)
    # Exact inverse pins the scale: the hit point's camera depth is 1/c,
    # so c > 0 selects plane points in front of the camera.
    mask = (
        (c > 1e-12)
        & (np.abs(fu) <= face.width_mm / 2.0)
        & (np.abs(fv) <= face.height_mm / 2.0)
    )
    if not mask.any():
        return
    tx, ty = face.texture_px(fu[mask], fv[mask])
    canvas[mask] = bilinear_sample_multi(tex, tx, ty)


def _warp_faces_to_raster(
    faces: list[SceneFace],
    face_indices: list[int],
    textures: list[np.ndarray],
    pose: Pose,
    grid: np.ndarray,
    channels: int,
) -> np.ndarray:
    """Inverse-warp face textures onto a black raster described by its ray grid.

    ``textures[i]`` is a (th, tw, 1) or (th, tw, channels) array aligned with
    face ``faces[face_indices[i]]``'s texture frame; one channel fills all.
    """
    h, w = grid.shape[:2]
    canvas = np.zeros((h, w, channels))
    for idx, tex in zip(face_indices, textures):
        _warp_face(canvas, faces[idx], tex, pose, grid)
    return canvas


def _face_window(face: SceneFace, pose: Pose, intr: Intrinsics, width: int, height: int,
                 supersample: int) -> tuple[slice, slice]:
    """Rows and columns of the supersampled raster that can see ``face``.

    The box bounds the face's edges, densely sampled and projected with
    distortion (which bends them), plus a 2-pixel margin, clipped to the
    raster. It holds every sample whose ray hits the face as long as the
    radial model is one-to-one out to the face's farthest corner, so a face
    reaching that far, or to or behind the lens, gets the whole raster.
    """
    full = slice(0, height * supersample), slice(0, width * supersample)
    t = np.linspace(-0.5, 0.5, EDGE_SAMPLES)
    ones = np.ones(EDGE_SAMPLES)
    u = np.concatenate([t, t, -0.5 * ones, 0.5 * ones]) * face.width_mm
    v = np.concatenate([-0.5 * ones, 0.5 * ones, t, t]) * face.height_mm
    points = face.point_at(u, v)
    px, valid = project_many(intr, pose, points)
    if not valid.all():
        return full
    # A convex face's largest undistorted radius is at a corner.
    fold = distortion_fold(intr)
    xc = pose.transform(points)
    if fold is not None and np.max(np.hypot(xc[:, 0], xc[:, 1]) / xc[:, 2]) >= fold[0]:
        return full
    # Pixel p is sample (p + 0.5) * supersample - 0.5.
    lo = np.floor((px.min(axis=0) + 0.5) * supersample - 0.5).astype(int) - 2 * supersample
    hi = np.ceil((px.max(axis=0) + 0.5) * supersample - 0.5).astype(int) + 2 * supersample + 1
    x0, y0 = np.maximum(lo, 0)
    x1, y1 = np.minimum(hi, [width * supersample, height * supersample])
    return slice(y0, max(y0, y1)), slice(x0, max(x0, x1))


def render_capture(
    target,
    scene_pose: Pose,
    etl: EtlModel,
    base_intr: Intrinsics,
    power: float,
    device_wh: tuple[int, int],
    noise_sigma: float = DEFAULT_SENSOR_SIGMA,
    seed: int = 0,
    defocus_blur_px: float | None = None,
) -> Image:
    """IR capture: ambient floor plus albedo under IR light, defocused, noisy.

    The capture never sees projected visible light. Pixel integration is
    modeled by a fixed sub-pixel Gaussian before the defocus disk;
    ``defocus_blur_px`` overrides the focus-law blur radius when given.
    """
    w, h = device_wh
    intr = intrinsics_at_power(etl, base_intr, power)
    faces = target.faces()
    vis = visible_faces(target, scene_pose)
    if not vis:
        raise NoVisibleSurface("no face oriented toward the device")
    ss = CAPTURE_SUPERSAMPLE
    # Undistort and warp each face only inside its window; faces keep their
    # order, so overlaps resolve as on the full grid.
    canvas = np.zeros((h * ss, w * ss, 1))
    for i in vis:
        window = _face_window(faces[i], scene_pose, intr, w, h, ss)
        _warp_face(canvas[window], faces[i], faces[i].albedo.data, scene_pose,
                   _undistorted_grid(intr, w, h, ss, window))
    # Pixel integration: box-average the subsamples inside each pixel.
    canvas = canvas.reshape(h, ss, w, ss, 1).mean(axis=(1, 3))
    canvas = canvas + AMBIENT_FLOOR
    img = Image.from_array(canvas)
    if defocus_blur_px is None:
        r = blur_radius(etl, scene_pose.translation[2], power, optics.IR)
    else:
        r = defocus_blur_px
    img = convolve(img, make_disk_psf(r))
    if noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D]))
        noisy = img.data + rng.normal(0.0, noise_sigma, img.data.shape)
        img = Image.from_array(noisy)
    return img


def render_device_image(
    target,
    pose: Pose,
    intr: Intrinsics,
    textures: dict[int, Image],
    device_wh: tuple[int, int],
) -> Image:
    """Forward-render per-face textures into the device raster (black background).

    This is the projection-content path: ``pose`` and ``intr`` are whatever
    the controller believes, not necessarily the simulator truth.
    """
    w, h = device_wh
    faces = target.faces()
    vis = [i for i in visible_faces(target, pose) if i in textures]
    grid = _undistorted_grid(intr, w, h)
    canvas = _warp_faces_to_raster(
        faces, vis, [textures[i].data for i in vis], pose, grid, 3,
    )
    return Image.from_array(canvas)


def _face_mm_per_device_px(face: SceneFace, pose: Pose, intr: Intrinsics) -> float:
    """Local scale at the face center: face mm per device pixel."""
    eps = 0.1
    center = face.point_at(0.0, 0.0)
    shifted = face.point_at(eps, 0.0)
    p0 = project(intr, pose, center)
    p1 = project(intr, pose, shifted)
    px_per_mm = np.linalg.norm(p1 - p0) / eps
    if px_per_mm <= 0:
        return 0.0
    return 1.0 / px_per_mm


def render_projection_on_surface(
    device_img: Image,
    target,
    scene_pose: Pose,
    etl: EtlModel,
    base_intr: Intrinsics,
    power: float,
) -> dict[int, Image]:
    """Irradiance landing on each visible face from the projected device image.

    Uses the same intrinsics as capture (shared image plane); the visible
    channel's defocus is applied in face-texture space, scaled by the face's
    mm-per-device-pixel factor.
    """
    intr = intrinsics_at_power(etl, base_intr, power)
    faces = target.faces()
    vis = visible_faces(target, scene_pose)
    if not vis:
        raise NoVisibleSurface("no face oriented toward the device")
    r_dev = blur_radius(etl, scene_pose.translation[2], power, optics.VISIBLE)
    out: dict[int, Image] = {}
    for idx in vis:
        face = faces[idx]
        th = face.albedo.height
        tw = face.albedo.width
        ty, tx = np.meshgrid(np.arange(th), np.arange(tw), indexing="ij")
        fu, fv = face.mm_at(tx, ty)
        pts = face.point_at(fu.ravel(), fv.ravel())
        px, valid = project_many(intr, scene_pose, pts)
        irr = np.zeros((th * tw, 3))
        inside = (
            valid
            & (px[:, 0] >= 0.0) & (px[:, 0] <= device_img.width - 1.0)
            & (px[:, 1] >= 0.0) & (px[:, 1] <= device_img.height - 1.0)
        )
        if inside.any():
            irr[inside] = bilinear_sample_multi(device_img.data, px[inside, 0], px[inside, 1])
        img = Image.from_array(irr.reshape(th, tw, 3))
        r_tex = r_dev * _face_mm_per_device_px(face, scene_pose, intr) * face.ppm
        out[idx] = convolve(img, make_disk_psf(r_tex))
    return out


def render_external(
    ext: ExternalCamera,
    target,
    scene_pose: Pose,
    irradiance: dict[int, Image] | None,
    ambient: float,
) -> Image:
    """Albedo under ambient light plus projected irradiance, seen by ``ext``."""
    pose_ext = ext.device_pose.compose(scene_pose)
    faces = target.faces()
    textures = {}
    for idx in visible_faces(target, pose_ext):
        composite = faces[idx].albedo.data * ambient
        if irradiance and idx in irradiance:
            composite = composite + irradiance[idx].data
        textures[idx] = Image.from_array(composite)
    return render_device_image(target, pose_ext, ext.intrinsics, textures,
                               (ext.width, ext.height))


# --- metrics ------------------------------------------------------------------

def centroid(img: Image, region: tuple[int, int, int, int], threshold: float) -> np.ndarray:
    """Intensity-weighted centroid of above-threshold pixels in a region.

    ``region`` is (x0, y0, x1, y1), half-open, in pixel coordinates; a region
    reaching past the image's top or left edge is cut there, not wrapped.
    """
    x0, y0, x1, y1 = region
    x0, y0 = max(x0, 0), max(y0, 0)
    patch = img.gray()[y0:y1, x0:x1]
    if patch.size == 0:
        raise EmptyRegion("region is empty")
    weights = np.clip(patch - threshold, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise EmptyRegion("no pixel above threshold in region")
    ys, xs = np.mgrid[0:patch.shape[0], 0:patch.shape[1]]
    return np.array([(weights * xs).sum() / total + x0, (weights * ys).sum() / total + y0])


def psnr(a: Image, b: Image) -> float:
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
        raise DimensionMismatch(
            f"{a.width}x{a.height}x{a.channels} vs {b.width}x{b.height}x{b.channels}"
        )
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def checker_pattern(
    width: int, height: int, cell: int = 24, low: float = 0.35, high: float = 0.65
) -> Image:
    """Standard checkerboard test pattern.

    Defaults keep the levels mid-gray: precompensated content overshoots its
    source contrast, and a full-contrast pattern would clip against the
    projector's [0, 1] range, destroying the correction being measured.
    """
    ys, xs = np.mgrid[0:height, 0:width]
    cells = (((xs // cell) + (ys // cell)) % 2).astype(float)
    return Image.from_array(low + (high - low) * cells)


# --- PPM / PGM output ---------------------------------------------------------

def write_image(img: Image, path) -> None:
    """Write binary PGM (1 channel) or PPM (3 channels), 8-bit."""
    data = np.round(img.data * 255.0).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    try:
        with open(path, "wb") as fh:
            fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
            fh.write(data.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write image {path}: {exc}") from exc

