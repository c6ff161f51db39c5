import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procamsim import imaging
from procamsim.calibration import _station_lateral_amp, station_poses, sweep_calibrate
from procamsim.errors import DimensionMismatch, EmptyRegion, NoVisibleSurface
from procamsim.geometry import (
    Homography,
    Intrinsics,
    Pose,
    homography_dlt,
    project,
    project_many,
    rotation_from_axis_angle,
)
from procamsim.image import Image
from procamsim.imaging import (
    _face_mm_per_device_px,
    centroid,
    default_external_camera,
    face_ray_homography,
    psnr,
    render_capture,
    render_device_image,
    render_external,
    render_projection_on_surface,
    write_image,
)
from procamsim.optics import EtlModel, convolve, intrinsics_at_power, make_disk_psf, power_for_focus
from procamsim.scene import (
    SceneFace,
    load_trajectory,
    marker_corners_3d,
    sample_trajectory,
    visible_faces,
)
from tests.conftest import DEVICE_WH, frontal_pose


@dataclass
class OneFaceTarget:
    face: SceneFace

    def faces(self):
        return [self.face]


def _black_board(width_mm=50.0, height_mm=50.0, ppm=4.0):
    w = int(width_mm * ppm)
    h = int(height_mm * ppm)
    face = SceneFace(
        origin=np.zeros(3),
        eu=np.array([1.0, 0.0, 0.0]),
        ev=np.array([0.0, 1.0, 0.0]),
        normal=np.array([0.0, 0.0, -1.0]),
        width_mm=width_mm,
        height_mm=height_mm,
        albedo=Image.full(w, h, 0.0),
        ppm=ppm,
    )
    return OneFaceTarget(face)


def test_capture_corner_positions_match_projection(eval_board, etl, base_intr):
    from procamsim.vision import detect_markers

    power, _ = power_for_focus(etl, 170.0)
    pose = frontal_pose(170.0)
    cap = render_capture(eval_board, pose, etl, base_intr, power, (512, 512),
                         noise_sigma=0.0)
    detections = detect_markers(cap)
    assert len(detections) == 1
    intr = intrinsics_at_power(etl, base_intr, power)
    truth, valid = project_many(intr, pose, marker_corners_3d(eval_board, 0))
    assert valid.all()
    err = np.linalg.norm(detections[0].corners - truth, axis=1)
    assert np.sqrt((err ** 2).mean()) <= 0.1


def test_capture_zero_albedo_board_is_ambient_floor(etl, base_intr):
    target = _black_board()
    cap = render_capture(target, frontal_pose(170.0), etl, base_intr, 0.0,
                         (256, 256), noise_sigma=0.0)
    assert np.max(np.abs(cap.data - 0.02)) < 1e-9


def test_capture_composes_warp_and_blur(eval_board, etl, base_intr):
    pose = frontal_pose(70.0)
    full = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256),
                          noise_sigma=0.0)
    sharp = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256),
                           noise_sigma=0.0, defocus_blur_px=0.0)
    radius = 2000.0 * abs(1.0 / 170.0 - 1.0 / 70.0)
    composed = convolve(sharp, make_disk_psf(radius))
    assert np.max(np.abs(full.data - composed.data)) < 1e-6


def test_capture_requires_visible_surface(eval_board, etl, base_intr):
    turned = Pose(rotation_from_axis_angle(np.array([0.0, math.pi, 0.0])),
                  np.array([0.0, 0.0, 150.0]))
    with pytest.raises(NoVisibleSurface):
        render_capture(eval_board, turned, etl, base_intr, 0.0, (256, 256))


def test_capture_deterministic(eval_board, etl, base_intr):
    pose = frontal_pose(150.0)
    a = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256), seed=9)
    b = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256), seed=9)
    assert np.array_equal(a.data, b.data)
    c = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256), seed=10)
    assert not np.array_equal(a.data, c.data)


def test_projection_single_pixel_centroid(eval_board, base_intr):
    etl = EtlModel(chroma_offset=0.0)
    power, _ = power_for_focus(etl, 170.0)
    pose = frontal_pose(170.0)
    intr = intrinsics_at_power(etl, base_intr, power)
    board_point = np.array([10.0, -5.0, 0.0])
    px = project(intr, pose, board_point)
    device = np.zeros((512, 512, 3))
    device[int(round(px[1])), int(round(px[0]))] = 1.0
    irr = render_projection_on_surface(Image.from_array(device), eval_board,
                                       pose, etl, base_intr, power)
    face = eval_board.faces()[0]
    plane = irr[0].gray()
    ys, xs = np.nonzero(plane > 1e-4)
    weights = plane[ys, xs]
    cx = (weights * xs).sum() / weights.sum()
    cy = (weights * ys).sum() / weights.sum()
    u, v = face.mm_at(cx, cy)
    # rounding the device pixel shifts the spot by up to half a device pixel
    tol = 0.2 + 0.5 * _face_mm_per_device_px(face, pose, intr)
    assert math.hypot(u - 10.0, v + 5.0) < tol


def test_projection_black_device_image_is_dark(eval_board, etl, base_intr):
    irr = render_projection_on_surface(Image.full(512, 512, 0.0, 3), eval_board,
                                       frontal_pose(150.0), etl, base_intr, 0.0)
    assert max(float(img.data.max()) for img in irr.values()) == 0.0


def test_projection_chromatic_blur_composes(eval_board, base_intr):
    pose = frontal_pose(170.0)
    rng = np.random.default_rng(4)
    device = Image.from_array(rng.uniform(0.0, 1.0, size=(512, 512, 3)))
    etl_chroma = EtlModel(chroma_offset=0.5)
    etl_sharp = EtlModel(chroma_offset=0.0)
    full = render_projection_on_surface(device, eval_board, pose, etl_chroma,
                                        base_intr, 0.0)
    sharp = render_projection_on_surface(device, eval_board, pose, etl_sharp,
                                         base_intr, 0.0)
    face = eval_board.faces()[0]
    intr = intrinsics_at_power(etl_chroma, base_intr, 0.0)
    r_dev = 2000.0 * abs((1.0 / 170.0 + 0.0005) - 1.0 / 170.0)  # 1 px exactly
    r_tex = r_dev * _face_mm_per_device_px(face, pose, intr) * face.ppm
    composed = convolve(sharp[0], make_disk_psf(r_tex))
    assert np.max(np.abs(full[0].data - composed.data)) < 1e-5


def test_projection_of_one_channel_device_image_fills_three_channels(eval_board, etl,
                                                                     base_intr):
    rng = np.random.default_rng(8)
    gray = Image.from_array(rng.uniform(0.0, 1.0, size=(512, 512, 1)))
    color = Image.from_array(np.repeat(gray.data, 3, axis=2))
    pose = frontal_pose(150.0)
    from_gray = render_projection_on_surface(gray, eval_board, pose, etl, base_intr, 0.0)
    from_color = render_projection_on_surface(color, eval_board, pose, etl, base_intr, 0.0)
    assert from_gray.keys() == from_color.keys()
    for idx, img in from_gray.items():
        assert img.channels == 3
        assert np.array_equal(img.data, from_color[idx].data)
        assert (img.data == img.data[..., :1]).all()


def test_external_unlit_face_renders_like_a_three_channel_texture(eval_board):
    # Without irradiance the face texture has one channel; it has to fill all
    # three channels exactly as a black three-channel irradiance would.
    ext = default_external_camera()
    pose = frontal_pose(160.0)
    face = eval_board.faces()[0]
    black = {0: Image.full(face.albedo.width, face.albedo.height, 0.0, 3)}
    unlit = render_external(ext, eval_board, pose, None, ambient=0.6)
    lit_black = render_external(ext, eval_board, pose, black, ambient=0.6)
    assert unlit.channels == 3
    assert unlit.data.tobytes() == lit_black.data.tobytes()


def test_external_pure_albedo_view(eval_board, etl, base_intr):
    ext = default_external_camera()
    pose = frontal_pose(160.0)
    view = render_external(ext, eval_board, pose, None, ambient=1.0)
    # background black, board region carries the albedo values
    assert view.data.min() == 0.0
    assert view.data.max() == pytest.approx(0.85, abs=0.02)


def test_external_dark_when_unlit(eval_board, etl, base_intr):
    ext = default_external_camera()
    view = render_external(ext, eval_board, frontal_pose(160.0), None, ambient=0.0)
    assert view.data.max() == 0.0


def test_external_projected_dot_lands_on_printed_dot(eval_board, base_intr):
    # Perfect alignment: project a bright dot exactly onto a printed dot and
    # compare centroids in the external view.
    etl = EtlModel(chroma_offset=0.0)
    power, _ = power_for_focus(etl, 170.0)
    pose = frontal_pose(170.0)
    intr = intrinsics_at_power(etl, base_intr, power)
    dot_mm = np.array([15.0, 15.0, 0.0])

    ys, xs = np.mgrid[0:512, 0:512]
    px_center = project(intr, pose, dot_mm)
    blob = np.exp(-0.5 * ((xs - px_center[0]) ** 2 + (ys - px_center[1]) ** 2) / 9.0)
    device = Image.from_array(np.repeat(blob[:, :, None], 3, axis=2))
    irr = render_projection_on_surface(device, eval_board, pose, etl, base_intr, power)

    ext = default_external_camera()
    lit = render_external(ext, eval_board, pose, irr, ambient=0.0)
    printed = render_external(ext, eval_board, pose, None, ambient=1.0)

    bright = lit.gray()
    ys2, xs2 = np.nonzero(bright > 0.05)
    x0, x1 = xs2.min() - 6, xs2.max() + 7
    y0, y1 = ys2.min() - 6, ys2.max() + 7
    c_lit = centroid(lit, (x0, y0, x1, y1), 0.05)
    inverted = Image.from_array(np.clip(0.85 - printed.data, 0.0, 1.0))
    c_dot = centroid(inverted, (x0, y0, x1, y1), 0.3)
    assert np.linalg.norm(c_lit - c_dot) < 0.3


def test_coaxial_capture_projection_homographies_are_inverse(eval_board, etl, base_intr):
    face = eval_board.faces()[0]
    pose = Pose(rotation_from_axis_angle(np.array([0.3, 0.2, 0.1])),
                np.array([5.0, -3.0, 150.0]))
    for power in (-1.5, 0.0, 4.0, 8.0):
        intr = intrinsics_at_power(etl, base_intr, power)
        corners_mm = np.array([[-20.0, -20.0], [20.0, -20.0], [20.0, 20.0], [-20.0, 20.0]])
        pts3 = face.point_at(corners_mm[:, 0], corners_mm[:, 1])
        ideal_px = []
        for p in pts3:
            xc = pose.transform(p)
            pn = xc[:2] / xc[2]
            ideal_px.append([intr.fx * pn[0] + intr.cx, intr.fy * pn[1] + intr.cy])
        h_fwd = homography_dlt(corners_mm, np.asarray(ideal_px))

        # capture direction: ideal pixel -> face mm, via the renderer's map
        kinv_h = np.linalg.inv(face_ray_homography(pose, face))
        k = intr.matrix()
        h_back = Homography(kinv_h @ np.linalg.inv(k))
        prod = h_fwd.matrix @ h_back.matrix
        prod = prod / prod[1, 1]
        assert np.max(np.abs(prod - np.eye(3))) < 1e-9


def test_capture_rerender_idempotent(eval_board, etl, base_intr):
    pose = frontal_pose(170.0)
    a = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256), noise_sigma=0.0)
    b = render_capture(eval_board, pose, etl, base_intr, 0.0, (256, 256), noise_sigma=0.0)
    assert np.array_equal(a.data, b.data)


def test_external_linear_in_irradiance(eval_board, etl, base_intr):
    pose = frontal_pose(160.0)
    power = 0.0
    device = Image.full(512, 512, 0.4, 3)
    irr = render_projection_on_surface(device, eval_board, pose, etl, base_intr, power)
    half = {k: Image.from_array(0.5 * v.data) for k, v in irr.items()}
    ext = default_external_camera()
    ambient = 0.2
    full_view = render_external(ext, eval_board, pose, irr, ambient)
    half_view = render_external(ext, eval_board, pose, half, ambient)
    base_view = render_external(ext, eval_board, pose, None, ambient)
    lhs = half_view.data - base_view.data
    rhs = 0.5 * (full_view.data - base_view.data)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _count_grid_builds(monkeypatch) -> list:
    """Record every radial inversion of a ray grid made through imaging."""
    calls = []
    invert = imaging.undistort_many

    def counted(intr, pd, **kwargs):
        calls.append(intr)
        return invert(intr, pd, **kwargs)

    monkeypatch.setattr(imaging, "undistort_many", counted)
    return calls


# Each cache test uses distortion no other test uses, so its first render misses.

def test_ray_grid_is_built_once_for_repeated_intrinsics(monkeypatch, eval_board, etl,
                                                        base_intr):
    calls = _count_grid_builds(monkeypatch)
    intr = replace(base_intr, k1=-0.0501)
    pose = frontal_pose(150.0)
    # The full grid is kept, as the calibration sweep asks for it once per station;
    # the captures' face windows slice it.
    imaging._undistorted_grid(intrinsics_at_power(etl, intr, 0.0), 256, 256,
                              imaging.CAPTURE_SUPERSAMPLE)
    a = render_capture(eval_board, pose, etl, intr, 0.0, (256, 256), seed=3)
    b = render_capture(eval_board, pose, etl, intr, 0.0, (256, 256), seed=3)
    assert len(calls) == 1
    assert np.array_equal(a.data, b.data)


def test_ray_grid_cache_keeps_one_entry_and_stays_exact(monkeypatch, eval_board, etl,
                                                        base_intr):
    calls = _count_grid_builds(monkeypatch)
    intr_a = replace(base_intr, k1=-0.0502)
    intr_b = replace(base_intr, k1=-0.0503)
    pose = frontal_pose(130.0)
    first = render_capture(eval_board, pose, etl, intr_a, 0.0, (256, 256), seed=4)
    render_capture(eval_board, pose, etl, intr_b, 0.0, (256, 256), seed=4)
    again = render_capture(eval_board, pose, etl, intr_a, 0.0, (256, 256), seed=4)
    assert len(calls) == 3
    assert again.data.tobytes() == first.data.tobytes()


def test_cached_ray_grid_is_read_only(base_intr):
    grid = imaging._undistorted_grid(replace(base_intr, k1=-0.0504), 64, 48, supersample=2)
    assert grid.shape == (96, 128, 2)
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 0.0


def test_pinhole_ray_grid_is_not_kept(base_intr):
    imaging._undistorted_grid(replace(base_intr, k1=-0.0506), 64, 48)
    assert len(imaging._last_grid) == 1
    pinhole = imaging._undistorted_grid(replace(base_intr, k1=0.0, k2=0.0), 64, 48)
    assert not imaging._last_grid
    assert not pinhole.flags.writeable


def test_image_sweep_builds_one_ray_grid_per_station(monkeypatch, calib_board, etl,
                                                     base_intr):
    calls = _count_grid_builds(monkeypatch)
    renders = []
    render = imaging.render_capture

    def counted_render(*args, **kwargs):
        renders.append(args)
        return render(*args, **kwargs)

    monkeypatch.setattr(imaging, "render_capture", counted_render)
    intr = replace(base_intr, k1=-0.0505)
    profile = sweep_calibrate(calib_board, etl, intr, DEVICE_WH, [110.0, 190.0],
                              detector="image", seed=1)
    assert len(profile.entries) == 2
    assert len(renders) == 16
    assert len(calls) == 2


@settings(max_examples=100, deadline=None)
@given(ss=st.sampled_from([1, 2]), pinhole=st.booleans(), data=st.data())
def test_window_ray_grid_equals_the_slice_of_the_full_grid(base_intr, ss, pinhole, data):
    intr = replace(base_intr, k1=0.0, k2=0.0) if pinhole else replace(base_intr, k1=-0.0507)
    w, h = 40, 30
    r0 = data.draw(st.integers(0, h * ss))
    c0 = data.draw(st.integers(0, w * ss))
    window = (slice(r0, data.draw(st.integers(r0, h * ss))),
              slice(c0, data.draw(st.integers(c0, w * ss))))
    imaging._last_grid.clear()  # so the window is built, not sliced from a kept grid
    part = imaging._undistorted_grid(intr, w, h, ss, window)
    full = imaging._undistorted_grid(intr, w, h, ss)
    sliced = imaging._undistorted_grid(intr, w, h, ss, window)
    assert np.array_equal(part, full[window])
    assert np.array_equal(sliced, full[window])
    assert not any(g.flags.writeable for g in (part, full, sliced))


def test_window_inside_the_kept_window_is_sliced_and_any_other_rebuilds(monkeypatch,
                                                                       base_intr):
    """Only a full grid is kept; any window of it is a slice."""
    calls = _count_grid_builds(monkeypatch)
    intr = replace(base_intr, k1=-0.0508)
    window = (slice(10, 60), slice(20, 90))
    imaging._undistorted_grid(intr, 64, 48, 2, window)
    imaging._undistorted_grid(intr, 64, 48, 2, window)
    assert len(calls) == 2 and not imaging._last_grid  # a windowed grid is not kept
    full = imaging._undistorted_grid(intr, 64, 48, 2)
    assert len(calls) == 3
    part = imaging._undistorted_grid(intr, 64, 48, 2, window)
    edge = imaging._undistorted_grid(intr, 64, 48, 2, (slice(0, 96), slice(100, 128)))
    assert len(calls) == 3
    assert part.shape == (50, 70, 2) and edge.shape == (96, 28, 2)
    assert np.shares_memory(part, full) and not part.flags.writeable
    imaging._undistorted_grid(intr, 64, 48, 1, (slice(10, 20), slice(20, 30)))
    assert len(calls) == 4  # another raster is another key
    assert not imaging._last_grid  # and drops the kept grid before its own is built


def test_ray_grid_has_no_ray_past_the_lens_fold():
    # Normalized x = column / 100; the lens folds at distorted radius 0.8607.
    grid = imaging._undistorted_grid(Intrinsics(100.0, 100.0, 0.0, 0.0, k1=-0.2), 100, 1)
    assert np.isfinite(grid[0, :87]).all()
    assert np.isnan(grid[0, 87:]).all()


def test_samples_past_the_lens_fold_render_black():
    face = _black_board().face
    white = OneFaceTarget(replace(face, albedo=Image.full(face.albedo.width,
                                                          face.albedo.height, 1.0)))
    intr = Intrinsics(100.0, 100.0, 63.5, 63.5, k1=-0.2)
    img = render_device_image(white, frontal_pose(15.0), intr, {0: white.face.albedo},
                              (128, 128))
    ys, xs = np.mgrid[0:128, 0:128]
    radius = np.hypot(xs - 63.5, ys - 63.5) / 100.0
    assert (img.data[radius >= 0.861] == 0.0).all()
    assert (img.data[radius < 0.86] == 1.0).all()


def test_capture_inverts_only_its_face_windows(monkeypatch, prism, etl, base_intr):
    points = []
    invert = imaging.undistort_many

    def counted(intr, pd, **kwargs):
        points.append(pd.size // 2)
        return invert(intr, pd, **kwargs)

    monkeypatch.setattr(imaging, "undistort_many", counted)
    intr = replace(base_intr, k1=-0.0509)
    raster = DEVICE_WH[0] * DEVICE_WH[1] * imaging.CAPTURE_SUPERSAMPLE ** 2
    traj = load_trajectory(Path(__file__).resolve().parents[1] / "configs" / "trajectory.json")
    for t in np.linspace(traj.t_start, traj.t_end, 3):
        pose = sample_trajectory(traj, t)
        power, _ = power_for_focus(etl, pose.translation[2])
        areas = [(rows.stop - rows.start) * (cols.stop - cols.start)
                 for rows, cols in _windows(prism, pose, etl, intr, power)]
        points.clear()
        render_capture(prism, pose, etl, intr, power, DEVICE_WH)
        assert len(areas) >= 2
        assert sum(points) == sum(areas)
        assert sum(areas) < 0.15 * raster


def _full_grid_capture(target, pose, etl, base_intr, power):
    """Sharp, noiseless capture warped on the whole ray grid: the reference."""
    w, h = DEVICE_WH
    ss = imaging.CAPTURE_SUPERSAMPLE
    intr = intrinsics_at_power(etl, base_intr, power)
    faces = target.faces()
    vis = visible_faces(target, pose)
    grid = imaging._undistorted_grid(intr, w, h, supersample=ss)
    canvas = imaging._warp_faces_to_raster(
        faces, vis, [faces[i].albedo.data for i in vis], pose, grid, 1)
    return canvas.reshape(h, ss, w, ss, 1).mean(axis=(1, 3)) + imaging.AMBIENT_FLOOR


def _windows(target, pose, etl, base_intr, power):
    intr = intrinsics_at_power(etl, base_intr, power)
    return [imaging._face_window(target.faces()[i], pose, intr, *DEVICE_WH,
                                 imaging.CAPTURE_SUPERSAMPLE)
            for i in visible_faces(target, pose)]


def _assert_capture_matches_full_grid(target, pose, etl, base_intr, power):
    culled = render_capture(target, pose, etl, base_intr, power, DEVICE_WH,
                            noise_sigma=0.0, defocus_blur_px=0.0)
    reference = _full_grid_capture(target, pose, etl, base_intr, power)
    assert reference.max() > imaging.AMBIENT_FLOOR  # the target is in view
    assert np.array_equal(culled.data, reference)


FULL_RASTER = (slice(0, 2 * DEVICE_WH[1]), slice(0, 2 * DEVICE_WH[0]))


@pytest.mark.parametrize("z_mm", [70.0, 250.0])
def test_capture_window_matches_full_grid_over_a_sweep_station(calib_board, etl, base_intr,
                                                              z_mm):
    power, _ = power_for_focus(etl, z_mm)
    amp = _station_lateral_amp(calib_board, etl, base_intr, DEVICE_WH, z_mm, power)
    poses = station_poses(z_mm, lateral_amp_mm=amp)
    for pose in poses:
        _assert_capture_matches_full_grid(calib_board, pose, etl, base_intr, power)
    windows = [w for pose in poses for w in _windows(calib_board, pose, etl, base_intr, power)]
    assert FULL_RASTER not in windows


def test_capture_window_matches_full_grid_along_the_prism_trajectory(prism, etl, base_intr):
    traj = load_trajectory(Path(__file__).resolve().parents[1] / "configs" / "trajectory.json")
    for t in np.linspace(traj.t_start, traj.t_end, 5):
        pose = sample_trajectory(traj, t)
        assert 2 <= len(visible_faces(prism, pose)) <= 3
        power, _ = power_for_focus(etl, pose.translation[2])
        _assert_capture_matches_full_grid(prism, pose, etl, base_intr, power)


@pytest.mark.parametrize("offset_mm, clipped", [
    ((70.0, 0.0), "right edge"),
    ((60.0, 60.0), "lower right corner"),
])
def test_capture_window_clipped_at_the_raster_matches_full_grid(calib_board, etl, base_intr,
                                                                offset_mm, clipped):
    power, _ = power_for_focus(etl, 150.0)
    pose = Pose(rotation_from_axis_angle(np.array([0.2, -0.3, 0.1])),
                np.array([*offset_mm, 150.0]))
    (rows, cols), = _windows(calib_board, pose, etl, base_intr, power)
    assert cols.stop == FULL_RASTER[1].stop and cols.start > 0
    assert (rows.stop == FULL_RASTER[0].stop) == (clipped == "lower right corner")
    _assert_capture_matches_full_grid(calib_board, pose, etl, base_intr, power)


def test_capture_of_a_face_reaching_behind_the_lens_uses_the_full_raster(calib_board, etl,
                                                                         base_intr):
    # Turned 75 degrees about y at 20 mm: one edge sits 9 mm behind the lens.
    power, _ = power_for_focus(etl, 70.0)
    pose = Pose(rotation_from_axis_angle(np.array([0.0, math.radians(75.0), 0.0])),
                np.array([0.0, 0.0, 20.0]))
    assert _windows(calib_board, pose, etl, base_intr, power) == [FULL_RASTER]
    _assert_capture_matches_full_grid(calib_board, pose, etl, base_intr, power)


def test_capture_of_a_face_past_the_distortion_fold_uses_the_full_raster(calib_board, etl,
                                                                        base_intr):
    # With k1 = -0.5, r (1 + k1 r^2) turns back at r = 0.82; the board's far
    # corners reach past it, and their projections fold back inward.
    lens = replace(base_intr, k1=-0.5, k2=0.0)
    power, _ = power_for_focus(etl, 70.0)
    pose = station_poses(70.0, lateral_amp_mm=60.0)[0]
    assert _windows(calib_board, pose, etl, lens, power) == [FULL_RASTER]
    _assert_capture_matches_full_grid(calib_board, pose, etl, lens, power)


def test_centroid_single_pixel():
    arr = np.zeros((64, 64))
    arr[20, 10] = 1.0
    c = centroid(Image.from_array(arr), (0, 0, 64, 64), 0.1)
    assert np.allclose(c, [10.0, 20.0])


def test_centroid_gaussian_blob():
    ys, xs = np.mgrid[0:64, 0:64]
    blob = np.exp(-0.5 * ((xs - 32.5) ** 2 + (ys - 32.5) ** 2) / 16.0)
    c = centroid(Image.from_array(blob), (16, 16, 49, 49), 0.01)
    assert np.max(np.abs(c - 32.5)) < 0.05


def test_centroid_empty_region():
    with pytest.raises(EmptyRegion):
        centroid(Image.full(32, 32, 0.0), (0, 0, 32, 32), 0.5)


def test_psnr_cases():
    a = Image.full(16, 16, 0.0)
    assert psnr(a, a) == math.inf
    b = Image.full(16, 16, 1.0)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)
    c = Image.full(16, 16, 0.1)
    assert psnr(a, c) == pytest.approx(20.0, abs=1e-9)
    with pytest.raises(DimensionMismatch):
        psnr(a, Image.full(8, 8, 0.0))


def test_image_io_round_trip(tmp_path):
    """The written file is the binary PGM/PPM header, then each sample rounded to 8 bits."""
    rng = np.random.default_rng(6)
    for channels in (1, 3):
        img = Image.from_array(rng.uniform(size=(33, 47, channels)))
        path = tmp_path / f"img{channels}.{'pgm' if channels == 1 else 'ppm'}"
        write_image(img, path)
        header = (b"P5" if channels == 1 else b"P6") + b"\n47 33\n255\n"
        raw = path.read_bytes()
        assert raw.startswith(header)
        back = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(33, 47, channels)
        assert np.max(np.abs(back / 255.0 - img.data)) <= 0.5 / 255.0 + 1e-9
