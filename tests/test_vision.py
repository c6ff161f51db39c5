import json
import math
from pathlib import Path

import numpy as np
import pytest

from procamsim.errors import InsufficientPoints, NoKnownMarkers
from procamsim.geometry import Pose, project_many, rotation_from_axis_angle
from procamsim.image import Image
from procamsim.imaging import render_capture
from procamsim.optics import intrinsics_at_power, power_for_focus
from procamsim.scene import (
    PrismTarget,
    default_scene_document,
    load_target,
    marker_corners_3d,
    visible_faces,
)
from procamsim.vision import (
    Detection,
    NoiseModel,
    detect_markers,
    estimate_pose,
    estimate_target_distance,
    oracle_detect,
    pnp_planar,
)
from tests.conftest import frontal_pose


def _tilted_pose(z, tilt_deg, angle_deg=0.0):
    rot = rotation_from_axis_angle(np.array([0.0, math.radians(tilt_deg), 0.0]))
    rot = rot @ rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(angle_deg)]))
    return Pose(rot, np.array([0.0, 0.0, z]))


def test_detect_sharp_render_accuracy(eval_board, etl, base_intr):
    power, _ = power_for_focus(etl, 150.0)
    pose = _tilted_pose(150.0, 18.0)
    cap = render_capture(eval_board, pose, etl, base_intr, power, (512, 512), seed=2)
    detections = detect_markers(cap)
    assert [d.marker_id for d in detections] == [0]
    intr = intrinsics_at_power(etl, base_intr, power)
    truth, _ = project_many(intr, pose, marker_corners_3d(eval_board, 0))
    err = np.linalg.norm(detections[0].corners - truth, axis=1)
    assert np.sqrt((err ** 2).mean()) <= 0.15
    assert detections[0].decode_confidence > 0.9


def test_detect_blank_image_returns_nothing():
    assert detect_markers(Image.full(128, 128, 0.5)) == []


def test_detect_rejects_small_images():
    with pytest.raises(ValueError):
        detect_markers(Image.full(32, 32, 0.5))


def test_detect_corner_error_monotone_in_blur(eval_board, etl, base_intr):
    pose = frontal_pose(70.0)
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    truth, _ = project_many(intr, pose, marker_corners_3d(eval_board, 0))
    means = []
    for blur in (0.0, 2.0, 4.0, 8.0):
        errs = []
        for seed in range(3):
            cap = render_capture(eval_board, pose, etl, base_intr, 0.0, (512, 512),
                                 seed=seed, defocus_blur_px=blur)
            dets = detect_markers(cap)
            assert len(dets) == 1, f"lost marker at blur {blur}"
            err = np.linalg.norm(dets[0].corners - truth, axis=1)
            errs.append(np.sqrt((err ** 2).mean()))
        means.append(np.mean(errs))
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_detect_rotation_consistent_corners(eval_board, etl, base_intr):
    # The same physical marker rendered at four in-plane rotations must yield
    # corners that match the projected 3-D corners in canonical order.
    power, _ = power_for_focus(etl, 150.0)
    intr = intrinsics_at_power(etl, base_intr, power)
    for angle in (0.0, 90.0, 180.0, 270.0):
        pose = _tilted_pose(150.0, 10.0, angle)
        cap = render_capture(eval_board, pose, etl, base_intr, power, (512, 512),
                             noise_sigma=0.0)
        dets = detect_markers(cap)
        assert len(dets) == 1
        truth, _ = project_many(intr, pose, marker_corners_3d(eval_board, 0))
        err = np.linalg.norm(dets[0].corners - truth, axis=1)
        assert err.max() < 0.5, f"corner order broken at {angle} deg"


def test_oracle_detect_exact_when_noiseless(eval_board, etl, base_intr):
    pose = frontal_pose(150.0)
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    dets = oracle_detect(eval_board, pose, intr, 0.0, NoiseModel(0.0, 0.0), seed=1)
    truth, _ = project_many(intr, pose, marker_corners_3d(eval_board, 0))
    assert np.max(np.abs(dets[0].corners - truth)) < 1e-12


def test_oracle_noise_model_values():
    noise = NoiseModel()
    assert noise.sigma(8.0) == pytest.approx(0.85)
    assert NoiseModel(0.0, 0.0).sigma(100.0) == 0.0


def test_oracle_deterministic_per_seed(eval_board, etl, base_intr):
    pose = frontal_pose(150.0)
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    a = oracle_detect(eval_board, pose, intr, 2.0, NoiseModel(), seed=5)
    b = oracle_detect(eval_board, pose, intr, 2.0, NoiseModel(), seed=5)
    assert np.array_equal(a[0].corners, b[0].corners)
    c = oracle_detect(eval_board, pose, intr, 2.0, NoiseModel(), seed=6)
    assert not np.array_equal(a[0].corners, c[0].corners)


def test_oracle_prism_reports_visible_faces_sorted(prism, etl, base_intr):
    pose = frontal_pose(150.0)
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    dets = oracle_detect(prism, pose, intr, 0.0, NoiseModel(0.0, 0.0), seed=0)
    ids = [d.marker_id for d in dets]
    expected = sorted(prism.marker_ids[k] for k in visible_faces(prism, pose))
    assert ids == expected


def test_oracle_skips_a_marker_seen_edge_on_and_keeps_the_noise_stream(prism, etl, base_intr):
    """Turned 25 degrees about y, one face is seen at 85 degrees: too thin to be a Detection."""
    pose = Pose(rotation_from_axis_angle(np.array([0.0, math.radians(25.0), 0.0])),
                np.array([0.0, 0.0, 180.0]))
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    visible = sorted(prism.marker_ids[k] for k in visible_faces(prism, pose))
    ids = [d.marker_id for d in oracle_detect(prism, pose, intr, 0.0, NoiseModel(0.0, 0.0))]
    assert len(ids) == len(visible) - 1 and set(ids) < set(visible)
    # Every visible marker draws its noise in id order, the skipped one included.
    rng = np.random.default_rng(np.random.SeedSequence([3, 0x0D]))
    noise = {i: rng.normal(0.0, 0.2, (4, 2)) for i in visible}
    dets = oracle_detect(prism, pose, intr, 0.0, NoiseModel(0.2, 0.0), seed=3)
    assert [d.marker_id for d in dets] == ids
    for d in dets:
        truth, _ = project_many(intr, pose, marker_corners_3d(prism, d.marker_id))
        assert np.array_equal(d.corners, truth + noise[d.marker_id])


def test_oracle_agrees_with_detector_on_sharp_images(eval_board, etl, base_intr):
    power, _ = power_for_focus(etl, 150.0)
    pose = _tilted_pose(150.0, 15.0)
    cap = render_capture(eval_board, pose, etl, base_intr, power, (512, 512), seed=8)
    image_dets = detect_markers(cap)
    intr = intrinsics_at_power(etl, base_intr, power)
    oracle_dets = oracle_detect(eval_board, pose, intr, 0.0, NoiseModel(0.0, 0.0), seed=8)
    gap = np.linalg.norm(image_dets[0].corners - oracle_dets[0].corners, axis=1)
    assert gap.max() < 3.0 * NoiseModel().sigma0


def test_pnp_planar_exact_frontal(eval_board, base_intr):
    pose = frontal_pose(150.0)
    obj = marker_corners_3d(eval_board, 0)
    px, _ = project_many(base_intr, pose, obj)
    recovered, rms = pnp_planar(base_intr, obj, px)
    assert rms < 1e-9
    assert np.max(np.abs(recovered.translation - pose.translation)) < 1e-4
    assert np.max(np.abs(recovered.rotation - pose.rotation)) < 1e-6


def test_pnp_planar_round_trip_random_poses(eval_board, base_intr):
    rng = np.random.default_rng(13)
    obj = marker_corners_3d(eval_board, 0)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis[2] *= 0.3
        axis = axis / np.linalg.norm(axis)
        tilt = rng.uniform(0.0, math.radians(59.0))
        rot = rotation_from_axis_angle(axis * tilt)
        pose = Pose(rot, np.array([rng.uniform(-20, 20), rng.uniform(-20, 20),
                                   rng.uniform(80.0, 240.0)]))
        px, valid = project_many(base_intr, pose, obj)
        if not valid.all():
            continue
        recovered, _ = pnp_planar(base_intr, obj, px)
        assert np.max(np.abs(recovered.translation - pose.translation)) < 1e-4
        assert np.max(np.abs(recovered.rotation - pose.rotation)) < 1e-6


def test_pnp_planar_noise_z_error_bounded(base_intr):
    rng = np.random.default_rng(29)
    obj = np.array([[-6.5, -6.5, 0.0], [6.5, -6.5, 0.0], [6.5, 6.5, 0.0], [-6.5, 6.5, 0.0]])
    pose = frontal_pose(150.0)
    px, _ = project_many(base_intr, pose, obj)
    z_errors = []
    for _ in range(20):
        noisy = px + rng.normal(0.0, 0.1, px.shape)
        recovered, _ = pnp_planar(base_intr, obj, noisy)
        z_errors.append(abs(recovered.translation[2] - 150.0))
    assert max(z_errors) < 1.5


def test_pnp_planar_requires_four_points(base_intr):
    obj = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(InsufficientPoints):
        pnp_planar(base_intr, obj, obj[:, :2])


def test_estimate_target_distance_is_z_component():
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 150.0]))
    assert estimate_target_distance(pose) == 150.0
    pose = Pose(np.eye(3), np.array([30.0, 0.0, 140.0]))
    assert estimate_target_distance(pose) == 140.0  # not the Euclidean norm


def test_fuse_prism_single_face_exact(prism, base_intr):
    pose = frontal_pose(200.0)
    corners = marker_corners_3d(prism, 10)
    px, _ = project_many(base_intr, pose, corners)
    detections = [Detection(10, px, 1.0)]
    recovered, rms = estimate_pose(prism, detections, base_intr)
    assert rms < 1e-9
    assert np.max(np.abs(recovered.translation - pose.translation)) < 1e-4
    assert np.max(np.abs(recovered.rotation - pose.rotation)) < 1e-6


def test_fuse_prism_more_faces_never_worse(prism, base_intr):
    pose = Pose(rotation_from_axis_angle(np.array([0.0, math.radians(30.0), 0.0])),
                np.array([0.0, 0.0, 180.0]))
    vis = visible_faces(prism, pose)
    assert len(vis) >= 2
    ids = [prism.marker_ids[k] for k in vis[:2]]
    rng = np.random.default_rng(31)
    one_face_err = []
    two_face_err = []
    for _ in range(100):
        dets = []
        for marker_id in ids:
            px, _ = project_many(base_intr, pose, marker_corners_3d(prism, marker_id))
            dets.append(Detection(marker_id, px + rng.normal(0.0, 0.1, px.shape), 1.0))
        single, _ = estimate_pose(prism, dets[:1], base_intr)
        both, _ = estimate_pose(prism, dets, base_intr)
        one_face_err.append(abs(single.translation[2] - 180.0))
        two_face_err.append(abs(both.translation[2] - 180.0))
    assert np.mean(two_face_err) <= np.mean(one_face_err)


def test_fuse_prism_unknown_ids(prism, base_intr):
    det = Detection(500, np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float), 1.0)
    with pytest.raises(NoKnownMarkers):
        estimate_pose(prism, [det], base_intr)


SCENE_JSON = Path(__file__).resolve().parents[1] / "configs" / "scene.json"
TARGETS = {
    f"{source}:{name}": doc
    for source, scene in (("default", default_scene_document()),
                          ("scene.json", json.loads(SCENE_JSON.read_text(encoding="utf-8"))))
    for name, doc in scene["targets"].items()
}


@pytest.fixture(scope="module", params=sorted(TARGETS))
def any_target(request):
    return load_target(TARGETS[request.param])


def _expected_ids(target, pose):
    """The markers a device at ``pose`` sees, from the target's own layout fields."""
    if isinstance(target, PrismTarget):
        return sorted(target.marker_ids[k] for k in visible_faces(target, pose))
    front = (pose.rotation @ np.array([0.0, 0.0, -1.0]))[2] < 0
    return sorted(target.marker_ids()) if front else []


@pytest.mark.parametrize("turn_deg", [0.0, 10.0, 180.0, 190.0])
def test_oracle_returns_the_markers_of_the_visible_faces(any_target, turn_deg, etl, base_intr):
    pose = Pose(rotation_from_axis_angle(np.array([0.0, math.radians(turn_deg), 0.0])),
                np.array([0.0, 0.0, 180.0]))
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    dets = oracle_detect(any_target, pose, intr, 0.0, NoiseModel(0.0, 0.0), seed=0)
    expected = _expected_ids(any_target, pose)
    assert [d.marker_id for d in dets] == expected
    assert bool(expected) == (turn_deg < 90.0 or isinstance(any_target, PrismTarget))


def test_estimate_pose_rejects_ids_not_on_the_target(any_target, base_intr):
    det = Detection(500, np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float), 1.0)
    with pytest.raises(NoKnownMarkers):
        estimate_pose(any_target, [det], base_intr)


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection(1, np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), 1.0)  # area < 25
    with pytest.raises(ValueError):
        Detection(1, np.array([[0, 0], [10, 0], [2, 2], [0, 10]], dtype=float), 1.0)  # concave
