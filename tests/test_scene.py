import json
import math
from pathlib import Path

import numpy as np
import pytest

from procamsim.errors import (
    DistanceOutOfRange,
    SceneFormatError,
    TimeOutOfRange,
    UnknownMarkerId,
)
from procamsim.geometry import Pose, rotation_from_axis_angle
from procamsim.scene import (
    ALBEDO_BLACK,
    ALBEDO_WHITE,
    FiducialBoard,
    FiducialMarker,
    MarkerPlacement,
    PrismTarget,
    Trajectory,
    decode_payload,
    default_scene_document,
    encode_marker_bits,
    load_scene,
    load_trajectory,
    marker_corners_3d,
    sample_trajectory,
    visible_faces,
    zone_color,
)


def test_marker_roundtrip_all_ids_all_rotations():
    """Each of the 1024 ids decodes to itself and to the quarter turns it was given."""
    for marker_id in range(1024):
        payload = encode_marker_bits(marker_id)[1:5, 1:5]
        for k in range(4):
            assert decode_payload(np.rot90(payload, k)) == (marker_id, k), (marker_id, k)


def test_marker_border_black():
    bits = encode_marker_bits(321)
    assert not bits[0, :].any() and not bits[-1, :].any()
    assert not bits[:, 0].any() and not bits[:, -1].any()


def test_marker_id_range_checked():
    with pytest.raises(UnknownMarkerId):
        encode_marker_bits(1024)
    with pytest.raises(UnknownMarkerId):
        encode_marker_bits(-1)


def test_marker_corners_centered_board(eval_board):
    corners = marker_corners_3d(eval_board, 0)
    expected = np.array(
        [[-6.5, -6.5, 0.0], [6.5, -6.5, 0.0], [6.5, 6.5, 0.0], [-6.5, 6.5, 0.0]]
    )
    assert np.max(np.abs(corners - expected)) < 1e-12


def test_marker_corners_square_planar_ccw(eval_board):
    corners = marker_corners_3d(eval_board, 0)
    sides = np.linalg.norm(np.roll(corners, -1, axis=0) - corners, axis=1)
    assert np.max(np.abs(sides - 13.0)) < 1e-12
    assert np.max(np.abs(corners[:, 2])) < 1e-12
    x, y = corners[:, 0], corners[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(13.0 * 13.0)  # counter-clockwise in local frame


def test_prism_marker_corner_radius():
    prism = PrismTarget()
    for k, marker_id in enumerate(prism.marker_ids):
        corners = marker_corners_3d(prism, marker_id)
        center, _, _, _ = prism.face_frame(k)
        dist = np.linalg.norm(corners - center, axis=1)
        assert np.max(np.abs(dist - 6.5 * math.sqrt(2.0))) < 1e-12


def test_prism_dihedral_structure():
    prism = PrismTarget()
    for k in range(6):
        _, _, _, n0 = prism.face_frame(k)
        _, _, _, n1 = prism.face_frame((k + 1) % 6)
        assert math.degrees(math.acos(np.clip(n0 @ n1, -1, 1))) == pytest.approx(60.0)


def test_unknown_marker_id(eval_board):
    with pytest.raises(UnknownMarkerId):
        marker_corners_3d(eval_board, 99)
    with pytest.raises(UnknownMarkerId):
        marker_corners_3d(PrismTarget(), 99)


def test_visible_faces_frontal():
    prism = PrismTarget()
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 150.0]))
    vis = visible_faces(prism, pose)
    assert set(vis) == {0, 1, 5}


def test_visible_faces_rotated_half_turn():
    prism = PrismTarget()
    rot = rotation_from_axis_angle(np.array([0.0, math.pi, 0.0]))
    vis = visible_faces(prism, Pose(rot, np.array([0.0, 0.0, 150.0])))
    assert set(vis) == {2, 3, 4}


def test_visible_faces_strict_boundary():
    prism = PrismTarget()
    # Exact quarter turn about y: face 0's normal lands exactly perpendicular
    # to the view axis and the strict inequality must exclude it.
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    vis = visible_faces(prism, Pose(rot, np.array([0.0, 0.0, 150.0])))
    assert 0 not in vis
    assert len(vis) in (2, 3)


def test_visible_faces_count_range():
    prism = PrismTarget()
    rng = np.random.default_rng(0)
    for _ in range(20):
        rot = rotation_from_axis_angle(rng.normal(size=3))
        vis = visible_faces(prism, Pose(rot, np.array([0.0, 0.0, 150.0])))
        assert 1 <= len(vis) <= 3


def test_zone_colors_working_ranges():
    assert zone_color(100.0) == "blue"
    assert zone_color(150.0) == "green"
    assert zone_color(250.0) == "yellow"


def test_zone_boundaries_exact():
    assert zone_color(129.999999) == "blue"
    assert zone_color(130.0) == "green"
    assert zone_color(189.999999) == "green"
    assert zone_color(190.0) == "yellow"
    assert zone_color(70.0) == "blue"


def test_zone_out_of_range():
    with pytest.raises(DistanceOutOfRange):
        zone_color(69.999)
    with pytest.raises(DistanceOutOfRange):
        zone_color(250.001)


def _two_frame_trajectory():
    return Trajectory(
        (
            (0.0, Pose(np.eye(3), np.array([0.0, 0.0, 70.0]))),
            (1.0, Pose(np.eye(3), np.array([0.0, 0.0, 250.0]))),
        )
    )


def test_trajectory_exact_at_keyframes():
    traj = _two_frame_trajectory()
    assert sample_trajectory(traj, 0.0).translation[2] == 70.0
    assert sample_trajectory(traj, 1.0).translation[2] == 250.0


def test_trajectory_linear_midpoint():
    traj = _two_frame_trajectory()
    assert sample_trajectory(traj, 0.5).translation[2] == pytest.approx(160.0)


def test_trajectory_time_out_of_range():
    traj = _two_frame_trajectory()
    with pytest.raises(TimeOutOfRange):
        sample_trajectory(traj, -1.0)
    with pytest.raises(TimeOutOfRange):
        sample_trajectory(traj, 1.5)


def test_trajectory_rotation_slerp_half_angle():
    r1 = rotation_from_axis_angle(np.array([0.0, 0.0, math.pi / 2]))
    traj = Trajectory(
        (
            (0.0, Pose(np.eye(3), np.zeros(3))),
            (1.0, Pose(r1, np.zeros(3))),
        )
    )
    mid = sample_trajectory(traj, 0.5)
    expected = rotation_from_axis_angle(np.array([0.0, 0.0, math.pi / 4]))
    assert np.max(np.abs(mid.rotation - expected)) < 1e-12


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(
            (
                (0.0, Pose(np.eye(3), np.zeros(3))),
                (0.0, Pose(np.eye(3), np.zeros(3))),
            )
        )


def test_board_rejects_out_of_extent_marker():
    with pytest.raises(ValueError):
        FiducialBoard(
            markers=[MarkerPlacement(FiducialMarker(1), (30.0, 0.0))],
            reference_dots=[],
            extent_mm=(50.0, 50.0),
        )


def test_board_rejects_dot_overlapping_marker():
    with pytest.raises(ValueError):
        FiducialBoard(
            markers=[MarkerPlacement(FiducialMarker(1), (0.0, 0.0))],
            reference_dots=[(5.0, 5.0)],
            extent_mm=(50.0, 50.0),
        )


def test_board_albedo_contains_marker_and_dots(eval_board):
    face = eval_board.faces()[0]
    albedo = face.albedo.data[:, :, 0]
    # marker center cell and a reference dot should be darker than background
    cx, cy = face.texture_px(0.0, 0.0)
    dx, dy = face.texture_px(15.0, 15.0)
    bx, by = face.texture_px(-22.0, 0.0)
    assert albedo[int(dy), int(dx)] < 0.2
    assert albedo[int(by), int(bx)] > 0.8


def _albedo_by_definition(width_mm, height_mm, markers, dots, dot_radius_mm, ppm):
    """Every 4x4 sample of the face tested against every marker and dot, then box-averaged."""
    w_px, h_px = int(round(width_mm * ppm)), int(round(height_mm * ppm))
    gx, gy = np.meshgrid((np.arange(w_px * 4) + 0.5) / (ppm * 4) - width_mm / 2.0,
                         (np.arange(h_px * 4) + 0.5) / (ppm * 4) - height_mm / 2.0)
    canvas = np.full(gx.shape, ALBEDO_WHITE)
    for p in markers:
        ca, sa = math.cos(p.angle_rad), math.sin(p.angle_rad)
        dx, dy = gx - p.center_mm[0], gy - p.center_mm[1]
        cell = p.marker.side_mm / 6
        col = np.floor((ca * dx + sa * dy) / cell + 3.0).astype(int)
        row = np.floor((-sa * dx + ca * dy) / cell + 3.0).astype(int)
        inside = (col >= 0) & (col < 6) & (row >= 0) & (row < 6)
        white = p.marker.bits[row.clip(0, 5), col.clip(0, 5)] > 0
        canvas[inside] = np.where(white, ALBEDO_WHITE, ALBEDO_BLACK)[inside]
    for cx, cy in dots:
        canvas[(gx - cx) ** 2 + (gy - cy) ** 2 <= dot_radius_mm * dot_radius_mm] = ALBEDO_BLACK
    return canvas.reshape(h_px, 4, w_px, 4).mean(axis=(1, 3))


def _rotated_off_centre_board(ppm):
    return FiducialBoard(
        markers=[
            MarkerPlacement(FiducialMarker(3, 11.0), (-12.3, 4.71), 0.37),
            MarkerPlacement(FiducialMarker(4, 9.5), (17.2, -9.9), -1.1),
            MarkerPlacement(FiducialMarker(5), (21.0, 14.7), 2.5),
        ],
        reference_dots=[(-27.1, -20.3), (5.0, -21.0), (-28.0, 21.3)],
        extent_mm=(61.3, 47.9), dot_radius_mm=2.6, texture_ppm=ppm,
    )


def _board_touching_its_extent():
    """A marker turned 45 degrees whose corner, and two dots whose rims, meet the edge."""
    half_diagonal = 13.0 / 2.0 * math.sqrt(2.0)
    return FiducialBoard(
        markers=[MarkerPlacement(FiducialMarker(7), (20.0 - half_diagonal, 0.0), math.pi / 4)],
        reference_dots=[(-18.0, 18.0), (0.0, -18.0)],
        extent_mm=(40.0, 40.0),
    )


_SHIPPED_TARGETS = load_scene(Path(__file__).resolve().parents[1] / "configs" / "scene.json")


@pytest.mark.parametrize("target", [
    pytest.param(_rotated_off_centre_board(4.0), id="rotated-off-centre"),
    pytest.param(_rotated_off_centre_board(3.3), id="rotated-off-centre-ppm-3.3"),
    pytest.param(_board_touching_its_extent(), id="touching-the-extent"),
    pytest.param(PrismTarget(marker_side_mm=18.0, texture_ppm=3.3), id="marker-cut-by-its-face"),
    *(pytest.param(t, id=f"scene-{name}") for name, t in _SHIPPED_TARGETS.items()),
])
def test_albedo_equals_the_per_sample_definition(target):
    dots = getattr(target, "reference_dots", [])
    radius = getattr(target, "dot_radius_mm", 0.0)
    for face in target.faces():
        expected = _albedo_by_definition(face.width_mm, face.height_mm, face.markers,
                                         dots, radius, face.ppm)
        assert np.array_equal(face.albedo.data[:, :, 0], expected)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FiducialMarker(1, side_mm=0.0), id="marker-side-zero"),
    pytest.param(lambda: FiducialMarker(1, side_mm=-13.0), id="marker-side-negative"),
    pytest.param(lambda: FiducialBoard([], [], (0.0, 60.0)), id="board-width-zero"),
    pytest.param(lambda: FiducialBoard([], [], (60.0, -1.0)), id="board-height-negative"),
    pytest.param(lambda: FiducialBoard([], [], (60.0, 60.0), texture_ppm=0.0), id="board-ppm-zero"),
    pytest.param(lambda: FiducialBoard([], [], (60.0, 60.0), texture_ppm=math.inf),
                 id="board-ppm-infinite"),
    pytest.param(lambda: FiducialBoard([], [(0.0, 0.0)], (60.0, 60.0), dot_radius_mm=-1.0),
                 id="dot-radius-negative"),
    pytest.param(lambda: PrismTarget(face_width_mm=0.0), id="prism-width-zero"),
    pytest.param(lambda: PrismTarget(height_mm=-20.0), id="prism-height-negative"),
    pytest.param(lambda: PrismTarget(marker_side_mm=-1.0), id="prism-marker-side-negative"),
    pytest.param(lambda: PrismTarget(texture_ppm=math.nan), id="prism-ppm-nan"),
])
def test_targets_reject_non_positive_or_non_finite_sizes(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FiducialBoard([], [], (0.1, 60.0)), id="board"),
    pytest.param(lambda: PrismTarget(face_width_mm=20.0, height_mm=0.1, marker_side_mm=0.05),
                 id="prism"),
])
def test_a_face_smaller_than_one_texel_is_rejected(make):
    """At 4 texels per mm, 0.1 mm rounds to no texel; the albedo would be empty."""
    with pytest.raises(ValueError, match="holds no texel"):
        make()


def test_board_accepts_dots_of_zero_radius():
    board = FiducialBoard([], [(0.0, 0.0)], (20.0, 20.0), dot_radius_mm=0.0)
    assert np.array_equal(board.faces()[0].albedo.data, np.full((80, 80, 1), ALBEDO_WHITE))


def test_scene_json_round_trip(tmp_path):
    doc = {
        "targets": {
            "evaluation_board": {
                "type": "board",
                "extent_mm": [50.0, 50.0],
                "markers": [{"id": 0, "center_mm": [0.0, 0.0]}],
                "reference_dots": [[-15.0, -15.0], [15.0, 15.0]],
            },
            "prism": {"type": "prism", "face_width_mm": 22.0},
        }
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    targets = load_scene(path)
    assert isinstance(targets["evaluation_board"], FiducialBoard)
    assert isinstance(targets["prism"], PrismTarget)
    assert targets["prism"].face_width_mm == 22.0


def test_scene_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(SceneFormatError):
        load_scene(path)
    path.write_text(json.dumps({"targets": {"x": {"type": "sphere"}}}))
    with pytest.raises(SceneFormatError):
        load_scene(path)
    with pytest.raises(SceneFormatError):
        load_scene(tmp_path / "missing.json")
    marker = {"id": 1, "center_mm": [0.0, 0.0]}
    for bad in (
        [],
        {"targets": {"x": []}},
        {"targets": {"b": {"type": "board", "extent_mm": [20.0, 20.0],
                           "markers": [{"id": 1, "center_mm": [10.0, 0.0]}]}}},
        {"targets": {"b": {"type": "board", "extent_mm": [50.0, 50.0],
                           "markers": [{"id": 1, "center_mm": ["left", 0.0]}]}}},
        {"targets": {"b": {"type": "board", "extent_mm": [50.0, 50.0],
                           "markers": [marker], "reference_dots": [[5.0, 5.0]]}}},
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(SceneFormatError):
            load_scene(path)


@pytest.mark.parametrize("name, key, value", [
    ("calibration_board", "center_mm", None),
    ("calibration_board", "id", "x"),
    ("evaluation_board", "reference_dots", [[1.0, "a"]]),
    ("evaluation_board", "extent_mm", [50.0]),
    ("prism", "face_width_mm", "x"),
    ("prism", "marker_ids", [10, 11, 12, 13, 14, None]),
])
def test_a_value_the_loader_cannot_convert_is_named_by_its_key(tmp_path, name, key, value):
    """A marker's own keys are set on its first marker; an item of a list is named
    by the list's key."""
    doc = default_scene_document()
    target = doc["targets"][name]
    (target["markers"][0] if key in ("center_mm", "id") else target)[key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneFormatError, match=f"document: {key}: "):
        load_scene(path)


def _marker_ids(target):
    return target.marker_ids() if isinstance(target, FiducialBoard) else list(target.marker_ids)


def test_scene_file_and_built_in_targets_match_the_default_document(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(default_scene_document()))
    documented = load_scene(path)
    shipped = load_scene(Path(__file__).resolve().parents[1] / "configs" / "scene.json")
    assert documented.keys() == shipped.keys()
    for name, target in documented.items():
        other = shipped[name]
        assert type(other) is type(target)
        assert _marker_ids(other) == _marker_ids(target)
        assert len(other.faces()) == len(target.faces())
        for a, b in zip(other.faces(), target.faces()):
            assert np.array_equal(a.albedo.data, b.albedo.data)


def test_trajectory_json(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text(json.dumps({
        "keyframes": [
            {"t": 0.0, "translation": [0, 0, 70]},
            {"t": 2.0, "translation": [0, 0, 250], "axis_angle": [0, 0.1, 0]},
        ]
    }))
    traj = load_trajectory(path)
    assert traj.t_start == 0.0 and traj.t_end == 2.0
    path.write_text(json.dumps({"keyframes": []}))
    with pytest.raises(SceneFormatError):
        load_trajectory(path)
