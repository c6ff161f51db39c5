import csv
import importlib.util
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from procamsim import pipeline
from procamsim.calibration import interpolate
from procamsim.errors import TargetLost
from procamsim.geometry import Pose, project
from procamsim.image import Image
from procamsim.imaging import centroid, render_device_image
from procamsim.optics import (
    blur_radius,
    focus_distance,
    intrinsics_at_power,
    power_for_current,
    power_for_focus,
)
from procamsim.pipeline import (
    ControllerState,
    DpmSetup,
    EvalSetup,
    FrameRecord,
    autofocus_step,
    dot_projection_texture,
    projection_textures,
    recovery_state,
    run_alignment_eval,
    run_dpm,
    write_metrics,
    zone_transitions,
)
from procamsim.scene import Trajectory, load_target
from procamsim.vision import Detection, NoiseModel, oracle_detect
from tests.conftest import frontal_pose


def _noiseless_loop(board, etl, base_intr, profile, z, steps=3):
    """Run the control loop with exact oracle detections at a static station."""
    pose_true = frontal_pose(z)
    state = ControllerState.initial(profile, etl)
    for _ in range(steps):
        power = power_for_current(etl, state.drive_current)
        intr_true = intrinsics_at_power(etl, base_intr, power)
        dets = oracle_detect(board, pose_true, intr_true, 0.0, NoiseModel(0.0, 0.0), 0)
        state, pose = autofocus_step(state, None, profile, board, etl, detections=dets)
    return state, pose


@pytest.mark.parametrize("z", [70.0, 110.0, 150.0, 200.0, 250.0])
def test_autofocus_converges_in_three_steps(eval_board, etl, base_intr, clean_profile, z):
    state, _ = _noiseless_loop(eval_board, etl, base_intr, clean_profile, z, steps=3)
    power = power_for_current(etl, state.drive_current)
    assert abs(focus_distance(etl, power) - z) < 0.5
    assert blur_radius(etl, z, power) < 0.5
    assert not state.power_clamped


def test_autofocus_error_decreases_monotonically(eval_board, etl, base_intr, clean_profile):
    z = 250.0
    pose_true = frontal_pose(z)
    state = ControllerState.initial(clean_profile, etl)
    errors = []
    for _ in range(4):
        power = power_for_current(etl, state.drive_current)
        errors.append(abs(focus_distance(etl, power) - z))
        intr_true = intrinsics_at_power(etl, base_intr, power)
        dets = oracle_detect(eval_board, pose_true, intr_true, 0.0, NoiseModel(0.0, 0.0), 0)
        state, _ = autofocus_step(state, None, clean_profile, eval_board, etl, detections=dets)
    settled = [e for e in errors if e >= 0.5]
    assert all(b < a for a, b in zip(settled, settled[1:]))
    power = power_for_current(etl, state.drive_current)
    assert abs(focus_distance(etl, power) - z) < 0.5


def test_autofocus_at_station_uses_node_intrinsics(eval_board, etl, base_intr, clean_profile):
    state, _ = _noiseless_loop(eval_board, etl, base_intr, clean_profile, 90.0, steps=6)
    power90, _ = power_for_focus(etl, 90.0)
    node = next(e for e in clean_profile.entries if abs(e.power_d - power90) < 1e-9)
    assert abs(state.active_intrinsics.fx - node.intrinsics.fx) < 1e-6


def test_autofocus_raises_target_lost(eval_board, etl, clean_profile):
    state = ControllerState.initial(clean_profile, etl)
    with pytest.raises(TargetLost):
        autofocus_step(state, None, clean_profile, eval_board, etl, detections=[])
    blank = Image.full(128, 128, 0.0)
    with pytest.raises(TargetLost):
        autofocus_step(state, blank, clean_profile, eval_board, etl)


@pytest.mark.parametrize("z_mm", [-5.0, math.nan])
def test_implausible_pose_is_a_lost_frame(monkeypatch, eval_board, etl, base_intr,
                                          clean_profile, z_mm):
    # A Pose refuses non-finite entries; the controller reads only the translation.
    pose_estimate = SimpleNamespace(translation=np.array([0.0, 0.0, z_mm]))
    monkeypatch.setattr(pipeline, "estimate_pose", lambda *args: (pose_estimate, 0.1))
    rig = pipeline.Rig(etl=etl, base_intrinsics=base_intr, profile=clean_profile,
                       device_wh=(512, 512), detector="oracle")
    state = ControllerState.initial(clean_profile, etl)
    dets = oracle_detect(eval_board, frontal_pose(150.0), base_intr, 0.0,
                         NoiseModel(0.0, 0.0), 0)
    new_state, pose = rig.step(state, eval_board, dets, attempt=0)
    assert pose is None
    assert new_state == recovery_state(state, clean_profile, etl, 0)


def test_a_corner_past_the_lens_fold_is_a_lost_frame(eval_board, etl, base_intr, clean_profile):
    """With k1 = -0.5 the lens folds at distorted radius 0.544; the raster corner is at 0.6."""
    folding = replace(clean_profile, entries=tuple(
        replace(e, intrinsics=replace(e.intrinsics, k1=-0.5)) for e in clean_profile.entries))
    rig = pipeline.Rig(etl=etl, base_intrinsics=base_intr, profile=folding,
                       device_wh=(512, 512), detector="oracle")
    state = ControllerState.initial(folding, etl)
    dets = oracle_detect(eval_board, frontal_pose(150.0), base_intr, 0.0,
                         NoiseModel(0.0, 0.0), 0)
    corner = dets[0].corners - dets[0].corners.min(axis=0)  # moved to pixel (0, 0)
    dets = [Detection(dets[0].marker_id, corner, 1.0)] + dets[1:]
    new_state, pose = rig.step(state, eval_board, dets, attempt=0)
    assert pose is None
    assert new_state == recovery_state(state, folding, etl, 0)


def test_recovery_state_cycles_profile_stations(etl, clean_profile):
    state = ControllerState.initial(clean_profile, etl)
    n = len(clean_profile.entries)
    powers = []
    for attempt in range(n):
        recovered = recovery_state(state, clean_profile, etl, attempt)
        powers.append(power_for_current(etl, recovered.drive_current))
    assert powers[0] == clean_profile.power_max
    assert sorted(powers, reverse=True) == powers
    assert len(set(powers)) == n


def test_render_device_image_places_dots(eval_board, etl, base_intr):
    power, _ = power_for_focus(etl, 170.0)
    pose = frontal_pose(170.0)
    intr = intrinsics_at_power(etl, base_intr, power)
    textures = projection_textures(eval_board, (1.0, 1.0, 1.0))
    device = render_device_image(eval_board, pose, intr, textures, (512, 512))
    for dot in eval_board.reference_dots:
        expected = project(intr, pose, np.array([dot[0], dot[1], 0.0]))
        x0, y0 = int(expected[0]) - 12, int(expected[1]) - 12
        c = centroid(device, (x0, y0, x0 + 25, y0 + 25), 0.05)
        mm_per_px = 170.0 / intr.fx
        assert np.linalg.norm(c - expected) * mm_per_px < 0.2


def test_render_device_image_differential_shift(eval_board, etl, base_intr):
    power, _ = power_for_focus(etl, 170.0)
    intr = intrinsics_at_power(etl, base_intr, power)
    pose_a = frontal_pose(170.0)
    pose_b = Pose(pose_a.rotation, pose_a.translation + np.array([5.0, 0.0, 0.0]))
    textures = projection_textures(eval_board, (1.0, 1.0, 1.0))
    dev_a = render_device_image(eval_board, pose_a, intr, textures, (512, 512))
    dev_b = render_device_image(eval_board, pose_b, intr, textures, (512, 512))
    dot = eval_board.reference_dots[0]
    pa = project(intr, pose_a, np.array([dot[0], dot[1], 0.0]))
    pb = project(intr, pose_b, np.array([dot[0], dot[1], 0.0]))
    ca = centroid(dev_a, (int(pa[0]) - 12, int(pa[1]) - 12, int(pa[0]) + 13, int(pa[1]) + 13), 0.05)
    cb = centroid(dev_b, (int(pb[0]) - 12, int(pb[1]) - 12, int(pb[0]) + 13, int(pb[1]) + 13), 0.05)
    assert np.linalg.norm((cb - ca) - (pb - pa)) < 0.2


def test_render_device_image_black_texture(eval_board, etl, base_intr):
    intr = intrinsics_at_power(etl, base_intr, 0.0)
    face = eval_board.faces()[0]
    black = {0: Image.full(face.albedo.width, face.albedo.height, 0.0, 3)}
    device = render_device_image(eval_board, frontal_pose(170.0), intr, black, (256, 256))
    assert device.data.max() == 0.0


def test_dot_texture_brightest_at_dots(eval_board):
    tex = dot_projection_texture(eval_board)
    face = eval_board.faces()[0]
    for dot in eval_board.reference_dots:
        x, y = face.texture_px(dot[0], dot[1])
        assert tex.data[int(round(y)), int(round(x)), 0] > 0.95
    cx, cy = face.texture_px(0.0, 0.0)
    assert tex.data[int(round(cy)), int(round(cx)), 0] < 0.01


def _linear_trajectory(z0, z1, t1=2.0):
    return Trajectory((
        (0.0, Pose(np.eye(3), np.array([0.0, 0.0, z0]))),
        (t1, Pose(np.eye(3), np.array([0.0, 0.0, z1]))),
    ))


def test_dpm_teleport_reconverges(prism, etl, base_intr, clean_profile):
    # 180 mm jump between consecutive keyframes held constant afterwards.
    traj = Trajectory((
        (0.0, Pose(np.eye(3), np.array([0.0, 0.0, 70.0]))),
        (0.09, Pose(np.eye(3), np.array([0.0, 0.0, 70.0]))),
        (0.1, Pose(np.eye(3), np.array([0.0, 0.0, 250.0]))),
        (1.0, Pose(np.eye(3), np.array([0.0, 0.0, 250.0]))),
    ))
    setup = DpmSetup(prism=prism, etl=etl, base_intrinsics=base_intr,
                     profile=clean_profile, device_wh=(512, 512),
                     detector="oracle", noise=NoiseModel(0.0, 0.0),
                     seed=3, frames=20)
    records, _ = run_dpm(setup, traj)
    jump = next(i for i, r in enumerate(records) if r.true_distance_mm > 200.0)
    after = records[jump + 3]
    assert abs(after.estimated_distance_mm - after.true_distance_mm) < 1.0
    assert after.blur_ir_px < 0.5
    spike = max(r.blur_ir_px for r in records[jump:jump + 3])
    assert spike > 5.0


def test_dpm_static_run_all_green(prism, etl, base_intr, clean_profile):
    traj = _linear_trajectory(150.0, 150.0 + 1e-9, t1=1.0)
    setup = DpmSetup(prism=prism, etl=etl, base_intrinsics=base_intr,
                     profile=clean_profile, device_wh=(512, 512),
                     detector="oracle", seed=4, frames=8)
    records, _ = run_dpm(setup, traj)
    assert all(r.zone == "green" for r in records if not r.target_lost)
    for r in records[3:]:
        assert r.misalignment_mm < 0.5


def _counting(calls, name, original):
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return counted


@pytest.mark.parametrize("detector, expected", [
    ("image", {"render_capture": 2, "detect_markers": 2, "oracle_detect": 0,
               "autofocus_step": 2}),
    ("oracle", {"render_capture": 0, "detect_markers": 0, "oracle_detect": 2,
                "autofocus_step": 2}),
])
def test_run_dpm_calls_wrappable_module_names(monkeypatch, prism, etl, base_intr,
                                              clean_profile, detector, expected):
    # perfbench times the layers by replacing these pipeline attributes; each
    # frame has to reach them through the module, not a bound reference.
    calls = dict.fromkeys(expected, 0)
    for name in calls:
        monkeypatch.setattr(pipeline, name, _counting(calls, name, getattr(pipeline, name)))
    setup = DpmSetup(prism=prism, etl=etl, base_intrinsics=base_intr,
                     profile=clean_profile, device_wh=(512, 512),
                     detector=detector, seed=1, frames=2)
    run_dpm(setup, _linear_trajectory(150.0, 160.0))
    assert calls == expected


def test_perfbench_wrappers_install_and_restore():
    # perfbench wraps procamsim names from outside; a rename here would stop
    # the benchmark, so installing every wrapper has to work and be undone.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    with layers.Patch() as patch:
        layers.install(patch, layers.Tracer())
        patched = list(patch._saved)
        assert patched
        assert all(getattr(m, attr) is not original for m, attr, original in patched)
    assert all(getattr(m, attr) is original for m, attr, original in patched)


def test_fixed_mode_measures_with_pinned_intrinsics_after_a_lost_last_frame(
    monkeypatch, eval_board, etl, base_intr, clean_profile
):
    setup = EvalSetup(board=eval_board, etl=etl, base_intrinsics=base_intr,
                      profile=clean_profile, device_wh=(512, 512), stations=[150.0],
                      detector="oracle", seed=2)
    calls = []
    detect = pipeline.oracle_detect

    def lose_last_settle_frame(*args, **kwargs):
        calls.append(None)
        return [] if len(calls) == setup.settle_steps else detect(*args, **kwargs)

    rendered_with = []
    render = pipeline.render_device_image

    def record_intrinsics(target, pose, intr, *args):
        rendered_with.append(intr)
        return render(target, pose, intr, *args)

    monkeypatch.setattr(pipeline, "oracle_detect", lose_last_settle_frame)
    monkeypatch.setattr(pipeline, "render_device_image", record_intrinsics)
    [row] = run_alignment_eval(setup, "fixed", fixed_at_mm=150.0)
    pinned, _ = interpolate(clean_profile, power_for_focus(etl, 150.0)[0])
    assert row.frames_lost == 1
    assert rendered_with == [pinned]
    assert math.isfinite(row.mean_mm)


@pytest.mark.parametrize("dot", [[-21.0, 0.0], [0.0, -21.0]])
def test_eval_dot_window_is_cut_at_the_texture_edge(etl, base_intr, clean_profile, dot):
    # The dot's 6 mm window reaches 2 mm past the left or top edge of the 50 mm board.
    board = load_target({"type": "board", "extent_mm": [50.0, 50.0],
                         "markers": [{"id": 0, "center_mm": [0.0, 0.0]}],
                         "reference_dots": [dot]})
    setup = EvalSetup(board=board, etl=etl, base_intrinsics=base_intr,
                      profile=clean_profile, device_wh=(512, 512), stations=[150.0],
                      detector="oracle", seed=2)
    [row] = run_alignment_eval(setup, "adaptive")
    assert row.mean_mm < 0.1


def test_coaxial_zero_drift_across_distances(eval_board, base_intr):
    # With the true pose, the true intrinsics, and no chromatic offset, the
    # shared image plane leaves no calibration term to drift: projected dots
    # land on the printed dots to within rasterization error at any distance.
    from procamsim.imaging import render_projection_on_surface
    from procamsim.optics import EtlModel

    etl = EtlModel(chroma_offset=0.0)
    face = eval_board.faces()[0]
    for z in (70.0, 150.0, 250.0):
        power, _ = power_for_focus(etl, z)
        pose = frontal_pose(z)
        intr = intrinsics_at_power(etl, base_intr, power)
        textures = projection_textures(eval_board, (1.0, 1.0, 1.0))
        device = render_device_image(eval_board, pose, intr, textures, (512, 512))
        irr = render_projection_on_surface(device, eval_board, pose, etl, base_intr, power)
        plane = irr[0].gray()
        for dot in eval_board.reference_dots:
            x0, y0 = face.texture_px(dot[0] - 5.0, dot[1] - 5.0)
            x1, y1 = face.texture_px(dot[0] + 5.0, dot[1] + 5.0)
            patch = plane[int(round(y0)):int(round(y1)) + 1, int(round(x0)):int(round(x1)) + 1]
            weights = np.clip(patch - 0.05, 0.0, None)
            ys, xs = np.mgrid[0:patch.shape[0], 0:patch.shape[1]]
            cx = (weights * xs).sum() / weights.sum() + int(round(x0))
            cy = (weights * ys).sum() / weights.sum() + int(round(y0))
            u, v = face.mm_at(cx, cy)
            assert math.hypot(u - dot[0], v - dot[1]) < 0.3, (z, dot)


def test_write_metrics_round_trip(tmp_path):
    rec = FrameRecord(
        frame_index=0, time_s=0.1, true_distance_mm=70.0,
        estimated_distance_mm=70.123456789012345, power_d=8.4,
        power_clamped=False, blur_ir_px=0.5, blur_vis_px=1.0, zone="blue",
        misalignment_mm=0.0123456789012345, pose_err_mm=0.1, pose_err_deg=0.01,
        target_lost=False, timings_ms={"capture_detect": 12.0},
    )
    path = tmp_path / "metrics.csv"
    write_metrics([rec], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["estimated_distance_mm"]) == rec.estimated_distance_mm
    assert float(rows[0]["misalignment_mm"]) == rec.misalignment_mm
    assert rows[0]["zone"] == "blue"
    assert "capture_detect" not in rows[0]


def test_write_metrics_empty_errors(tmp_path):
    path = tmp_path / "metrics.csv"
    with pytest.raises(ValueError):
        write_metrics([], path)
    assert not path.exists()


def test_zone_transitions_skip_lost_frames():
    def rec(i, zone, lost=False):
        return FrameRecord(i, 0.0, 100.0, 100.0, 0.0, False, 0.0, 0.0, zone,
                           0.0, 0.0, 0.0, lost)

    records = [rec(0, "none", lost=True), rec(1, "blue"), rec(2, "blue"),
               rec(3, "green"), rec(4, "green"), rec(5, "yellow")]
    assert zone_transitions(records) == [3, 5]
