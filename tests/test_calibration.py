import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from procamsim import calibration, imaging, optim, vision
from procamsim.calibration import (
    CalibView,
    IntrinsicProfile,
    ProfileEntry,
    calibrate,
    extrinsics_from_homography,
    interpolate,
    load_profile,
    refine_lm,
    save_profile,
    station_poses,
    sweep_calibrate,
    zhang_closed_form,
)
from procamsim.errors import (
    DegenerateMotion,
    InsufficientStations,
    InsufficientViews,
    IoError,
    SchemaError,
)
from procamsim.geometry import (
    Homography,
    Intrinsics,
    Pose,
    homography_dlt,
    project_many,
    rotation_from_axis_angle,
)
from procamsim.optics import EtlModel, intrinsics_at_power, power_for_focus
from procamsim.vision import NoiseModel
from tests.conftest import DEVICE_WH, STATIONS


def _grid_points(nx=8, ny=6, pitch=6.0):
    xs = (np.arange(nx) - (nx - 1) / 2.0) * pitch
    ys = (np.arange(ny) - (ny - 1) / 2.0) * pitch
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _synthetic_views(truth, poses, noise_sigma=0.0, seed=0):
    rng = np.random.default_rng(seed)
    obj = _grid_points()
    obj3 = np.hstack([obj, np.zeros((obj.shape[0], 1))])
    views = []
    for pose in poses:
        px, valid = project_many(truth, pose, obj3)
        assert valid.all()
        if noise_sigma > 0:
            px = px + rng.normal(0.0, noise_sigma, px.shape)
        views.append(CalibView(obj, px))
    return views


def test_zhang_closed_form_recovers_truth():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0)
    views = _synthetic_views(truth, station_poses(150.0, 5))
    homs = [homography_dlt(v.object_points, v.image_points) for v in views]
    intr = zhang_closed_form(homs)
    for name in ("fx", "fy", "cx", "cy"):
        assert abs(getattr(intr, name) - getattr(truth, name)) / getattr(truth, name) < 1e-4


def test_zhang_degenerate_motion():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0)
    pose = station_poses(150.0, 1)[0]
    views = _synthetic_views(truth, [pose, pose, pose])
    homs = [homography_dlt(v.object_points, v.image_points) for v in views]
    with pytest.raises(DegenerateMotion):
        zhang_closed_form(homs)


def test_zhang_insufficient_views():
    with pytest.raises(InsufficientViews):
        zhang_closed_form([Homography(np.eye(3)), Homography(np.eye(3))])


def test_extrinsics_from_homography_frontal():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0)
    pose = Pose(np.eye(3), np.array([2.0, -4.0, 150.0]))
    obj = _grid_points()
    obj3 = np.hstack([obj, np.zeros((obj.shape[0], 1))])
    px, _ = project_many(truth, pose, obj3)
    h = homography_dlt(obj, px)
    recovered = extrinsics_from_homography(truth, h)
    assert np.max(np.abs(recovered.rotation - pose.rotation)) < 1e-6
    assert np.max(np.abs(recovered.translation - pose.translation)) < 1e-6


def test_extrinsics_from_homography_tilted():
    truth = Intrinsics(580.0, 620.0, 250.0, 260.0)
    rot = rotation_from_axis_angle(np.array([0.0, math.radians(30.0), 0.0]))
    pose = Pose(rot, np.array([0.0, 5.0, 180.0]))
    obj = _grid_points()
    px, _ = project_many(truth, pose, np.hstack([obj, np.zeros((obj.shape[0], 1))]))
    recovered = extrinsics_from_homography(truth, homography_dlt(obj, px))
    assert np.max(np.abs(recovered.rotation - pose.rotation)) < 1e-6


def test_extrinsics_identity_homography_unit_construction():
    intr = Intrinsics(1.0, 1.0, 0.0, 0.0)
    pose = extrinsics_from_homography(intr, Homography(np.eye(3)))
    assert np.max(np.abs(pose.rotation - np.eye(3))) < 1e-12
    assert np.allclose(pose.translation, [0.0, 0.0, 1.0])


def test_refine_lm_recovers_distortion():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    poses = station_poses(150.0, 6)
    views = _synthetic_views(truth, poses)
    homs = [homography_dlt(v.object_points, v.image_points) for v in views]
    init = zhang_closed_form(homs)
    init_poses = [extrinsics_from_homography(init, h) for h in homs]
    intr, _, rms = refine_lm(views, init, init_poses)
    assert rms < 1e-6
    assert abs(intr.k1 - truth.k1) < 1e-4
    assert abs(intr.k2 - truth.k2) < 1e-4


def test_refine_lm_noisy_rms_matches_noise_level():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    poses = station_poses(150.0, 10)
    views = _synthetic_views(truth, poses, noise_sigma=0.1, seed=21)
    intr, rms = calibrate(views)
    assert 0.07 <= rms <= 0.13


def test_refine_lm_already_optimal_is_stable():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    poses = station_poses(150.0, 5)
    views = _synthetic_views(truth, poses)
    intr1, poses1, rms1 = refine_lm(views, truth, poses)
    intr2, _, rms2 = refine_lm(views, intr1, poses1)
    assert rms2 <= rms1 + 1e-12


def _station_start(seed=5):
    """Eight noisy views of one station and the closed-form starting point."""
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    views = _synthetic_views(truth, station_poses(150.0), noise_sigma=0.1, seed=seed)
    homs = [homography_dlt(v.object_points, v.image_points) for v in views]
    init = zhang_closed_form(homs)
    return views, init, [extrinsics_from_homography(init, h) for h in homs]


def _record_lm_calls(monkeypatch) -> list:
    calls = []
    lm = calibration.levenberg_marquardt

    def recorded(fn, x0, **kwargs):
        calls.append((fn, x0, kwargs))
        return lm(fn, x0, **kwargs)

    monkeypatch.setattr(calibration, "levenberg_marquardt", recorded)
    return calls


def test_block_jacobian_equals_dense_at_start_and_after_five_iterations(monkeypatch):
    calls = _record_lm_calls(monkeypatch)
    refine_lm(*_station_start())
    (fn, x0, kwargs), = calls
    blocks = kwargs["blocks"]
    assert blocks[:2] == (6, 6) and len(blocks[2]) == 8
    monkeypatch.setattr(optim, "MAX_ITER", 5)
    x5 = optim.levenberg_marquardt(fn, x0).x
    assert not np.array_equal(x5, x0)
    for x in (x0, x5):
        r = fn(x)
        assert np.array_equal(optim.numeric_jacobian(fn, x, r, blocks),
                              optim.numeric_jacobian(fn, x, r))


def test_refine_lm_is_bit_identical_with_and_without_blocks(monkeypatch):
    start = _station_start()
    intr, poses, rms = refine_lm(*start)
    lm = calibration.levenberg_marquardt
    monkeypatch.setattr(calibration, "levenberg_marquardt", lambda fn, x0, **_: lm(fn, x0))
    dense_intr, dense_poses, dense_rms = refine_lm(*start)
    assert intr == dense_intr
    assert rms == dense_rms
    for a, b in zip(poses, dense_poses):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def test_refine_lm_blocks_survive_the_benchmark_lm_wrapper():
    # perfbench swaps the residual function for a counting proxy and passes
    # keyword arguments through, so the block structure must be a keyword.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    start = _station_start()
    untraced = refine_lm(*start)
    tracer = layers.Tracer()
    with layers.Patch() as patch:
        layers.install(patch, tracer)
        traced = refine_lm(*start)
    assert traced[0] == untraced[0] and traced[2] == untraced[2]
    assert all(np.array_equal(a.vector(), b.vector()) for a, b in zip(traced[1], untraced[1]))
    # One initial evaluation, 6 + 6 per Jacobian, at least one trial step per
    # iteration; dense Jacobians alone would take 54 per iteration.
    iterations = tracer.counts["lm.calib.iterations"]
    evals = tracer.counts["lm.calib.residual_evals"]
    assert iterations > 0
    assert 1 + 13 * iterations <= evals < 1 + 54 * iterations


def test_calibrate_end_to_end_noiseless():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    views = _synthetic_views(truth, station_poses(150.0, 8))
    intr, rms = calibrate(views)
    assert rms < 1e-6
    for name in ("fx", "fy", "cx", "cy"):
        assert abs(getattr(intr, name) - getattr(truth, name)) / getattr(truth, name) < 1e-4


def test_calibrate_noisy_fx_error_bounded():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    views = _synthetic_views(truth, station_poses(150.0, 10), noise_sigma=0.1, seed=3)
    intr, _ = calibrate(views)
    assert abs(intr.fx - truth.fx) / truth.fx < 0.005


def test_calibrate_frontal_parallel_views_degenerate():
    truth = Intrinsics(600.0, 600.0, 256.0, 256.0)
    poses = [Pose(np.eye(3), np.array([0.0, 0.0, z])) for z in (120.0, 150.0, 180.0, 210.0)]
    views = _synthetic_views(truth, poses)
    with pytest.raises(DegenerateMotion):
        calibrate(views)


def test_pipeline_recovers_random_ground_truths():
    rng = np.random.default_rng(17)
    for _ in range(4):
        truth = Intrinsics(
            fx=rng.uniform(300.0, 1200.0),
            fy=rng.uniform(300.0, 1200.0),
            cx=rng.uniform(220.0, 290.0),
            cy=rng.uniform(220.0, 290.0),
            k1=rng.uniform(-0.1, 0.1),
            k2=rng.uniform(-0.02, 0.02),
        )
        views = _synthetic_views(truth, station_poses(150.0, 8))
        intr, rms = calibrate(views)
        assert rms < 1e-5
        for name in ("fx", "fy", "cx", "cy"):
            assert abs(getattr(intr, name) - getattr(truth, name)) / abs(getattr(truth, name)) < 1e-3
        assert abs(intr.k1 - truth.k1) < 1e-3
        assert abs(intr.k2 - truth.k2) < 1e-3


def test_calib_view_validation():
    with pytest.raises(ValueError):
        CalibView(np.zeros((10, 2)), np.zeros((10, 2)))  # too few
    with pytest.raises(ValueError):
        CalibView(np.zeros((20, 2)), np.zeros((20, 2)))  # no spread


def test_sweep_profile_structure(clean_profile, etl):
    assert len(clean_profile.entries) == 10
    powers = [e.power_d for e in clean_profile.entries]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    expected = sorted(power_for_focus(etl, z)[0] for z in STATIONS)
    assert np.allclose(powers, expected, atol=1e-12)
    assert all(e.rms_px < 0.2 for e in clean_profile.entries)


def test_sweep_recovers_breathing_ground_truth(calib_board, base_intr):
    # With a +0.004/D slope the true fx at the 70 mm station power is 620.168.
    etl = EtlModel(breathing_beta=0.004, breathing_gamma=0.5)
    profile = sweep_calibrate(
        calib_board, etl, base_intr, DEVICE_WH, [70.0, 150.0, 250.0],
        detector="oracle", noise=NoiseModel(0.0, 0.0), seed=5,
    )
    entry = profile.entries[-1]  # highest power = 70 mm station
    assert entry.power_d == pytest.approx(8.403361344537815, abs=1e-9)
    assert abs(entry.intrinsics.fx - 620.1680672268908) / 620.17 < 0.005


def test_sweep_sorts_entries_regardless_of_input_order(calib_board, etl, base_intr):
    profile = sweep_calibrate(
        calib_board, etl, base_intr, DEVICE_WH, [250.0, 70.0, 150.0],
        detector="oracle", noise=NoiseModel(0.0, 0.0), seed=2,
    )
    powers = [e.power_d for e in profile.entries]
    assert powers == sorted(powers)
    assert powers[0] == pytest.approx(-1.8823529411764706, abs=1e-9)
    assert powers[-1] == pytest.approx(8.403361344537815, abs=1e-9)


def test_sweep_single_station_rejected(calib_board, etl, base_intr):
    with pytest.raises(InsufficientStations):
        sweep_calibrate(calib_board, etl, base_intr, DEVICE_WH, [100.0],
                        detector="oracle", seed=1)


class _TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(code, detail)


def test_sweep_passes_foreign_errors_through_unchanged(monkeypatch, calib_board, etl,
                                                       base_intr):
    err = _TwoArgError(7, "solver crashed")

    def fail(views):
        raise err

    monkeypatch.setattr(calibration, "calibrate", fail)
    with pytest.raises(_TwoArgError) as info:
        sweep_calibrate(calib_board, etl, base_intr, DEVICE_WH, [70.0, 150.0],
                        detector="oracle", seed=1)
    assert info.value is err


class _StopSweep(Exception):
    pass


def test_sweep_image_detector_looks_up_capture_and_detector_at_call_time(
    monkeypatch, calib_board, etl, base_intr
):
    # perfbench clocks calibration views by replacing imaging.render_capture
    # and vision.detect_markers; the sweep must look both up when it calls them.
    calls = {"render_capture": 0, "detect_markers": 0}
    render = imaging.render_capture

    def counted_render(*args, **kwargs):
        calls["render_capture"] += 1
        return render(*args, **kwargs)

    def stop_at_detect(capture):
        calls["detect_markers"] += 1
        raise _StopSweep

    monkeypatch.setattr(imaging, "render_capture", counted_render)
    monkeypatch.setattr(vision, "detect_markers", stop_at_detect)
    with pytest.raises(_StopSweep):
        sweep_calibrate(calib_board, etl, base_intr, DEVICE_WH, [70.0, 150.0],
                        detector="image", seed=1)
    assert calls == {"render_capture": 1, "detect_markers": 1}


def test_interpolate_at_node_and_midpoint(clean_profile):
    entry = clean_profile.entries[3]
    intr, clamped = interpolate(clean_profile, entry.power_d)
    assert not clamped
    assert intr == entry.intrinsics
    a, b = clean_profile.entries[2], clean_profile.entries[3]
    mid_power = (a.power_d + b.power_d) / 2.0
    mid, _ = interpolate(clean_profile, mid_power)
    assert mid.fx == pytest.approx((a.intrinsics.fx + b.intrinsics.fx) / 2.0, abs=1e-9)
    assert mid.k1 == pytest.approx((a.intrinsics.k1 + b.intrinsics.k1) / 2.0, abs=1e-12)


def test_interpolate_clamps_with_flag(clean_profile):
    low, clamped = interpolate(clean_profile, clean_profile.power_min - 1.0)
    assert clamped and low == clean_profile.entries[0].intrinsics
    high, clamped = interpolate(clean_profile, clean_profile.power_max + 1.0)
    assert clamped and high == clean_profile.entries[-1].intrinsics


def test_interpolate_tracks_breathing_law(clean_profile, etl, base_intr):
    for power in np.linspace(clean_profile.power_min, clean_profile.power_max, 50):
        interp, _ = interpolate(clean_profile, power)
        truth = intrinsics_at_power(etl, base_intr, power)
        assert abs(interp.fx - truth.fx) / truth.fx < 0.003


def test_profile_round_trip(clean_profile, tmp_path):
    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    back = load_profile(path)
    assert back.device_wh == clean_profile.device_wh
    assert len(back.entries) == len(clean_profile.entries)
    for a, b in zip(back.entries, clean_profile.entries):
        assert a.power_d == b.power_d
        assert a.current_ma == b.current_ma
        assert a.rms_px == b.rms_px
        assert a.intrinsics == b.intrinsics


def test_profile_load_accepts_legacy_created_stamp(clean_profile, tmp_path):
    import json

    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    doc = json.loads(path.read_text())
    assert "created" not in doc
    doc["created"] = "2024-01-01T00:00:00+00:00"
    path.write_text(json.dumps(doc))
    assert load_profile(path).entries == clean_profile.entries


def test_profile_load_rejects_unsorted(tmp_path, clean_profile):
    import json

    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][::-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_profile(path)


def test_profile_load_rejects_missing_field(tmp_path, clean_profile):
    import json

    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    doc = json.loads(path.read_text())
    del doc["entries"][0]["rms_px"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_profile(path)


def test_profile_load_rejects_bad_version(tmp_path, clean_profile):
    import json

    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_profile(path)


def _with(doc: dict, i: int, field: str, value) -> dict:
    """``doc`` with ``value`` in ``field`` of entry ``i`` (a negative ``i`` counts from the end)."""
    entries = [dict(e) for e in doc["entries"]]
    entries[i][field] = value
    return {**doc, "entries": entries}


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda doc: [], None, id="document-is-a-list"),
    pytest.param(lambda doc: {**doc, "entries": [5, *doc["entries"]]}, None,
                 id="entry-is-a-number"),
    pytest.param(lambda doc: _with(doc, 0, "fx", None), "fx", id="fx-is-null"),
    pytest.param(lambda doc: {**doc, "device": {"width": "wide", "height": 512}}, "width",
                 id="width-is-text"),
    pytest.param(lambda doc: {**doc, "device": {"width": float("inf"), "height": 512}}, "width",
                 id="width-is-infinite"),
    pytest.param(lambda doc: {**doc, "entries": doc["entries"][:1]}, None, id="one-entry"),
    *(pytest.param(lambda doc, i=i, field=field: _with(doc, i, field, float("nan")), field,
                   id=f"entry-{i}-{field}-is-nan")
      for i, field in [(0, "power_d"), (-1, "power_d"), (4, "power_d"),
                       (4, "current_ma"), (4, "rms_px")]),
    *(pytest.param(lambda doc, field=field, value=value: _with(doc, 4, field, value), field,
                   id=f"entry-4-{field}-is-{label}")
      for field, value, label in [("fx", "x", "text"), ("power_d", 10 ** 400, "huge"),
                                  ("rms_px", None, "null")]),
])
def test_profile_load_rejects_malformed_documents_with_schema_error(tmp_path, clean_profile,
                                                                    edit, named):
    """``named`` is the key the message must name, where one value is at fault."""
    import json

    path = tmp_path / "profile.json"
    save_profile(clean_profile, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(SchemaError, match=named):
        load_profile(path)


def test_profile_missing_file():
    with pytest.raises(IoError):
        load_profile("/nonexistent/profile.json")


def test_profile_requires_two_entries():
    entry = ProfileEntry(0.0, 0.0, Intrinsics(600, 600, 256, 256), 0.01)
    with pytest.raises(InsufficientStations):
        IntrinsicProfile(entries=(entry,), device_wh=(512, 512))
