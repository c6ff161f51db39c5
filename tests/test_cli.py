import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procamsim import imaging, pipeline
from procamsim.calibration import load_profile, save_profile
from procamsim.cli import main
from procamsim.config import _ETL_KEYS, _NOISE_KEYS, default_config_document, load_config
from procamsim.errors import ConfigError, SceneFormatError, SchemaError
from procamsim.image import Image
from procamsim.optics import EtlModel
from procamsim.pipeline import DpmSetup, EvalSetup, Rig
from procamsim.scene import default_scene_document, load_scene, load_trajectory
from procamsim.vision import NoiseModel

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workspace(tmp_path):
    """Config + scene + trajectory files wired for fast (oracle) runs."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    doc = default_config_document(str(scene))
    doc["detector"] = "oracle"
    doc["stations_mm"] = [70.0, 150.0, 250.0]
    doc["dpm_frames"] = 12
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    traj = tmp_path / "trajectory.json"
    traj.write_text(json.dumps({
        "keyframes": [
            {"t": 0.0, "translation": [0.0, 0.0, 70.0]},
            {"t": 2.0, "translation": [0.0, 0.0, 250.0]},
        ]
    }))
    return tmp_path, config, traj


def test_load_config_requires_seed(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    doc = default_config_document(str(scene))
    del doc["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_missing_scene(tmp_path):
    doc = default_config_document(str(tmp_path / "nope.json"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_out_of_range_station(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    doc = default_config_document(str(scene))
    doc["stations_mm"] = [60.0, 150.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(path)


def _comparable(cfg):
    """RunConfig fields as a dict, without the scene path and the external camera
    (whose pose holds arrays)."""
    fields = dataclasses.asdict(cfg)
    del fields["scene_path"], fields["external_camera"]
    return fields


def test_omitted_config_keys_take_the_owners_defaults(tmp_path, monkeypatch):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    minimal, full = tmp_path / "minimal.json", tmp_path / "full.json"
    minimal.write_text(json.dumps({"seed": 1234, "scene": str(scene)}))
    full.write_text(json.dumps(default_config_document(str(scene))))
    cfg = load_config(minimal)
    assert _comparable(cfg) == _comparable(load_config(full))
    monkeypatch.chdir(Path(__file__).resolve().parents[1])  # its scene path is repo-relative
    assert _comparable(cfg) == _comparable(load_config("configs/default.json"))

    defaults = {f.name: f.default for cls in (Rig, EvalSetup, DpmSetup)
                for f in dataclasses.fields(cls)}
    assert cfg.etl == EtlModel()
    assert cfg.corner_noise == NoiseModel()
    assert cfg.sensor_sigma == defaults["sensor_sigma"]
    assert cfg.ema_alpha == defaults["ema_alpha"]
    assert cfg.detector == defaults["detector"]
    assert cfg.eval_tilt_deg == defaults["tilt_deg"]
    assert cfg.settle_steps == defaults["settle_steps"]
    assert cfg.dpm_frames == defaults["frames"]
    assert cfg.wiener_nsr == defaults["wiener_nsr"]
    assert cfg.ambient == defaults["ambient"]


def test_device_width_without_cx_centres_the_principal_point(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "scene": str(scene),
                                "device": {"width": 256, "height": 200, "cy": 90.0},
                                "interpolation": "linear", "output_dir": "ignored"}))
    cfg = load_config(path)
    assert cfg.device_wh == (256, 200)
    assert (cfg.base_intrinsics.cx, cfg.base_intrinsics.cy) == (128.0, 90.0)
    assert cfg.base_intrinsics.fx == default_config_document()["device"]["fx"]


def test_cmd_calibrate_writes_profile(workspace, capsys):
    tmp_path, config, _ = workspace
    out = tmp_path / "profile.json"
    code = main(["calibrate", "--config", str(config), "--out", str(out)])
    assert code == 0
    profile = load_profile(out)
    assert len(profile.entries) == 3
    assert all(e.rms_px < 0.2 for e in profile.entries)
    assert "power_d" in capsys.readouterr().out


def test_cmd_calibrate_is_reproducible(workspace):
    tmp_path, config, _ = workspace
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["calibrate", "--config", str(config), "--out", str(first)]) == 0
    assert main(["calibrate", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


class _StopSweep(Exception):
    pass


def test_cmd_calibrate_renders_with_the_configured_sensor_sigma(workspace, monkeypatch):
    tmp, config, _ = workspace
    doc = json.loads(config.read_text())
    doc["detector"] = "image"
    doc["noise"]["sensor_sigma"] = 0.05
    config.write_text(json.dumps(doc))
    seen = []

    def first_view(*args, **kwargs):
        seen.append(kwargs.get("noise_sigma"))
        raise _StopSweep

    monkeypatch.setattr(imaging, "render_capture", first_view)
    with pytest.raises(_StopSweep):
        main(["calibrate", "--config", str(config), "--out", str(tmp / "p.json")])
    assert seen == [0.05]


def test_cmd_calibrate_single_station_exits_3(workspace, capsys):
    tmp_path, config, _ = workspace
    doc = json.loads(config.read_text())
    doc["stations_mm"] = [100.0]
    config.write_text(json.dumps(doc))
    code = main(["calibrate", "--config", str(config), "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert "InsufficientStations" in capsys.readouterr().err


def test_cmd_missing_config_exits_2(tmp_path, capsys):
    code = main(["calibrate", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "p.json")])
    assert code == 2


def test_cmd_eval_requires_fixed_at(workspace, capsys):
    tmp_path, config, _ = workspace
    out = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    code = main(["eval", "--config", str(config), "--profile", str(out),
                 "--mode", "fixed", "--out", str(tmp_path / "eval.csv")])
    assert code == 2


@pytest.mark.parametrize("fixed_at", ["0", "-5"])
def test_cmd_eval_rejects_non_positive_fixed_at(workspace, capsys, fixed_at):
    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "eval.csv"
    code = main(["eval", "--config", str(config), "--profile", str(profile),
                 "--mode", "fixed", "--fixed-at", fixed_at, "--out", str(out_csv)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--fixed-at" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["eval", "dpm"])
@pytest.mark.parametrize("block, change", [
    pytest.param("device", {"width": 256, "height": 256, "cx": 128.0, "cy": 128.0}, id="raster"),
    pytest.param("etl", {"blur_gain_px_mm": 1500.0}, id="lens"),
])
def test_cmd_rejects_profile_from_another_device(workspace, capsys, command, block, change):
    tmp_path, config, traj = workspace
    doc = json.loads(config.read_text())
    doc[block].update(change)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(other), "--out", str(profile)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    outputs = {"eval": ["--mode", "adaptive", "--out", str(out)],
               "dpm": ["--trajectory", str(traj), "--out-dir", str(out)]}
    code = main([command, "--config", str(config), "--profile", str(profile),
                 *outputs[command]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "profile" in err
    assert not out.exists()


def test_cmd_eval_adaptive_rows(workspace):
    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    out_csv = tmp_path / "eval.csv"
    code = main(["eval", "--config", str(config), "--profile", str(profile),
                 "--mode", "adaptive", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "distance_mm,mean_mm,std_mm,blur_ir_px,blur_vis_px,frames_lost"
    assert len(lines) == 4  # header + 3 stations
    for line in lines[1:]:
        assert float(line.split(",")[1]) < 0.5


def test_cmd_dpm_runs_and_writes(workspace):
    tmp_path, config, traj = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    out_dir = tmp_path / "run"
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(traj), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "timings.csv").exists()
    assert (out_dir / "manifest.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 1234
    assert any(p.suffix == ".ppm" for p in out_dir.iterdir())


def test_cmd_dpm_empty_trajectory_exits_2(workspace):
    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"keyframes": []}))
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(bad), "--out-dir", str(tmp_path / "run2")])
    assert code == 2


@pytest.mark.parametrize("key, value", [
    ("dpm_frames", 0),
    ("wiener_nsr", 0.0),
    ("ema_alpha", 0.0),
    ("ema_alpha", 1.5),
    ("seed", -5),
    ("device.width", 32),
    ("device.height", 0),
    ("settle_steps", 0),
    ("noise.sensor_sigma", -0.01),
    ("ambient", -0.1),
    ("ambient", 1.5),
    ("device.fx", -1),
    ("device.cx", math.nan),
    ("device.k1", 1.5),
    ("etl.blur_gain_px_mm", math.nan),
    ("etl.breathing_beta", math.nan),
    ("etl.breathing_gamma", math.nan),
    ("etl.current_gain_d_per_ma", math.nan),
    ("etl.chroma_offset_d", math.nan),
    ("noise.corner_sigma0", math.nan),
    ("noise.corner_eta", math.nan),
    ("eval_tilt_deg", math.nan),
    pytest.param("etl.z0_mm", 10 ** 400, id="etl.z0_mm-huge"),
    ("etl.z0_mm", "abc"),
    ("etl.z0_mm", None),
    ("device.fx", "x"),
    ("stations_mm", [70.0, 150.0, "x"]),
    ("ema_alpha", "x"),
    ("noise.corner_eta", [1]),
    pytest.param("dpm_frames", 10 ** 400, id="dpm_frames-huge"),
    pytest.param("dpm_frames", 2 ** 63, id="dpm_frames-2**63"),
    pytest.param("settle_steps", 10 ** 400, id="settle_steps-huge"),
])
def test_cmd_dpm_rejects_bad_run_numbers_before_output(workspace, capsys, key, value):
    """``key`` may name a field inside a block, as ``block.field``; the error names
    the model field that a lens or noise key sets, or the key of a value it cannot
    convert. A frame count past ``MAX_FRAMES`` is refused before anything runs."""
    tmp_path, config, traj = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    doc = json.loads(config.read_text())
    *blocks, key = key.split(".")
    node = doc
    for block in blocks:
        node = node[block]
    node[key] = value
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    out_dir = tmp_path / "run"
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(traj), "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and {**_ETL_KEYS, **_NOISE_KEYS}.get(key, key) in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value, named", [
    ("t", math.nan, "keyframe 1 time"),
    ("t", math.inf, "keyframe 1 time"),
    ("t", 10 ** 400, "document: t: "),
    ("t", "x", "document: t: "),
    ("axis_angle", [1, "a", 0], "document: axis_angle: "),
], ids=["NaN", "Infinity", "huge", "text", "axis-angle-text"])
def test_cmd_dpm_rejects_a_bad_keyframe_time_before_output(workspace, capsys, key, value, named):
    """A bad number in the last keyframe: one line naming it, exit 2, no output."""
    tmp_path, config, traj = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    doc = json.loads(traj.read_text())
    doc["keyframes"][-1][key] = value
    traj.write_text(json.dumps(doc))
    capsys.readouterr()
    out_dir = tmp_path / "run"
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(traj), "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not out_dir.exists()


def test_cmd_rejects_an_integer_past_the_digit_limit(workspace, capsys):
    """Python refuses to parse an integer of more than 4300 digits: one line, exit 2."""
    tmp_path, config, _ = workspace
    doc = json.loads(config.read_text())
    config.write_text(json.dumps(doc).replace(f'"seed": {doc["seed"]}', '"seed": ' + "9" * 5000))
    out = tmp_path / "frame.pgm"
    code = main(["render", "--config", str(config), "--distance", "150", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("file, path, value", [
    ("config.json", ["seed"], math.inf),
    ("config.json", ["settle_steps"], math.inf),
    ("config.json", ["device", "width"], math.inf),
    ("scene.json", ["targets", "calibration_board", "markers", 0, "id"], math.inf),
    ("scene.json", ["targets", "prism", "marker_ids"], [math.inf, 1, 2, 3, 4, 5]),
    ("scene.json", ["targets", "calibration_board", "markers", 0, "id"], -1),
    ("scene.json", ["targets", "calibration_board", "markers", 0, "id"], 1024),
    ("scene.json", ["targets", "prism", "marker_ids"], [-1, 1, 2, 3, 4, 5]),
    ("scene.json", ["targets", "prism", "marker_ids"], [1024, 1, 2, 3, 4, 5]),
])
def test_cmd_rejects_infinity_in_an_integer_field(workspace, capsys, file, path, value):
    """JSON ``Infinity``, which no integer holds, or a marker id outside the 10-bit code:
    one line, exit 2."""
    tmp_path, config, _ = workspace
    doc = json.loads((tmp_path / file).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / file).write_text(json.dumps(doc))
    out = tmp_path / "frame.pgm"
    code = main(["render", "--config", str(config), "--distance", "150", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["Infinity", "NaN"])
@pytest.mark.parametrize("path", [
    ["calibration_board", "extent_mm", 0],
    ["calibration_board", "extent_mm", 1],
    ["calibration_board", "markers", 0, "side_mm"],
    ["calibration_board", "markers", 0, "center_mm", 0],
    ["calibration_board", "markers", 4, "center_mm", 1],
    ["calibration_board", "markers", 0, "angle_rad"],
    ["evaluation_board", "reference_dots", 0, 0],
    ["evaluation_board", "reference_dots", 3, 1],
    ["evaluation_board", "dot_radius_mm"],
    ["prism", "face_width_mm"],
    ["prism", "height_mm"],
    ["prism", "marker_side_mm"],
], ids=lambda path: ".".join(map(str, path)))
def test_cmd_rejects_a_non_finite_target_dimension(workspace, capsys, path, value):
    """JSON ``Infinity`` or ``NaN`` in a target's size, place or angle: one line, exit 2."""
    tmp_path, config, _ = workspace
    scene = tmp_path / "scene.json"
    doc = json.loads(scene.read_text())
    node = doc["targets"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scene.write_text(json.dumps(doc))
    out = tmp_path / "frame.pgm"
    code = main(["render", "--config", str(config), "--distance", "150", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_cmd_render_and_psf(workspace, capsys):
    tmp_path, config, _ = workspace
    out = tmp_path / "frame.pgm"
    assert main(["render", "--config", str(config), "--distance", "170",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert main(["psf", "--config", str(config), "--distance", "70",
                 "--power", "0"]) == 0
    assert "blur radius 16.8067" in capsys.readouterr().out


@pytest.mark.parametrize("distance", ["0", "-5"])
def test_cmd_render_rejects_non_positive_distance(workspace, capsys, distance):
    tmp_path, config, _ = workspace
    out = tmp_path / "frame.pgm"
    code = main(["render", "--config", str(config), "--distance", distance, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NonPositiveDistance" in err
    assert not out.exists()


@pytest.mark.parametrize("command, prism_as, out", [
    pytest.param("eval", "evaluation_board", "e.csv", id="eval-prism-as-board"),
    pytest.param("calibrate", "calibration_board", "p.json", id="calibrate-prism-as-board"),
    pytest.param("eval", None, "missing/e.csv", id="eval-missing-dir"),
    pytest.param("calibrate", None, "missing/p.json", id="calibrate-missing-dir"),
    pytest.param("dpm", None, "profile.json", id="dpm-out-dir-is-a-file"),
])
def test_cmd_rejects_wrong_target_kind_or_unusable_output(workspace, capsys, command,
                                                          prism_as, out):
    tmp_path, config, traj = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    if prism_as is not None:
        scene = tmp_path / "scene.json"
        doc = json.loads(scene.read_text())
        doc["targets"][prism_as] = {"type": "prism"}
        scene.write_text(json.dumps(doc))
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    out = tmp_path / out
    args = {"calibrate": ["--out", str(out)],
            "eval": ["--profile", str(profile), "--mode", "adaptive", "--out", str(out)],
            "dpm": ["--profile", str(profile), "--trajectory", str(traj),
                    "--out-dir", str(out)]}
    code = main([command, "--config", str(config), *args[command]])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(tmp_path.rglob("*")) == sorted(set(before) | {tmp_path / "scene.json"})


@pytest.mark.parametrize("command", ["render", "calibrate", "eval"])
def test_cmd_rejects_out_naming_a_directory_before_any_work(workspace, capsys, command):
    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    if command == "eval":
        assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    args = {"render": ["--distance", "170"],
            "calibrate": [],
            "eval": ["--profile", str(profile), "--mode", "adaptive"]}
    code = main([command, "--config", str(config), *args[command], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is a directory" in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert not any(out.iterdir())


def test_cmd_dpm_prism_leaving_the_view_loses_frames_not_the_run(workspace):
    """Face centres far outside the raster are skipped; the run finishes."""
    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    doc = json.loads(config.read_text())
    doc["dpm_frames"] = 4
    config.write_text(json.dumps(doc))
    sideways = tmp_path / "sideways.json"
    sideways.write_text(json.dumps({"keyframes": [
        {"t": 0.0, "translation": [0.0, 0.0, 150.0]},
        {"t": 1.0, "translation": [400.0, 0.0, 150.0]},
    ]}))
    out_dir = tmp_path / "run"
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(sideways), "--out-dir", str(out_dir)])
    assert code in (0, 4)
    assert len((out_dir / "metrics.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("capture", [
    pytest.param(lambda wh, seed: np.random.default_rng(seed).uniform(size=(wh[1], wh[0])),
                 id="uniform-noise"),
    pytest.param(lambda wh, seed: np.zeros((wh[1], wh[0])), id="all-black"),
])
def test_cmd_dpm_exits_4_when_no_capture_shows_the_target(workspace, monkeypatch, capture):
    """Noise or black in place of every IR capture: each frame is lost, and run_dpm
    returns its records."""

    def render(target, pose, etl, base_intr, power, device_wh, seed=0, **_):
        return Image.from_array(capture(device_wh, seed))

    tmp_path, config, _ = workspace
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--config", str(config), "--out", str(profile)]) == 0
    doc = json.loads(config.read_text())
    doc["detector"], doc["dpm_frames"] = "image", 6
    config.write_text(json.dumps(doc))
    monkeypatch.setattr(pipeline, "render_capture", render)
    out_dir = tmp_path / "run"
    code = main(["dpm", "--config", str(config), "--profile", str(profile),
                 "--trajectory", str(REPO / "configs" / "trajectory.json"),
                 "--out-dir", str(out_dir)])
    assert code == 4
    with open(out_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
        lost = [row["target_lost"] for row in csv.DictReader(fh)]
    assert lost == ["1"] * 6


@pytest.fixture(scope="module")
def documents(tmp_path_factory, clean_profile):
    """Name -> (file to write, a valid document, its loader, the loader's typed error)."""
    root = tmp_path_factory.mktemp("documents")
    scene = root / "scene.json"
    scene.write_text(json.dumps(default_scene_document()))
    profile = root / "profile.json"
    save_profile(clean_profile, profile)
    return {
        "config": (root / "config.json", default_config_document(str(scene)),
                   load_config, ConfigError),
        "scene": (root / "edited_scene.json", default_scene_document(),
                  load_scene, SceneFormatError),
        "profile": (root / "edited_profile.json", json.loads(profile.read_text()),
                    load_profile, SchemaError),
        "trajectory": (root / "trajectory.json",
                       json.loads((REPO / "configs" / "trajectory.json").read_text()),
                       load_trajectory, SceneFormatError),
    }


def _leaves(node, path=()):
    """The path to every value of a JSON document that is neither a list nor an object."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(value, (*path, key))
    else:
        yield path


_SCALARS = (st.none() | st.booleans() | st.text(max_size=6) | st.just(10 ** 400)
            | st.integers(-10 ** 400, 10 ** 400) | st.floats())
_JSON_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_document_with_any_leaf_changed_loads_or_raises_its_typed_error(documents, data):
    """Nulls, bools, text, huge integers, NaN, +-Infinity, lists and objects: nothing
    but the loader's own error may escape."""
    file, doc, load, error = documents[data.draw(st.sampled_from(sorted(documents)))]
    *parents, last = data.draw(st.sampled_from(list(_leaves(doc))))
    node = doc = copy.deepcopy(doc)
    for key in parents:
        node = node[key]
    node[last] = data.draw(_JSON_VALUES)
    file.write_text(json.dumps(doc))
    try:
        load(file)
    except error:
        pass
