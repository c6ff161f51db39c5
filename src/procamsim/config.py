"""Run configuration: one JSON document with an explicit seed.

Reproducibility is the product: every command derives all randomness from
the config seed, so identical configs give identical outputs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .geometry import Intrinsics
from .imaging import ExternalCamera, default_external_camera
from .optics import EtlModel
from .vision import NoiseModel

DETECTOR_MODES = ("image", "oracle")
DEFAULT_STATIONS = [70.0, 90.0, 110.0, 130.0, 150.0, 170.0, 190.0, 210.0, 230.0, 250.0]


@dataclass
class RunConfig:
    seed: int
    device_wh: tuple[int, int]
    base_intrinsics: Intrinsics
    etl: EtlModel
    scene_path: str
    stations: list[float]
    detector: str = "image"
    eval_tilt_deg: float = 28.0
    settle_steps: int = 10
    ema_alpha: float = 0.5
    sensor_sigma: float = 0.003
    corner_noise: NoiseModel = field(default_factory=NoiseModel)
    wiener_nsr: float = 0.01
    ambient: float = 0.15
    dpm_frames: int = 60
    external_camera: ExternalCamera = field(default_factory=default_external_camera)

    def __post_init__(self):
        if self.detector not in DETECTOR_MODES:
            raise ConfigError(f"detector must be one of {DETECTOR_MODES}")
        if not self.stations:
            raise ConfigError("stations list is empty")
        for z in self.stations:
            if not (70.0 <= z <= 250.0):
                raise ConfigError(f"station {z} mm outside the 70..250 mm working range")
        if self.dpm_frames < 1:
            raise ConfigError(f"dpm_frames must be at least 1, got {self.dpm_frames}")
        if not self.wiener_nsr > 0.0:
            raise ConfigError(f"wiener_nsr must be positive, got {self.wiener_nsr}")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ConfigError(f"ema_alpha must lie in (0, 1], got {self.ema_alpha}")


def _get(doc: dict, key: str, kind, default=None, required: bool = False):
    if key not in doc:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    try:
        return kind(doc[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Load and validate a run configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc

    seed = _get(doc, "seed", int, required=True)

    dev = doc.get("device", {})
    try:
        device_wh = (int(dev.get("width", 512)), int(dev.get("height", 512)))
        base = Intrinsics(
            fx=float(dev.get("fx", 600.0)),
            fy=float(dev.get("fy", 600.0)),
            cx=float(dev.get("cx", device_wh[0] / 2.0)),
            cy=float(dev.get("cy", device_wh[1] / 2.0)),
            k1=float(dev.get("k1", -0.05)),
            k2=float(dev.get("k2", 0.01)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad device block: {exc}") from exc

    etl_doc = doc.get("etl", {})
    try:
        etl = EtlModel(
            z0=float(etl_doc.get("z0_mm", 170.0)),
            current_gain=float(etl_doc.get("current_gain_d_per_ma", 0.04)),
            power_min=float(etl_doc.get("power_min_d", -10.0)),
            power_max=float(etl_doc.get("power_max_d", 10.0)),
            blur_gain=float(etl_doc.get("blur_gain_px_mm", 2000.0)),
            chroma_offset=float(etl_doc.get("chroma_offset_d", 0.5)),
            breathing_beta=float(etl_doc.get("breathing_beta", -0.05)),
            breathing_gamma=float(etl_doc.get("breathing_gamma", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad etl block: {exc}") from exc

    scene_path = _get(doc, "scene", str, required=True)
    if not os.path.isfile(scene_path):
        raise ConfigError(f"scene file {scene_path!r} does not exist")

    stations = doc.get("stations_mm", list(DEFAULT_STATIONS))
    try:
        stations = [float(z) for z in stations]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad stations_mm: {exc}") from exc

    noise_doc = doc.get("noise", {})
    try:
        sensor_sigma = float(noise_doc.get("sensor_sigma", 0.003))
        corner_noise = NoiseModel(
            sigma0=float(noise_doc.get("corner_sigma0", 0.05)),
            eta=float(noise_doc.get("corner_eta", 0.1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise block: {exc}") from exc

    return RunConfig(
        seed=seed,
        device_wh=device_wh,
        base_intrinsics=base,
        etl=etl,
        scene_path=scene_path,
        stations=stations,
        detector=_get(doc, "detector", str, default="image"),
        eval_tilt_deg=_get(doc, "eval_tilt_deg", float, default=28.0),
        settle_steps=_get(doc, "settle_steps", int, default=10),
        ema_alpha=_get(doc, "ema_alpha", float, default=0.5),
        sensor_sigma=sensor_sigma,
        corner_noise=corner_noise,
        wiener_nsr=_get(doc, "wiener_nsr", float, default=0.01),
        ambient=_get(doc, "ambient", float, default=0.15),
        dpm_frames=_get(doc, "dpm_frames", int, default=60),
    )


def default_config_document(scene_path: str = "scene.json") -> dict:
    """Template config document with every default spelled out."""
    return {
        "seed": 1234,
        "device": {"width": 512, "height": 512, "fx": 600.0, "fy": 600.0,
                   "cx": 256.0, "cy": 256.0, "k1": -0.05, "k2": 0.01},
        "etl": {"z0_mm": 170.0, "current_gain_d_per_ma": 0.04,
                "power_min_d": -10.0, "power_max_d": 10.0,
                "blur_gain_px_mm": 2000.0, "chroma_offset_d": 0.5,
                "breathing_beta": -0.05, "breathing_gamma": 0.5},
        "scene": scene_path,
        "stations_mm": list(DEFAULT_STATIONS),
        "detector": "image",
        "eval_tilt_deg": 28.0,
        "settle_steps": 10,
        "ema_alpha": 0.5,
        "noise": {"sensor_sigma": 0.003, "corner_sigma0": 0.05, "corner_eta": 0.1},
        "wiener_nsr": 0.01,
        "ambient": 0.15,
        "dpm_frames": 60,
    }
