"""Run configuration: one JSON document with an explicit seed.

Reproducibility is the product: every command derives all randomness from
the config seed, so identical configs give identical outputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError, check
from .geometry import Intrinsics
from .imaging import DEFAULT_SENSOR_SIGMA, ExternalCamera, default_external_camera
from .optics import EtlModel
from .pipeline import EMA_ALPHA, SETTLE_STEPS, DpmSetup, EvalSetup, Rig
from .scene import WORKING_RANGE_MM, _naming, _read_object, _value
from .vision import _MIN_IMAGE_PX, NoiseModel

DETECTOR_MODES = ("image", "oracle")
DEFAULT_STATIONS = [70.0, 90.0, 110.0, 130.0, 150.0, 170.0, 190.0, 210.0, 230.0, 250.0]
# The most frames a dpm run or an eval station may ask for. A tracked dpm frame
# writes about 2.5 MB of images, so a run at the cap already writes 2.5 TB.
MAX_FRAMES = 10 ** 6

# The default device; its principal point is derived (see _device).
_DEVICE = {"width": 512, "height": 512, "fx": 600.0, "fy": 600.0, "k1": -0.05, "k2": 0.01}
# JSON key -> EtlModel / NoiseModel field.
_ETL_KEYS = {
    "z0_mm": "z0", "current_gain_d_per_ma": "current_gain",
    "power_min_d": "power_min", "power_max_d": "power_max",
    "blur_gain_px_mm": "blur_gain", "chroma_offset_d": "chroma_offset",
    "breathing_beta": "breathing_beta", "breathing_gamma": "breathing_gamma",
}
_NOISE_KEYS = {"corner_sigma0": "sigma0", "corner_eta": "eta"}
# Top-level keys, each named after the RunConfig field it sets, with the
# owner's default; a value is read as the type of its default.
_RUN = {"detector": Rig.detector, "eval_tilt_deg": EvalSetup.tilt_deg,
        "settle_steps": SETTLE_STEPS, "ema_alpha": EMA_ALPHA,
        "wiener_nsr": DpmSetup.wiener_nsr, "ambient": DpmSetup.ambient,
        "dpm_frames": DpmSetup.frames}


@dataclass
class RunConfig:
    seed: int
    device_wh: tuple[int, int]
    base_intrinsics: Intrinsics
    etl: EtlModel
    scene_path: str
    stations: list[float]
    detector: str
    eval_tilt_deg: float
    settle_steps: int
    ema_alpha: float
    sensor_sigma: float
    corner_noise: NoiseModel
    wiener_nsr: float
    ambient: float
    dpm_frames: int
    external_camera: ExternalCamera = field(default_factory=default_external_camera)

    def __post_init__(self):
        check("non-negative", seed=self.seed, sensor_sigma=self.sensor_sigma)
        check("positive", settle_steps=self.settle_steps, dpm_frames=self.dpm_frames,
              wiener_nsr=self.wiener_nsr)
        check(eval_tilt_deg=self.eval_tilt_deg)
        for name, count in (("settle_steps", self.settle_steps), ("dpm_frames", self.dpm_frames)):
            if count > MAX_FRAMES:
                raise ValueError(f"{name} must be at most {MAX_FRAMES}")
        if min(self.device_wh) < _MIN_IMAGE_PX:
            raise ValueError(f"device width and height must be at least {_MIN_IMAGE_PX} px, "
                             f"got {self.device_wh[0]}x{self.device_wh[1]}")
        if self.detector not in DETECTOR_MODES:
            raise ValueError(f"detector must be one of {DETECTOR_MODES}")
        if not self.stations:
            raise ValueError("stations list is empty")
        lo, hi = WORKING_RANGE_MM
        for z in self.stations:
            if not (lo <= z <= hi):
                raise ValueError(f"station {z} mm outside the {lo:g}..{hi:g} mm working range")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must lie in (0, 1], got {self.ema_alpha}")
        if not 0.0 <= self.ambient <= 1.0:
            raise ValueError(f"ambient must lie in [0, 1], got {self.ambient}")


def _device(dev: dict) -> dict:
    """Typed device block; a principal point it does not name sits at the raster centre."""
    w, h = _value(dev, "width", int), _value(dev, "height", int)
    return {"width": w, "height": h, **{k: _value(dev, k) for k in ("fx", "fy", "k1", "k2")},
            "cx": _value(dev, "cx", float, w / 2.0), "cy": _value(dev, "cy", float, h / 2.0)}


def load_config(path) -> RunConfig:
    """Load and validate a run configuration document.

    Keys the document omits take the values ``default_config_document``
    spells out; keys it does not know are ignored.
    """
    doc = _read_object(path, "config", ConfigError)
    with _naming("config", ConfigError):
        seed, scene_path = _value(doc, "seed", int), _value(doc, "scene", str)
    if not os.path.isfile(scene_path):
        raise ConfigError(f"scene file {scene_path!r} does not exist")
    defaults = default_config_document()
    with _naming("device block", ConfigError):
        device = _device({**_DEVICE, **doc.get("device", {})})
        device_wh = (device.pop("width"), device.pop("height"))
        base_intrinsics = Intrinsics(**device)
    with _naming("etl block", ConfigError):
        etl_doc = {**defaults["etl"], **doc.get("etl", {})}
        etl = EtlModel(**{name: _value(etl_doc, key) for key, name in _ETL_KEYS.items()})
    doc = {**defaults, **doc}
    with _naming("noise block", ConfigError):
        noise = {**defaults["noise"], **doc["noise"]}
        sensor_sigma = _value(noise, "sensor_sigma")
        corner_noise = NoiseModel(**{name: _value(noise, key) for key, name in _NOISE_KEYS.items()})
    with _naming("config", ConfigError):
        return RunConfig(
            seed=seed,
            device_wh=device_wh,
            base_intrinsics=base_intrinsics,
            etl=etl,
            scene_path=scene_path,
            stations=_value(doc, "stations_mm", lambda zs: [float(z) for z in zs]),
            sensor_sigma=sensor_sigma,
            corner_noise=corner_noise,
            **{key: _value(doc, key, type(default)) for key, default in _RUN.items()},
        )


def default_config_document(scene_path: str = "scene.json") -> dict:
    """Template config document with every default spelled out, each read from its owner."""
    etl, noise = EtlModel(), NoiseModel()
    return {
        "seed": 1234,
        "device": _device(_DEVICE),
        "etl": {key: getattr(etl, name) for key, name in _ETL_KEYS.items()},
        "scene": scene_path,
        "stations_mm": list(DEFAULT_STATIONS),
        **_RUN,
        "noise": {"sensor_sigma": DEFAULT_SENSOR_SIGMA,
                  **{key: getattr(noise, name) for key, name in _NOISE_KEYS.items()}},
    }
