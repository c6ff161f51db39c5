import numpy as np
import pytest
from hypothesis import settings

from procamsim.calibration import sweep_calibrate
from procamsim.geometry import Intrinsics, Pose
from procamsim.optics import EtlModel
from procamsim.scene import PrismTarget, default_scene_document, load_target
from procamsim.vision import NoiseModel

STATIONS = [70.0, 90.0, 110.0, 130.0, 150.0, 170.0, 190.0, 210.0, 230.0, 250.0]
DEVICE_WH = (512, 512)

# Every property test draws the same examples on every run, so a pipeline
# check cannot pass or fail on the luck of a draw.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def etl():
    return EtlModel()


@pytest.fixture(scope="session")
def base_intr():
    return Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)


def _built_in(name: str):
    """A target of the default scene document, rasterized once for the whole session."""
    target = load_target(default_scene_document()["targets"][name])
    target.faces()
    return target


@pytest.fixture(scope="session")
def eval_board():
    """One centered 13 mm marker with four reference dots at (+-15, +-15) mm."""
    return _built_in("evaluation_board")


@pytest.fixture(scope="session")
def calib_board():
    """3x3 grid of 13 mm markers at an 18 mm pitch: 36 corners per view."""
    return _built_in("calibration_board")


@pytest.fixture(scope="session")
def prism():
    target = PrismTarget()
    target.faces()
    return target


@pytest.fixture(scope="session")
def clean_profile(calib_board, etl, base_intr):
    """Noiseless oracle-swept profile over the ten standard stations."""
    return sweep_calibrate(
        calib_board, etl, base_intr, DEVICE_WH, STATIONS,
        detector="oracle", noise=NoiseModel(0.0, 0.0), seed=7,
    )


def frontal_pose(z_mm: float) -> Pose:
    return Pose(np.eye(3), np.array([0.0, 0.0, z_mm]))
