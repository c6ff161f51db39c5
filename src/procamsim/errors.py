"""Exception hierarchy for the simulator.

Every failure mode raised by the library derives from ProcamError so callers
can catch the whole family at a pipeline boundary.
"""
import math


def check(rule: str = "finite", **values) -> None:
    """Raise ValueError naming the first value that is not finite, or not ``rule``.

    ``rule`` is "finite", "positive" or "non-negative". The comparisons hold
    for an integer of any size, which ``math.isfinite`` cannot convert.
    """
    for name, value in values.items():
        if not -math.inf < value < math.inf or (rule == "positive" and value <= 0.0) or (
                rule == "non-negative" and value < 0.0):
            what = "finite" if rule == "finite" else f"finite and {rule}"
            raise ValueError(f"{name} must be {what}, got {value!r}")


class ProcamError(Exception):
    """Base class for all library errors."""


# --- geometry ---------------------------------------------------------------

class PointBehindCamera(ProcamError):
    """Projection requested for a point at or behind the lens plane."""


class BeyondDistortionRange(ProcamError, ValueError):
    """Normalized point lies outside the unit disc where undistortion is defined."""


class DegenerateConfiguration(ProcamError):
    """Point configuration is rank-deficient for the requested estimation."""


# --- optics -----------------------------------------------------------------

class FocusBeyondInfinity(ProcamError):
    """Requested optical power pushes the focus plane past infinity."""


class NonPositiveDistance(ProcamError):
    """Distance argument must be strictly positive."""


class PowerOutOfRange(ProcamError):
    """Optical power outside the lens drive range."""


class CurrentOutOfRange(ProcamError):
    """Drive current maps to a power outside the lens range."""


# --- scene ------------------------------------------------------------------

class UnknownMarkerId(ProcamError, ValueError):
    """Marker id is not part of the target."""


class TimeOutOfRange(ProcamError):
    """Sample time lies outside the trajectory's keyframe span."""


class DistanceOutOfRange(ProcamError):
    """Distance outside the color-zone working range."""


class SceneFormatError(ProcamError):
    """Scene or trajectory document violates the documented schema."""


# --- imaging ----------------------------------------------------------------

class NoVisibleSurface(ProcamError):
    """No target face is oriented toward the device."""


class EmptyRegion(ProcamError):
    """Centroid region contains no pixel above threshold."""


class DimensionMismatch(ProcamError):
    """Image operands have different shapes."""


# --- calibration ------------------------------------------------------------

class InsufficientViews(ProcamError):
    """Fewer views than the closed-form solution requires."""


class DegenerateMotion(ProcamError):
    """Board poses do not constrain the intrinsic solution."""


class NonPositiveDefinite(ProcamError):
    """Recovered conic image is not positive definite."""


class BehindCamera(ProcamError):
    """Neither sign choice puts the decomposed board in front of the lens."""


class SingularNormalEquations(ProcamError):
    """Damped normal equations stayed singular up to the damping cap."""


class NonFiniteCost(ProcamError):
    """Least-squares cost became NaN or infinite."""


class InsufficientStations(ProcamError, ValueError):
    """A usable focus profile needs at least two calibration stations."""


class IoError(ProcamError):
    """File could not be read or written."""


class SchemaError(ProcamError):
    """Serialized document violates the documented schema."""


# --- vision -----------------------------------------------------------------

class InsufficientPoints(ProcamError):
    """Pose estimation requires at least four correspondences."""


class NoKnownMarkers(ProcamError):
    """None of the detections belong to the target."""


# --- pipeline / cli ---------------------------------------------------------

class TargetLost(ProcamError):
    """No marker detected in the captured frame."""


class ConfigError(ProcamError):
    """Run configuration is invalid or references missing files."""
