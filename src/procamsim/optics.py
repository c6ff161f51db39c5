"""Ground-truth optical model of the shared-lens device.

The prime lens and the tunable lens are folded into one equivalent thin
lens: at drive power P diopters the in-focus object distance z_f satisfies
``1/z_f = 1/z0 + P_eff/1000`` with distances in mm. The visible channel
carries a chromatic power offset relative to the infrared channel, and the
pinhole intrinsics breathe affinely with power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import (
    CurrentOutOfRange,
    FocusBeyondInfinity,
    NonPositiveDistance,
    PowerOutOfRange,
    check,
)
from .geometry import Intrinsics
from .image import Image

IR = "ir"
VISIBLE = "visible"

DIRECT_CONV_MAX_SIDE = 15
PSF_IDENTITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class EtlModel:
    """Tunable-lens constants; all are simulator ground truth.

    z0              in-focus object distance at 0 D, mm
    current_gain    diopters per mA of drive current
    power_min/max   usable power range, diopters
    blur_gain       blur-circle radius per unit focus error, px*mm
    chroma_offset   extra diopters seen by the visible channel
    breathing_beta  relative fx/fy change per diopter
    breathing_gamma principal-point drift, px per diopter
    """

    z0: float = 170.0
    current_gain: float = 0.04
    power_min: float = -10.0
    power_max: float = 10.0
    blur_gain: float = 2000.0
    chroma_offset: float = 0.5
    breathing_beta: float = -0.05
    breathing_gamma: float = 0.5

    def __post_init__(self):
        check(**vars(self))
        check("positive", z0=self.z0)
        check("non-negative", blur_gain=self.blur_gain)
        if not self.power_min < self.power_max:
            raise ValueError("power range is empty")
        if self.current_gain == 0:
            raise ValueError("current_gain must be nonzero")

    def check_power(self, power: float) -> None:
        if not (self.power_min <= power <= self.power_max):
            raise PowerOutOfRange(
                f"power {power:.4g} D outside [{self.power_min}, {self.power_max}] D"
            )


def _effective_power(etl: EtlModel, power: float, channel: str) -> float:
    if channel == IR:
        return power
    if channel == VISIBLE:
        return power + etl.chroma_offset
    raise ValueError(f"unknown channel {channel!r}")


def focus_distance(etl: EtlModel, power: float, channel: str = IR) -> float:
    """In-focus object distance (mm) at the given power for one channel."""
    etl.check_power(power)
    inv_z = 1.0 / etl.z0 + _effective_power(etl, power, channel) / 1000.0
    if inv_z <= 1e-9:
        raise FocusBeyondInfinity(f"power {power:.4g} D focuses beyond infinity")
    return 1.0 / inv_z


def power_for_focus(etl: EtlModel, z: float) -> tuple[float, bool]:
    """Power that focuses the IR channel at z mm; clamped to range with a flag."""
    if not z > 0:
        raise NonPositiveDistance(f"distance {z:.4g} mm must be positive")
    power = 1000.0 * (1.0 / z - 1.0 / etl.z0)
    clamped = power < etl.power_min or power > etl.power_max
    return min(max(power, etl.power_min), etl.power_max), clamped


def current_for_power(etl: EtlModel, power: float) -> float:
    etl.check_power(power)
    return power / etl.current_gain


def power_for_current(etl: EtlModel, current: float) -> float:
    power = etl.current_gain * current
    if not (etl.power_min <= power <= etl.power_max):
        raise CurrentOutOfRange(
            f"current {current:.4g} mA maps to {power:.4g} D outside range"
        )
    return power


def blur_radius(etl: EtlModel, z_obj: float, power: float, channel: str = IR) -> float:
    """Blur-circle radius in device pixels for an object at z_obj mm."""
    if not z_obj > 0:
        raise NonPositiveDistance(f"object distance {z_obj:.4g} mm must be positive")
    z_f = focus_distance(etl, power, channel)
    return etl.blur_gain * abs(1.0 / z_f - 1.0 / z_obj)


def intrinsics_at_power(etl: EtlModel, base: Intrinsics, power: float) -> Intrinsics:
    """Ground-truth lens breathing: affine drift of the pinhole constants."""
    etl.check_power(power)
    scale = 1.0 + etl.breathing_beta * power
    drift = etl.breathing_gamma * power
    return replace(
        base,
        fx=base.fx * scale,
        fy=base.fy * scale,
        cx=base.cx + drift,
        cy=base.cy + drift,
    )


@dataclass(frozen=True)
class DiskPsf:
    """Normalized antialiased disk kernel; radius < 0.5 px is the identity."""

    radius: float
    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % 2 == 0:
            raise ValueError("kernel must be odd-sized and square")
        if np.any(k < 0) or abs(k.sum() - 1.0) > 1e-9:
            raise ValueError("kernel weights must be non-negative and sum to 1")
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @property
    def is_identity(self) -> bool:
        return self.kernel.shape[0] == 1


def make_disk_psf(radius: float) -> DiskPsf:
    """Antialiased disk via 4x4 per-cell supersampling, normalized to sum 1."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius < PSF_IDENTITY_THRESHOLD:
        return DiskPsf(radius=radius, kernel=np.ones((1, 1)))
    half = math.ceil(radius)
    side = 2 * half + 1
    # Subsample offsets relative to each cell center.
    sub = (np.arange(4) + 0.5) / 4.0 - 0.5
    centers = np.arange(side) - half
    yy = centers[:, None, None, None] + sub[None, None, :, None]
    xx = centers[None, :, None, None] + sub[None, None, None, :]
    inside = (yy * yy + xx * xx) <= radius * radius
    kernel = inside.mean(axis=(2, 3)).astype(float)
    return DiskPsf(radius=radius, kernel=kernel / kernel.sum())


def _convolve_plane_fft(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    half = kernel.shape[0] // 2
    padded = np.pad(plane, half, mode="edge")
    fh = padded.shape[0] + kernel.shape[0] - 1
    fw = padded.shape[1] + kernel.shape[1] - 1
    full = np.fft.irfft2(
        np.fft.rfft2(padded, s=(fh, fw)) * np.fft.rfft2(kernel, s=(fh, fw)),
        s=(fh, fw),
    )
    # Original pixel (y, x) sits at full-convolution index (y + 2*half, x + 2*half).
    return full[2 * half: 2 * half + h, 2 * half: 2 * half + w]


def convolve(img: Image, psf: DiskPsf) -> Image:
    """2-D convolution with replicate-edge handling, applied per channel.

    Direct spatial convolution up to kernel side 15, frequency domain above;
    the two paths agree to 1e-6 per pixel.
    """
    if psf.is_identity:
        return img
    kernel = psf.kernel
    out = np.empty_like(img.data)
    for c in range(img.channels):
        plane = img.data[:, :, c]
        if kernel.shape[0] <= DIRECT_CONV_MAX_SIDE:
            out[:, :, c] = ndimage.convolve(plane, kernel, mode="nearest")
        else:
            out[:, :, c] = _convolve_plane_fft(plane, kernel)
    return Image.from_array(out)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def wiener_precompensate(img: Image, psf: DiskPsf, nsr: float) -> Image:
    """Regularized inverse filter G = H* / (|H|^2 + nsr) in the frequency domain.

    The raster is zero-padded to the next power of two per side and cropped
    back; output is clamped to [0, 1]. An identity kernel needs no
    compensation and passes the image through unchanged.
    """
    if not nsr > 0:
        raise ValueError("nsr must be positive")
    if psf.is_identity:
        return img
    kernel = psf.kernel
    h, w = img.height, img.width
    fh, fw = _next_pow2(h), _next_pow2(w)
    if kernel.shape[0] > fh or kernel.shape[1] > fw:
        raise ValueError("kernel larger than padded raster")
    half = kernel.shape[0] // 2
    # Embed the kernel with its center at (0, 0), wrapping negative taps.
    kpad = np.zeros((fh, fw))
    kpad[:half + 1, :half + 1] = kernel[half:, half:]
    kpad[:half + 1, -half:] = kernel[half:, :half]
    kpad[-half:, :half + 1] = kernel[:half, half:]
    kpad[-half:, -half:] = kernel[:half, :half]
    otf = np.fft.fft2(kpad)
    g = np.conj(otf) / (np.abs(otf) ** 2 + nsr)
    out = np.empty_like(img.data)
    for c in range(img.channels):
        padded = np.zeros((fh, fw))
        padded[:h, :w] = img.data[:, :, c]
        filtered = np.fft.ifft2(np.fft.fft2(padded) * g).real
        out[:, :, c] = filtered[:h, :w]
    return Image.from_array(np.clip(out, 0.0, 1.0))
