"""Core projective geometry: intrinsics, poses, homographies and their decomposition, distortion.

Conventions
-----------
Device frame: x right, y down, +z along the optical axis away from the lens.
Pixels: origin at the top-left, pixel centers on integer coordinates.
Distortion acts on normalized coordinates before the affine pixel map:
``x_d = x_n * (1 + k1*r^2 + k2*r^4)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    BeyondDistortionRange,
    DegenerateConfiguration,
    PointBehindCamera,
    check,
)

MIN_DEPTH_MM = 1e-6
NEWTON_BLOCK = 1 << 15  # undistort_many's points per pass: small temporaries, in cache


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in array of shape {shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole constants of the shared capture/projection device.

    fx, fy, cx, cy are in pixels, skew is fixed at zero, k1/k2 are the two
    radial distortion coefficients.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        check("positive", fx=self.fx, fy=self.fy)
        check(cx=self.cx, cy=self.cy)
        if self.skew != 0.0:
            raise ValueError("skew is fixed at zero")
        if not (abs(self.k1) < 1 and abs(self.k2) < 1):
            raise ValueError(f"|k1| and |k2| must be < 1, got {self.k1!r} and {self.k2!r}")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class Pose:
    """Rigid transform taking object-frame points into the device frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _frozen_array(self.rotation, (3, 3)))
        object.__setattr__(self, "translation", _frozen_array(self.translation, (3,)))
        r = self.rotation
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant must be +1")

    @staticmethod
    def from_vector(x) -> "Pose":
        """Pose from the 6-vector (axis-angle radians, translation mm) that the LMs refine."""
        return Pose(rotation_from_axis_angle(x[:3]), x[3:6])

    def vector(self) -> np.ndarray:
        """The 6-vector ``from_vector`` reads."""
        return np.concatenate([axis_angle_from_rotation(self.rotation), self.translation])

    def compose(self, other: "Pose") -> "Pose":
        """Return self ∘ other (apply ``other`` first)."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map (..., 3) object-frame points into the device frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Homography:
    """3x3 projective map, Frobenius-normalized with h33 >= 0."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float).reshape(3, 3)
        norm = np.linalg.norm(m)
        if norm == 0 or not np.all(np.isfinite(m)):
            raise ValueError("homography must be finite and nonzero")
        m = m / norm
        if m[2, 2] < 0:
            m = -m
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def distort_normalized(intr: Intrinsics, pn: np.ndarray) -> np.ndarray:
    """Apply the radial model to (..., 2) normalized points."""
    pn = np.asarray(pn, dtype=float)
    r2 = np.sum(pn * pn, axis=-1, keepdims=True)
    factor = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    return pn * factor


def project(intr: Intrinsics, pose: Pose, x_world) -> np.ndarray:
    """Project a single 3-vector (mm) to pixel coordinates."""
    xc = pose.transform(np.asarray(x_world, dtype=float))
    if xc[2] <= MIN_DEPTH_MM:
        raise PointBehindCamera(f"point depth {xc[2]:.6g} mm <= {MIN_DEPTH_MM} mm")
    pn = xc[:2] / xc[2]
    pd = distort_normalized(intr, pn)
    return np.array([intr.fx * pd[0] + intr.cx, intr.fy * pd[1] + intr.cy])


def project_many(intr: Intrinsics, pose: Pose, points: np.ndarray):
    """Vectorized projection of (n, 3) points.

    Returns (pixels (n, 2), valid mask); points at or behind the lens are
    flagged invalid rather than raising.
    """
    xc = pose.transform(np.asarray(points, dtype=float))
    valid = xc[:, 2] > MIN_DEPTH_MM
    z = np.where(valid, xc[:, 2], 1.0)
    xn = xc[:, 0] / z
    yn = xc[:, 1] / z
    r2 = xn * xn + yn * yn
    factor = 1.0 + intr.k1 * r2 + intr.k2 * r2 * r2
    return (
        np.stack([intr.fx * xn * factor + intr.cx, intr.fy * yn * factor + intr.cy], axis=1),
        valid,
    )


def distortion_fold(intr: Intrinsics) -> tuple[float, float] | None:
    """(undistorted, distorted) radius where r (1 + k1 r^2 + k2 r^4) turns back.

    Its slope is 1 + 3 k1 s + 5 k2 s^2 with s = r^2, so the fold sits at the
    smallest positive root, written in the form that does not cancel; None
    when there is none (or it lies past the largest float) and the model is
    one-to-one. No ray reaches a distorted radius at or past the fold.
    """
    k1, k2 = intr.k1, intr.k2
    disc = 9.0 * k1 * k1 - 20.0 * k2
    if disc < 0.0 or (k1 >= 0.0 and k2 >= 0.0):
        return None
    s = 2.0 / (math.sqrt(disc) - 3.0 * k1) if k1 <= 0.0 else (math.sqrt(disc) + 3.0 * k1) / (-10.0 * k2)
    r = math.sqrt(s)
    return (r, r * (1.0 + k1 * s + k2 * s * s)) if s < math.inf else None


def undistort(intr: Intrinsics, p_distorted) -> np.ndarray:
    """``undistort_many`` for one normalized point, which must lie inside |p| < 1 and the fold."""
    pd = np.asarray(p_distorted, dtype=float)
    q = undistort_many(intr, pd)
    if not np.hypot(pd[0], pd[1]) < 1.0 or np.isnan(q).any():
        raise BeyondDistortionRange(
            "undistort expects |p| < 1 and inside the lens's monotone range")
    return q


def undistort_many(intr: Intrinsics, pd: np.ndarray) -> np.ndarray:
    """Invert the radial model for (..., 2) normalized points, element by element.

    Newton's method solves r (1 + k1 r^2 + k2 r^4) = r_d for the radius from
    r = r_d. Each point stops on its own, once its step falls to the last bit
    of r or stops shrinking, so any part of a grid gets the bytes it has in
    the whole, and a pinhole lens gets its input back. A point at or past the
    fold (``distortion_fold``) has no ray: NaN. On a folding lens a Newton step
    can cross the fold onto the far branch, so a radius outside [0, fold] or
    off the model by more than 1e-12 relative is found again by bisection.
    """
    pd = np.asarray(pd, dtype=float)
    rd = np.sqrt(pd[..., 0] * pd[..., 0] + pd[..., 1] * pd[..., 1])
    fold = distortion_fold(intr)
    reach = fold[1] if fold else math.inf
    flat, r = rd.reshape(-1), np.full(rd.size, np.nan)
    k1, k2 = intr.k1, intr.k2
    for lo in range(0, rd.size, NEWTON_BLOCK):
        todo = reached = lo + np.flatnonzero(flat[lo:lo + NEWTON_BLOCK] < reach)
        ra = target = flat[todo]
        last = math.inf
        while todo.size:
            s = ra * ra
            step = (ra * (1.0 + s * (k1 + k2 * s)) - target) / (1.0 + s * (3.0 * k1 + 5.0 * k2 * s))
            ra = ra - step
            step = np.abs(step)
            go = (step > 2.0 ** -52 * ra) & (step < last)
            if not go.all():
                r[todo] = ra
                todo, ra, target, step = todo[go], ra[go], target[go], step[go]
            last = step
        if fold:
            ra, target = r[reached], flat[reached]
            miss = np.abs(ra * (1.0 + ra * ra * (k1 + k2 * ra * ra)) - target) > 1e-12 * target
            lost = reached[miss | ~((ra >= 0.0) & (ra <= fold[0]))]
            r[lost] = _bisect_radius(k1, k2, fold[0], flat[lost])
    scale = np.divide(r.reshape(rd.shape), rd, out=np.ones_like(rd), where=rd > 0.0)
    return pd * scale[..., None]


def _bisect_radius(k1: float, k2: float, r_fold: float, target: np.ndarray) -> np.ndarray:
    """The radius in [0, r_fold], where the radial model rises, that maps to each ``target``.

    Each point halves its bracket until the midpoint rounds to an end, which
    the next step then keeps: the bits do not depend on the other points.
    """
    lo, hi = np.zeros_like(target), np.full_like(target, r_fold)
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        up = mid * (1.0 + mid * mid * (k1 + k2 * mid * mid)) < target
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


def _normalizing_similarity(points: np.ndarray) -> np.ndarray:
    """Isotropic normalization: centroid to origin, mean radius sqrt(2)."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = np.mean(np.linalg.norm(shifted, axis=1))
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def homography_dlt(src, dst) -> Homography:
    """Estimate the homography mapping src -> dst (n >= 4 pairs) by normalized DLT."""
    src = np.asarray(src, dtype=float).reshape(-1, 2)
    dst = np.asarray(dst, dtype=float).reshape(-1, 2)
    if src.shape != dst.shape or src.shape[0] < 4:
        raise DegenerateConfiguration("need at least 4 point pairs")
    t_src = _normalizing_similarity(src)
    t_dst = _normalizing_similarity(dst)
    sn = src @ t_src[:2, :2].T + t_src[:2, 2]
    dn = dst @ t_dst[:2, :2].T + t_dst[:2, 2]

    n = src.shape[0]
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v

    _, s, vt = np.linalg.svd(a)
    # One near-zero singular value is the solution; a second means the system
    # does not pin down a unique homography.
    if s[-2] / s[0] < 1e-12:
        raise DegenerateConfiguration("design matrix is rank-deficient")
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ hn @ t_src
    return Homography(h)


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """The rotation closest to ``m`` in the Frobenius norm (SVD snap, det +1)."""
    u, _, vt = np.linalg.svd(m)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return rot


def extrinsics_from_homography(intr: Intrinsics, h: Homography) -> Pose:
    """Plane pose from a plane-to-ideal-pixel homography.

    r1 = lam*Kinv*h1, r2 = lam*Kinv*h2, r3 = r1 x r2, t = lam*Kinv*h3; the
    rotation is snapped to the nearest orthonormal matrix and the sign chosen
    so the plane sits in front of the lens.
    """
    kinv = np.linalg.inv(intr.matrix())
    m = h.matrix
    for sign in (1.0, -1.0):
        hm = sign * m
        r1 = kinv @ hm[:, 0]
        lam = 1.0 / np.linalg.norm(r1)
        r1 = lam * r1
        r2 = lam * (kinv @ hm[:, 1])
        t = lam * (kinv @ hm[:, 2])
        if t[2] <= 0:
            continue
        rot = nearest_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=1))
        return Pose(rot, t)
    raise BehindCamera("both sign choices leave the board behind the lens")


def rotation_from_axis_angle(axis_angle) -> np.ndarray:
    """Rodrigues map from a rotation vector (radians) to a 3x3 matrix."""
    w = np.asarray(axis_angle, dtype=float).reshape(3)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3)
    k = w / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def axis_angle_from_rotation(r: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues map for angles in [0, pi]; at pi either axis sign is returned."""
    r = np.asarray(r, dtype=float)
    cos_theta = max(-1.0, min(1.0, (np.trace(r) - 1.0) / 2.0))
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if cos_theta < -0.99:
        # Near pi, acos and sin(theta) lose precision: take the angle from atan2
        # and the axis from the symmetric part, (1 - cos) k k^T = sym(r) - cos I.
        theta = math.atan2(np.linalg.norm(skew) / 2.0, cos_theta)
        m = (r + r.T) / 2.0 - cos_theta * np.eye(3)
        axis = m[:, int(np.argmax(np.diag(m)))]
        axis = axis / np.linalg.norm(axis)
        return theta * (-axis if skew @ axis < 0 else axis)
    theta = math.acos(cos_theta)
    sin_theta = math.sin(theta)
    if sin_theta > 1e-7:
        return (theta / (2.0 * sin_theta)) * skew
    return 0.5 * skew
