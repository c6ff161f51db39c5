import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from procamsim.errors import (
    BeyondDistortionRange,
    DegenerateConfiguration,
    PointBehindCamera,
)
from procamsim.geometry import (
    Homography,
    Intrinsics,
    Pose,
    axis_angle_from_rotation,
    distort_normalized,
    distortion_fold,
    homography_dlt,
    nearest_rotation,
    project,
    rotation_from_axis_angle,
    undistort,
    undistort_many,
)

IDENTITY = Pose(np.eye(3), np.zeros(3))


def _mapped(m, points) -> np.ndarray:
    """(N, 2) points carried by the 3x3 matrix ``m``: ``m @ (x, y, 1)``, dehomogenized."""
    h = np.column_stack([points, np.ones(len(points))]) @ np.asarray(m, dtype=float).T
    return h[:, :2] / h[:, 2:]


def test_project_on_axis_maps_to_principal_point():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=0.0, k2=0.0)
    px = project(intr, IDENTITY, (0.0, 0.0, 200.0))
    assert np.allclose(px, [256.0, 256.0])


def test_project_on_axis_ignores_distortion():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.2, k2=0.1)
    px = project(intr, IDENTITY, (0.0, 0.0, 50.0))
    assert np.allclose(px, [256.0, 256.0])


def test_project_hand_evaluated_distortion():
    # x_n = 0.05, r^2 = 0.0025, factor = 1 - 0.05*0.0025 + 0.01*0.0025^2
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05, k2=0.01)
    px = project(intr, IDENTITY, (10.0, 0.0, 200.0))
    assert abs(px[0] - 285.996251875) < 1e-9
    assert abs(px[1] - 256.0) < 1e-12


def test_project_behind_camera_raises():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0)
    with pytest.raises(PointBehindCamera):
        project(intr, IDENTITY, (0.0, 0.0, -50.0))


def test_undistort_zero_distortion_is_identity():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0)
    assert np.allclose(undistort(intr, (0.3, -0.2)), [0.3, -0.2])


def test_undistort_round_trip():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05)
    q = np.array([0.1, 0.1])
    p = distort_normalized(intr, q)
    assert np.max(np.abs(undistort(intr, p) - q)) < 1e-9


def test_undistort_origin_fixed_point():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.1, k2=0.05)
    assert np.allclose(undistort(intr, (0.0, 0.0)), [0.0, 0.0])


def test_undistort_rejects_far_points():
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0)
    with pytest.raises(ValueError):
        undistort(intr, (1.2, 0.0))


def test_undistort_far_point_error_is_a_procam_error():
    with pytest.raises(BeyondDistortionRange):
        undistort(Intrinsics(600.0, 600.0, 256.0, 256.0, k1=-0.05), (0.0, 1.0))


# A lens the config accepts whose radial model folds: r (1 - 0.2 r^2) peaks
# at r = sqrt(5/3), distorted radius 0.861.
FOLDING_LENS = Intrinsics(100.0, 100.0, 0.0, 0.0, k1=-0.2)


@pytest.mark.parametrize("k1, k2", [(-0.2, 0.0), (-0.05, -0.0088), (-0.05, -0.2), (0.2, -0.1)])
def test_distortion_fold_is_where_the_radial_model_turns_back(k1, k2):
    r_u, r_d = distortion_fold(Intrinsics(100.0, 100.0, 0.0, 0.0, k1=k1, k2=k2))
    s = r_u * r_u
    assert 1.0 + 3.0 * k1 * s + 5.0 * k2 * s * s == pytest.approx(0.0, abs=1e-12)
    assert r_d == pytest.approx(r_u * (1.0 + k1 * s + k2 * s * s), rel=1e-15)
    assert all(1.0 + 3.0 * k1 * t + 5.0 * k2 * t * t > 0.0 for t in np.linspace(0.0, s, 100)[:-1])


@pytest.mark.parametrize("k1, k2", [(0.0, 0.0), (-0.05, 0.01), (-0.05, 0.027), (0.1, 0.0),
                                    (0.0, 2.2e-311), (0.0, 5e-324)])
def test_a_one_to_one_lens_has_no_fold(k1, k2):
    assert distortion_fold(Intrinsics(100.0, 100.0, 0.0, 0.0, k1=k1, k2=k2)) is None


def test_undistort_past_the_fold_is_beyond_the_distortion_range():
    assert distortion_fold(FOLDING_LENS)[1] == pytest.approx(0.8607, abs=1e-4)
    with pytest.raises(BeyondDistortionRange):
        undistort(FOLDING_LENS, (0.9, 0.0))


def test_undistort_near_the_fold_round_trips():
    """The slope of r (1 - 0.2 r^2) is 0.02 here, where a fixed-point loop stalls."""
    q = undistort(FOLDING_LENS, (0.86, 0.0))
    assert np.max(np.abs(distort_normalized(FOLDING_LENS, q) - [0.86, 0.0])) <= 1e-12


def test_undistort_many_is_nan_at_and_past_the_fold():
    r_fold = distortion_fold(FOLDING_LENS)[1]
    pd = np.array([[r_fold, 0.0], [0.0, -r_fold], [0.9, 0.0], [0.7, 0.7],
                   [np.nextafter(r_fold, 0.0), 0.0]])
    q = undistort_many(FOLDING_LENS, pd)
    assert np.isnan(q[:4]).all()
    assert np.isfinite(q[4]).all()


@pytest.mark.parametrize("k1", [-0.2, -0.05, 0.0, 0.1, 0.2])
@pytest.mark.parametrize("k2", [-0.05, 0.0, 0.05])
def test_distort_undistort_identity_property(k1, k2):
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=k1, k2=k2)
    for p in [(0.5, 0.0), (0.3, -0.4), (-0.2, 0.2), (0.05, 0.05)]:
        p = np.asarray(p)
        back = distort_normalized(intr, undistort(intr, p))
        assert np.max(np.abs(back - p)) < 1e-9
        fwd = undistort(intr, distort_normalized(intr, p))
        assert np.max(np.abs(distort_normalized(intr, fwd) - distort_normalized(intr, p))) < 1e-9


# Radial coefficients around those the calibrated profiles hold
# (k1 -0.052..-0.048, k2 -0.009..0.027).
_k1 = st.floats(-0.06, 0.0)
_k2 = st.floats(-0.01, 0.03)


@settings(max_examples=200, deadline=None)
@given(k1=_k1, k2=_k2, data=st.data())
def test_undistort_many_is_element_wise(k1, k2, data):
    """Any slice or masked subset of a grid undistorts to the same bits."""
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=k1, k2=k2)
    h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    grid = data.draw(hnp.arrays(float, (h, w, 2), elements=st.floats(-1.2, 1.2)))
    full = undistort_many(intr, grid)
    r0, c0 = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    r1, c1 = data.draw(st.integers(r0 + 1, h)), data.draw(st.integers(c0 + 1, w))
    step = data.draw(st.integers(1, 3))
    part = (slice(r0, r1, step), slice(c0, c1, step))
    assert undistort_many(intr, grid[part]).tobytes() == full[part].tobytes()
    mask = data.draw(hnp.arrays(bool, (h, w)))
    assert undistort_many(intr, grid[mask]).tobytes() == full[mask].tobytes()


@settings(max_examples=300, deadline=None)
@given(k1=_k1, k2=_k2, r=st.floats(0.0, 0.9), theta=st.floats(-math.pi, math.pi))
@example(k1=-0.06, k2=-0.01, r=0.9, theta=math.pi / 4)
def test_undistort_many_inverts_the_radial_model(k1, k2, r, theta):
    """Round trip within 1e-12 inside radius 0.9.

    For these coefficients the radius stays well inside the monotone range
    (it ends beyond |r_d| = 1.2), where Newton's method converges quadratically.
    """
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=k1, k2=k2)
    p = np.array([r * math.cos(theta), r * math.sin(theta)])
    back = distort_normalized(intr, undistort_many(intr, p))
    assert np.max(np.abs(back - p)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(lens=st.one_of(st.tuples(st.floats(-0.3, 0.0, exclude_max=True), st.just(0.0)),
                      st.tuples(_k1, _k2)),
       frac=st.floats(0.0, 1.0 - 1e-6), theta=st.floats(-math.pi, math.pi))
@example(lens=(-0.2, 0.0), frac=1.0 - 1e-6, theta=0.0)
@example(lens=(-0.3, 0.0), frac=1.0 - 1e-6, theta=math.pi / 4)
def test_undistort_many_round_trips_up_to_the_fold(lens, frac, theta):
    """Within 1e-12 up to 1e-6 short of the fold, or of radius 1.5 for a lens that has none.

    A tiny k1 folds far out, so past radius 1 the bound is relative.
    """
    intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=lens[0], k2=lens[1])
    fold = distortion_fold(intr)
    r = frac * (fold[1] if fold else 1.5)
    p = np.array([r * math.cos(theta), r * math.sin(theta)])
    back = distort_normalized(intr, undistort_many(intr, p))
    assert np.max(np.abs(back - p)) <= 1e-12 * max(1.0, r)


def test_undistort_many_round_trips_on_mixed_sign_folding_lenses():
    """A Newton step can cross the fold of a lens like k1 = 0.817, k2 = -0.586 onto the
    far branch; every point up to 1e-15 short of the fold still round-trips within 1e-12."""
    rng = np.random.default_rng(3)
    for k1, k2 in [(0.817, -0.586), *rng.uniform(-0.99, 0.99, (60, 2))]:
        intr = Intrinsics(600.0, 600.0, 256.0, 256.0, k1=k1, k2=k2)
        fold = distortion_fold(intr)
        if fold is None:
            continue
        r = np.linspace(0.0, 1.0 - 1e-15, 2000) * fold[1]
        theta = rng.uniform(-math.pi, math.pi, r.size)
        p = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        back = distort_normalized(intr, undistort_many(intr, p))
        assert np.max(np.abs(back - p)) <= 1e-12, (k1, k2)


@settings(max_examples=100, deadline=None)
@given(grid=hnp.arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(2)),
                       elements=st.floats(-2.0, 2.0)))
def test_undistort_many_returns_its_input_for_a_pinhole_lens(grid):
    out = undistort_many(Intrinsics(600.0, 600.0, 256.0, 256.0), grid)
    assert out.tobytes() == grid.tobytes()


def test_homography_identity_on_unit_square():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    h = homography_dlt(pts, pts)
    m = h.matrix / h.matrix[2, 2]
    assert np.max(np.abs(m - np.eye(3))) < 1e-9


def test_homography_recovers_known_map():
    rng = np.random.default_rng(42)
    truth = np.array([[1.2, -0.1, 3.0], [0.05, 0.9, -2.0], [1e-4, -2e-4, 1.0]])
    src = rng.uniform(-50, 50, (8, 2))
    dst = _mapped(truth, src)
    h = homography_dlt(src, dst)
    ours = h.matrix / np.linalg.norm(h.matrix)
    theirs = truth / np.linalg.norm(truth)
    if np.sign(ours[2, 2]) != np.sign(theirs[2, 2]):
        theirs = -theirs
    assert np.max(np.abs(ours - theirs)) < 1e-9


def test_homography_transfer_error_is_tiny_on_exact_inputs():
    rng = np.random.default_rng(3)
    truth = np.array([[0.9, 0.1, -5.0], [0.0, 1.1, 2.0], [2e-4, 0.0, 1.0]])
    src = rng.uniform(-30, 30, (12, 2))
    dst = _mapped(truth, src)
    h = homography_dlt(src, dst)
    assert np.max(np.linalg.norm(_mapped(h.matrix, src) - dst, axis=1)) < 1e-9


def test_homography_invariant_to_similarity_pre_transform():
    # Applying a similarity S to the source points must change the estimate
    # by exactly the induced factor: H' = H @ S^-1.
    rng = np.random.default_rng(8)
    truth = np.array([[1.1, 0.0, 2.0], [0.1, 0.9, -1.0], [1e-4, 0.0, 1.0]])
    src = rng.uniform(-40, 40, (10, 2))
    dst = _mapped(truth, src)
    s = 2.5
    sim = np.array([[s * math.cos(0.3), -s * math.sin(0.3), 4.0],
                    [s * math.sin(0.3), s * math.cos(0.3), -7.0],
                    [0.0, 0.0, 1.0]])
    src_t = src @ sim[:2, :2].T + sim[:2, 2]
    h_direct = homography_dlt(src, dst)
    h_transformed = homography_dlt(src_t, dst)
    expected = Homography(h_direct.matrix @ np.linalg.inv(sim))
    diff = h_transformed.matrix - expected.matrix
    if np.max(np.abs(h_transformed.matrix + expected.matrix)) < np.max(np.abs(diff)):
        diff = h_transformed.matrix + expected.matrix
    assert np.max(np.abs(diff)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    linear=hnp.arrays(float, (2, 2), elements=st.floats(-0.3, 0.3)),
    shift=hnp.arrays(float, 2, elements=st.floats(-20.0, 20.0)),
    perspective=hnp.arrays(float, 2, elements=st.floats(-1e-3, 1e-3)),
    count=st.integers(8, 20),
    jitter=hnp.arrays(float, (20, 2), elements=st.floats(-4.0, 4.0)),
)
def test_homography_dlt_round_trips_a_well_conditioned_homography(
        linear, shift, perspective, count, jitter):
    """8-20 points of a jittered 20 mm grid, mapped by I + (linear, shift, perspective):
    the DLT gives that homography back, up to scale and sign."""
    truth = np.eye(3)
    truth[:2, :2] += linear
    truth[:2, 2] = shift
    truth[2, :2] = perspective
    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
    src = (20.0 * (grid - [2.0, 1.5]) + jitter)[:count]
    h = homography_dlt(src, _mapped(truth, src))
    assert np.max(np.abs(h.matrix - Homography(truth).matrix)) < 1e-9


def test_homography_collinear_points_degenerate():
    src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    dst = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    with pytest.raises(DegenerateConfiguration):
        homography_dlt(src, dst)


def test_homography_too_few_pairs():
    with pytest.raises(DegenerateConfiguration):
        homography_dlt([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)])


def test_homography_normalization_invariants():
    h = Homography(np.array([[-2, 0, 0], [0, -2, 0], [0, 0, -1]], dtype=float))
    assert abs(np.linalg.norm(h.matrix) - 1.0) < 1e-12
    assert h.matrix[2, 2] >= 0


def test_rotation_zero_vector_is_identity():
    assert np.allclose(rotation_from_axis_angle((0.0, 0.0, 0.0)), np.eye(3))


def test_rotation_quarter_turn_about_z():
    r = rotation_from_axis_angle((0.0, 0.0, math.pi / 2))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_rotation_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-6, math.pi - 1e-6)
        w = axis * angle
        back = axis_angle_from_rotation(rotation_from_axis_angle(w))
        assert np.max(np.abs(back - w)) < 1e-10


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(axis=st.tuples(_unit, _unit, _unit).filter(lambda a: np.linalg.norm(a) > 0.1),
       angle=st.floats(0.0, math.pi, exclude_max=True),
       t=st.tuples(*[st.floats(-500.0, 500.0)] * 3))
@example(axis=(0.3, -0.5, 0.8), angle=math.pi - 1e-6, t=(0.0, 0.0, 100.0))
@example(axis=(0.3, -0.5, 0.8), angle=math.pi - 1e-9, t=(0.0, 0.0, 100.0))
@example(axis=(1.0, 0.0, 0.0), angle=math.nextafter(math.pi, 0.0), t=(0.0, 0.0, 0.0))
@example(axis=(0.0, 0.0, 1.0), angle=1e-9, t=(1.0, 2.0, 3.0))
def test_pose_vector_round_trip(axis, angle, t):
    """Across [0, pi), the near-pi branch of axis_angle_from_rotation included."""
    pose = Pose(rotation_from_axis_angle(angle * np.asarray(axis) / np.linalg.norm(axis)), t)
    back = Pose.from_vector(pose.vector())
    assert np.max(np.abs(back.rotation - pose.rotation)) < 1e-12
    assert np.array_equal(back.translation, pose.translation)


def test_nearest_rotation_snaps_to_a_proper_rotation():
    rng = np.random.default_rng(3)
    r = rotation_from_axis_angle(rng.normal(size=3))
    assert np.allclose(nearest_rotation(r + 1e-3 * rng.normal(size=(3, 3))), r, atol=1e-2)
    reflected = nearest_rotation(r @ np.diag([1.0, 1.0, -1.0]))
    assert abs(np.linalg.det(reflected) - 1.0) < 1e-12
    assert np.allclose(reflected @ reflected.T, np.eye(3), atol=1e-12)


def test_pose_composition_associative():
    rng = np.random.default_rng(9)
    poses = [
        Pose(rotation_from_axis_angle(rng.normal(size=3)), rng.normal(size=3) * 50)
        for _ in range(3)
    ]
    a, b, c = poses
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert np.max(np.abs(left.rotation - right.rotation)) < 1e-12
    assert np.max(np.abs(left.translation - right.translation)) < 1e-9


def test_pose_validation_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
