"""Camera model, ray computation, and structure matrix round trips."""

import numpy as np
import pytest

from unsync3d.errors import GeometryError, InputError
from unsync3d.geometry import (
    CameraFrame,
    ObservationSet,
    assemble_structure,
    compute_rays,
    frame_centers,
    frame_video_ids,
    project_depth,
    reproject,
    structure_from_points,
    structure_to_points,
    validate_frames,
)


def toy_frames(n=4, radius=5.0):
    """Cameras on a ring looking at the origin."""
    frames = []
    for i in range(n):
        ang = 2.0 * np.pi * i / n
        center = radius * np.array([np.cos(ang), np.sin(ang), 0.1 * i])
        z = -center / np.linalg.norm(center)
        x = np.cross(z, [0.0, 0.0, 1.0])
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        R = np.stack([x, y, z])
        K = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
        frames.append(
            CameraFrame(
                rotation=R,
                center=center,
                intrinsics=K,
                video_id=i,
                frame_in_video=0,
                global_index=i,
            )
        )
    return frames


def test_observation_set_infers_mask_from_nan():
    m = np.ones((2, 3, 2))
    m[1, 2] = np.nan
    obs = ObservationSet(measures=m)
    assert obs.present[0].all()
    assert not obs.present[1, 2]
    assert obs.point_count == 2 and obs.frame_count == 3


def test_observation_set_rejects_nan_marked_present():
    m = np.ones((1, 2, 2))
    m[0, 1] = np.nan
    with pytest.raises(InputError):
        ObservationSet(measures=m, present=np.array([[True, True]]))


def test_observation_set_rejects_bad_shape():
    with pytest.raises(InputError):
        ObservationSet(measures=np.zeros((2, 3)))


def test_validate_frames_accepts_ring():
    validate_frames(toy_frames())


def test_validate_frames_rejects_non_orthonormal_rotation():
    frames = toy_frames(2)
    frames[0].rotation = frames[0].rotation * 1.01
    with pytest.raises(InputError):
        validate_frames(frames)


def test_validate_frames_rejects_bad_intrinsics():
    frames = toy_frames(2)
    frames[1].intrinsics = np.zeros((3, 3))
    with pytest.raises(InputError):
        validate_frames(frames)


def test_frame_accessors():
    frames = toy_frames(3)
    centers = frame_centers(frames)
    assert centers.shape == (3, 3)
    assert np.allclose(centers[1], frames[1].center)
    assert frame_video_ids(frames).tolist() == [0, 1, 2]


def test_rays_are_unit_and_masked():
    frames = toy_frames(4)
    pts = np.array([[0.3, -0.2, 0.5], [1.0, 0.7, -0.4]])
    X = structure_from_points(np.repeat(pts[:, None, :], 4, axis=1))
    obs = reproject(X, frames)
    obs.present[1, 2] = False
    obs.measures[1, 2] = np.nan
    rays = compute_rays(frames, ObservationSet(obs.measures, obs.present))
    norms = np.linalg.norm(rays.directions, axis=2)
    assert np.allclose(norms[rays.present], 1.0)
    assert np.isnan(rays.directions[1, 2]).all()
    assert rays.centers.shape == (4, 3)


def test_reproject_ray_assemble_round_trip():
    # points placed off-center so depths differ per frame
    rng = np.random.default_rng(0)
    frames = toy_frames(5)
    pts = rng.normal(scale=0.8, size=(3, 5, 3))
    X = structure_from_points(pts)
    obs = reproject(X, frames)
    rays = compute_rays(frames, obs)
    depths = project_depth(X, rays)
    back = assemble_structure(depths, rays)
    assert np.allclose(back, X, atol=1e-9)
    assert (depths[rays.present] > 0).all()


def test_assemble_structure_nan_outside_mask():
    frames = toy_frames(3)
    pts = np.zeros((1, 3, 3))
    X = structure_from_points(pts)
    obs = reproject(X, frames)
    obs.present[0, 1] = False
    obs.measures[0, 1] = np.nan
    rays = compute_rays(frames, ObservationSet(obs.measures, obs.present))
    depths = project_depth(X, rays)
    out = assemble_structure(depths, rays)
    assert np.isnan(out[0:3, 1]).all()
    assert np.isfinite(out[0:3, [0, 2]]).all()


def test_structure_point_round_trip():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(4, 6, 3))
    X = structure_from_points(pts)
    assert X.shape == (12, 6)
    # row layout: point p occupies rows 3p..3p+2
    assert np.allclose(X[3:6, 2], pts[1, 2])
    back = structure_to_points(X, 4)
    assert np.allclose(back, pts)


def test_structure_to_points_rejects_row_mismatch():
    with pytest.raises(InputError):
        structure_to_points(np.zeros((10, 4)), 3)


@pytest.mark.parametrize("shape", [(4, 6, 2), (4, 6, 4), (12, 6), (4, 6, 3, 1)])
def test_structure_from_points_rejects_non_point_arrays(shape):
    with pytest.raises(InputError):
        structure_from_points(np.zeros(shape))


def test_reproject_marks_points_behind_camera_absent():
    frames = toy_frames(2, radius=2.0)
    # place the point far behind camera 0 (beyond its center along -z view)
    behind = frames[0].center * 2.0
    X = structure_from_points(behind.reshape(1, 1, 3).repeat(2, axis=1))
    obs = reproject(X, frames)
    assert not obs.present[0, 0]
    assert obs.present[0, 1]


def test_reprojection_matches_pinhole_formula():
    frames = toy_frames(2)
    p = np.array([0.25, -0.1, 0.3])
    X = structure_from_points(p.reshape(1, 1, 3).repeat(2, axis=1))
    obs = reproject(X, frames)
    for f, frame in enumerate(frames):
        h = frame.intrinsics @ (frame.rotation @ (p - frame.center))
        assert np.allclose(obs.measures[0, f], h[:2] / h[2])
