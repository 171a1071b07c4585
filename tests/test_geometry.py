"""Camera model, ray computation, and structure matrix round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsync3d.errors import GeometryError, InputError
from unsync3d.geometry import (
    CameraFrame,
    ObservationSet,
    assemble_structure,
    compute_rays,
    frame_centers,
    frame_video_ids,
    reproject,
    structure_from_points,
    structure_to_points,
    validate_frames,
)


def project_depth(structure, rays):
    """(X - C) . r per present observation, NaN elsewhere."""
    P = rays.present.shape[0]
    rel = structure_to_points(structure, P) - rays.centers[None, :, :]
    depths = np.einsum("pfa,pfa->pf", rel, rays.directions)
    depths[~rays.present] = np.nan
    return depths


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


def loop_validate_frames(frames):
    """The frame checks one frame at a time, the oracle of validate_frames."""
    if len(frames) == 0:
        raise InputError("empty frame list")
    seen_global = set()
    seen_pair = set()
    for frame in frames:
        f = frame.global_index
        for name in ("rotation", "center", "intrinsics"):
            if not np.isfinite(getattr(frame, name)).all():
                raise InputError(f"frame {f}: {name} has a non-finite entry")
        if frame.rotation.shape != (3, 3):
            raise InputError(f"frame {f}: rotation must be 3x3")
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.abs(frame.rotation.T @ frame.rotation - np.eye(3)).max()
        if not err <= 1e-9:
            raise InputError(
                f"frame {f}: rotation not orthonormal (|R^T R - I| = {err:.2e})"
            )
        if np.linalg.det(frame.rotation) < 0:
            raise InputError(f"frame {f}: rotation has negative determinant")
        if frame.center.shape != (3,):
            raise InputError(f"frame {f}: center must be a 3-vector")
        K = frame.intrinsics
        if K.shape != (3, 3):
            raise InputError(f"frame {f}: intrinsics must be 3x3")
        if np.abs(K[np.tril_indices(3, k=-1)]).max() > 0:
            raise InputError(f"frame {f}: intrinsics not upper triangular")
        if K.diagonal().min() <= 0:
            raise InputError(f"frame {f}: intrinsics diagonal must be positive")
        if f in seen_global:
            raise InputError(f"duplicate global index {f}")
        seen_global.add(f)
        pair = (frame.video_id, frame.frame_in_video)
        if pair in seen_pair:
            raise InputError(f"duplicate (video_id, frame_in_video) {pair}")
        seen_pair.add(pair)
    if seen_global != set(range(len(frames))):
        raise InputError("global indices must cover 0..F-1")


def _set_entry(name, index, value):
    def fault(frame, other):
        array = getattr(frame, name).copy()
        # an earlier fault may have reshaped the array past the entry
        if np.ndim(index) == array.ndim and (np.array(index) < array.shape).all():
            array[index] = value
            setattr(frame, name, array)

    return fault


# each fault breaks one frame (``other`` is another frame of the list)
FRAME_FAULTS = {
    "rotation-nan": _set_entry("rotation", (0, 1), np.nan),
    "center-inf": _set_entry("center", 2, np.inf),
    "intrinsics-nan": _set_entry("intrinsics", (1, 2), np.nan),
    "rotation-shape": lambda fr, other: setattr(fr, "rotation", np.eye(2)),
    "rotation-shape-nan": lambda fr, other: setattr(
        fr, "rotation", np.full((2, 3), np.nan)
    ),
    "rotation-scaled": lambda fr, other: setattr(fr, "rotation", fr.rotation * 1.01),
    "rotation-nudged": _set_entry("rotation", (2, 0), 1e-7),
    "rotation-huge": _set_entry("rotation", (1, 1), 1e200),
    "rotation-reflected": lambda fr, other: setattr(fr, "rotation", -fr.rotation),
    "center-shape": lambda fr, other: setattr(fr, "center", np.zeros(4)),
    "intrinsics-shape": lambda fr, other: setattr(fr, "intrinsics", np.eye(2)),
    "intrinsics-lower": _set_entry("intrinsics", (2, 1), 1e-3),
    "intrinsics-diagonal": _set_entry("intrinsics", (1, 1), 0.0),
    "intrinsics-negative": _set_entry("intrinsics", (0, 0), -800.0),
    "global-index-repeat": lambda fr, other: setattr(
        fr, "global_index", other.global_index
    ),
    "global-index-gap": lambda fr, other: setattr(fr, "global_index", 99),
    "pair-repeat": lambda fr, other: (
        setattr(fr, "video_id", other.video_id),
        setattr(fr, "frame_in_video", other.frame_in_video),
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_frames_raises_the_frame_loops_message(data):
    n = data.draw(st.integers(1, 6), label="frames")
    frames = toy_frames(n)
    order = data.draw(st.permutations(range(n)), label="list order")
    frames = [frames[k] for k in order]
    frame = st.integers(0, n - 1)
    faults = st.tuples(frame, st.sampled_from(sorted(FRAME_FAULTS)), frame)
    for k, name, other in data.draw(st.lists(faults, max_size=4), label="faults"):
        FRAME_FAULTS[name](frames[k], frames[other])
    try:
        loop_validate_frames(frames)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            validate_frames(frames)
        assert str(raised.value) == str(exc)
    else:
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
