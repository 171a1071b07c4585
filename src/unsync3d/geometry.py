"""Camera model, viewing rays, and the ray-parameterized structure matrix.

Conventions used throughout the package:

- A scene has P tracked points observed over F frames.  Each frame belongs to
  one video (``video_id``) and has a position within that video
  (``frame_in_video``).  Frames are listed in global-index order, which by
  convention sorts by (video_id, frame_in_video) and therefore carries no
  cross-video timing information.
- The structure matrix X is 3P x F.  Point p of frame f occupies rows
  3p..3p+2 of column f; column f stacks all P points of that frame.  This row
  layout is a wire-format contract, fixed so weight matrices and analysis
  systems index consistently.
- Pixel observations, ray directions and depths use NaN at entries where the
  observation mask is false.

A 3D point at signed depth d along the viewing ray of pixel x is

    X = C_f + d * r,    r = normalize(R_f^T K_f^{-1} [x; 1])

with R_f the world-to-camera rotation, C_f the camera center and K_f the
upper-triangular intrinsics.  The sign of r is kept exactly as produced by
the formula; flipping it would negate depths.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, InputError

__all__ = [
    "CameraFrame",
    "ObservationSet",
    "RayField",
    "validate_frames",
    "frame_centers",
    "frame_video_ids",
    "compute_rays",
    "assemble_structure",
    "reproject",
    "structure_to_points",
    "structure_from_points",
]


@dataclass
class CameraFrame:
    """Pose, intrinsics and indexing for one captured image.

    Parameters
    ----------
    rotation : (3, 3) array
        World-to-camera rotation R_f, orthonormal with determinant +1.
    center : (3,) array
        Camera center C_f in scene units.
    intrinsics : (3, 3) array
        Upper-triangular calibration matrix K_f with positive diagonal.
    video_id : int
        Index of the video this frame belongs to.
    frame_in_video : int
        Position of the frame within its video.
    global_index : int
        Position of the frame in the global frame list.
    """

    rotation: np.ndarray
    center: np.ndarray
    intrinsics: np.ndarray
    video_id: int
    frame_in_video: int
    global_index: int

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        self.intrinsics = np.asarray(self.intrinsics, dtype=float)


@dataclass
class ObservationSet:
    """Per-point, per-frame 2D measurements with a missing-data mask.

    ``measures`` is (P, F, 2) with NaN at absent entries; ``present`` is the
    (P, F) boolean mask.  When ``present`` is omitted it is derived from the
    finite entries of ``measures``.
    """

    measures: np.ndarray
    present: np.ndarray = field(default=None)

    def __post_init__(self):
        self.measures = np.asarray(self.measures, dtype=float)
        if self.measures.ndim != 3 or self.measures.shape[2] != 2:
            raise InputError(
                f"measures must be (P, F, 2), got {self.measures.shape}"
            )
        if self.present is None:
            self.present = np.isfinite(self.measures).all(axis=2)
        else:
            self.present = np.asarray(self.present, dtype=bool)
        if self.present.shape != self.measures.shape[:2]:
            raise InputError(
                f"present mask {self.present.shape} does not match "
                f"measures {self.measures.shape[:2]}"
            )
        if not np.isfinite(self.measures[self.present]).all():
            raise InputError("non-finite measurement marked present")

    @property
    def point_count(self):
        return self.measures.shape[0]

    @property
    def frame_count(self):
        return self.measures.shape[1]


@dataclass
class RayField:
    """Unit viewing-ray directions per observation plus per-frame centers.

    ``directions`` is (P, F, 3) with NaN where the observation mask is false;
    ``centers`` is (F, 3), duplicated from the frames for fast access.
    """

    directions: np.ndarray
    centers: np.ndarray
    present: np.ndarray


def _stacked(arrays, default):
    # (arrays stacked, shape flags, finiteness flags); an array of the wrong
    # shape is stacked as ``default``, which passes every later check
    shaped = np.array([a.shape == default.shape for a in arrays])
    stack = np.stack([a if ok else default for a, ok in zip(arrays, shaped)])
    finite = np.isfinite(stack).reshape(len(arrays), -1).all(axis=1)
    for k in np.flatnonzero(~shaped):
        finite[k] = np.isfinite(arrays[k]).all()
    return stack, shaped, finite


def _first_repeats(keys):
    # True at each key equal to an earlier one in the list
    first = {}
    return np.array([first.setdefault(key, k) != k for k, key in enumerate(keys)])


def validate_frames(frames):
    """Check frame-list invariants, raising InputError on the first failure.

    All frames are checked at once; the error names the first frame in list
    order that fails, and the first check it fails, in this order: finite
    rotation, center and intrinsics; a 3 x 3 rotation, orthonormal, with a
    positive determinant; a 3-vector center; 3 x 3 intrinsics, upper
    triangular, with a positive diagonal; a new global index; a new
    (video_id, frame_in_video).  Then the global indices must cover 0..F-1.
    """
    if len(frames) == 0:
        raise InputError("empty frame list")
    R, r_shaped, r_finite = _stacked([f.rotation for f in frames], np.eye(3))
    _, c_shaped, c_finite = _stacked([f.center for f in frames], np.zeros(3))
    K, k_shaped, k_finite = _stacked([f.intrinsics for f in frames], np.eye(3))
    index = [f.global_index for f in frames]
    pairs = [(f.video_id, f.frame_in_video) for f in frames]
    # non-finite frames fail first, whatever their products give here; a
    # huge entry overflows R^T R to inf or NaN, both rejected
    with np.errstate(all="ignore"):
        err = np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)).max(axis=(1, 2))
        det = np.linalg.det(R)
    checks = [
        (~r_finite, "frame {f}: rotation has a non-finite entry"),
        (~c_finite, "frame {f}: center has a non-finite entry"),
        (~k_finite, "frame {f}: intrinsics has a non-finite entry"),
        (~r_shaped, "frame {f}: rotation must be 3x3"),
        (
            ~(err <= 1e-9),
            "frame {f}: rotation not orthonormal (|R^T R - I| = {err:.2e})",
        ),
        (det < 0, "frame {f}: rotation has negative determinant"),
        (~c_shaped, "frame {f}: center must be a 3-vector"),
        (~k_shaped, "frame {f}: intrinsics must be 3x3"),
        (
            np.abs(K[:, [1, 2, 2], [0, 0, 1]]).max(axis=1) > 0,
            "frame {f}: intrinsics not upper triangular",
        ),
        (
            K.diagonal(axis1=1, axis2=2).min(axis=1) <= 0,
            "frame {f}: intrinsics diagonal must be positive",
        ),
        (_first_repeats(index), "duplicate global index {f}"),
        (_first_repeats(pairs), "duplicate (video_id, frame_in_video) {pair}"),
    ]
    failed = np.array([fails for fails, _ in checks])
    if failed.any():
        # the first failing frame in list order, then its first failing check
        k = int(np.flatnonzero(failed.any(axis=0))[0])
        message = checks[int(np.argmax(failed[:, k]))][1]
        raise InputError(message.format(f=index[k], err=err[k], pair=pairs[k]))
    if set(index) != set(range(len(frames))):
        raise InputError("global indices must cover 0..F-1")


def frame_centers(frames):
    """Stack camera centers into an (F, 3) array ordered by global index."""
    out = np.empty((len(frames), 3))
    for frame in frames:
        out[frame.global_index] = frame.center
    return out


def frame_video_ids(frames):
    """Video id per global frame index, as an int array."""
    out = np.empty(len(frames), dtype=int)
    for frame in frames:
        out[frame.global_index] = frame.video_id
    return out


def compute_rays(frames, obs):
    """Compute unit viewing-ray directions for every present observation.

    Parameters
    ----------
    frames : list of CameraFrame
        One entry per global frame index.
    obs : ObservationSet
        Pixel measurements; absent entries are skipped.

    Returns
    -------
    RayField
        Unit directions r = normalize(R^T K^{-1} [x; 1]) with NaN at absent
        entries, plus the per-frame camera centers.
    """
    validate_frames(frames)
    F = obs.frame_count
    if len(frames) != F:
        raise InputError(
            f"frame list length {len(frames)} does not match observations F={F}"
        )
    P = obs.point_count
    directions = np.full((P, F, 3), np.nan)
    centers = frame_centers(frames)
    for frame in frames:
        f = frame.global_index
        rows = np.flatnonzero(obs.present[:, f])
        if rows.size == 0:
            continue
        K = frame.intrinsics
        # upper triangular, so the determinant is the diagonal product; one
        # that overflows to inf is far from singular
        with np.errstate(over="ignore"):
            det = K[0, 0] * K[1, 1] * K[2, 2]
        if abs(det) < 1e-12:
            raise GeometryError(f"singular intrinsics for frame {f}")
        pix = obs.measures[rows, f]
        homo = np.column_stack([pix, np.ones(rows.size)])
        # finite pixels and intrinsics can still overflow on the way
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            world = homo @ np.linalg.inv(K).T @ frame.rotation
            norms = np.linalg.norm(world, axis=1, keepdims=True)
            rays = world / norms
        lost = np.flatnonzero(~np.isfinite(rays).all(axis=1))
        if lost.size:
            raise GeometryError(
                f"frame {f}: the viewing ray of point {rows[lost[0]]} is not "
                "finite (pixel or intrinsics out of range)"
            )
        directions[rows, f] = rays
    return RayField(directions=directions, centers=centers, present=obs.present.copy())


def assemble_structure(depths, rays):
    """Assemble the 3P x F structure matrix X = C + d * r entrywise.

    Entries where the ray field is absent come back NaN; the caller decides
    how to fill them (the solver treats them as free variables).  A NaN depth
    at a present ray is an input error.
    """
    depths = np.asarray(depths, dtype=float)
    P, F = rays.present.shape
    if depths.shape != (P, F):
        raise InputError(f"depths shape {depths.shape} does not match ({P}, {F})")
    if not np.isfinite(depths[rays.present]).all():
        raise InputError("undefined depth at a present ray")
    points = rays.centers[None, :, :] + depths[:, :, None] * rays.directions
    return structure_from_points(points)


def reproject(structure, frames):
    """Perspective-project a structure matrix back to pixel coordinates.

    Points with non-positive camera-space depth are flagged absent in the
    returned mask rather than projected.  A homogeneous scale with magnitude
    below 1e-12 at positive depth signals degenerate intrinsics and raises.

    Returns
    -------
    ObservationSet
        Pixels (P, F, 2) with NaN at absent entries.
    """
    validate_frames(frames)
    F = len(frames)
    if structure.shape[0] % 3 != 0 or structure.shape[1] != F:
        raise InputError(
            f"structure shape {structure.shape} does not match F={F}"
        )
    P = structure.shape[0] // 3
    points = structure_to_points(structure, P)
    measures = np.full((P, F, 2), np.nan)
    present = np.zeros((P, F), dtype=bool)
    for frame in frames:
        f = frame.global_index
        cam = (points[:, f, :] - frame.center) @ frame.rotation.T
        ok = cam[:, 2] > 1e-12
        homo = cam @ frame.intrinsics.T
        w = homo[:, 2]
        bad = ok & (np.abs(w) < 1e-12)
        if bad.any():
            raise GeometryError(
                f"zero homogeneous scale at frame {f}, point {np.flatnonzero(bad)[0]}"
            )
        measures[ok, f] = homo[ok, :2] / w[ok, None]
        present[:, f] = ok
    return ObservationSet(measures=measures, present=present)


def structure_to_points(structure, point_count):
    """View a 3P x F structure matrix as a (P, F, 3) point array."""
    structure = np.asarray(structure, dtype=float)
    if structure.shape[0] != 3 * point_count:
        raise InputError(
            f"structure has {structure.shape[0]} rows, expected {3 * point_count}"
        )
    return structure.reshape(point_count, 3, -1).transpose(0, 2, 1)


def structure_from_points(points):
    """Stack a (P, F, 3) point array into the 3P x F structure layout."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 3:
        raise InputError(f"points must be shaped (P, F, 3), got {points.shape}")
    P, F, _ = points.shape
    return points.transpose(0, 2, 1).reshape(3 * P, F)
