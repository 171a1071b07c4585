"""Synthetic benchmark scenes: smooth motion, camera rigs, corruption.

A scene starts from a motion source (procedural sum-of-sinusoids
trajectories or a loaded mocap file, millimeter units), places a ring of
virtual cameras around it, assigns every time sample to exactly one camera,
projects, and optionally corrupts the 2D measures with Gaussian pixel noise
and a uniform missing-data mask.

Randomness is split into independent streams (rig, assignment, noise,
missing) derived from one seed, so sweeps over noise level or miss rate
share the identical geometry and assignment, noise levels scale one fixed
unit-variance draw, and miss masks nest as the rate grows.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleError, InputError
from .geometry import CameraFrame, ObservationSet, reproject, structure_from_points

__all__ = [
    "MotionSource",
    "RigSpec",
    "CorruptionSpec",
    "SyntheticScene",
    "procedural_motion",
    "load_mocap",
    "save_mocap",
    "decimate",
    "generate",
    "sweep",
]


@dataclass
class MotionSource:
    """Ground-truth motion: (T, P, 3) positions per time sample, plus rate."""

    points: np.ndarray
    hz: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise InputError(
                f"motion points must be (T, P, 3), got {self.points.shape}"
            )
        if not np.isfinite(self.points).all():
            raise InputError("motion contains non-finite coordinates")
        if not (math.isfinite(self.hz) and self.hz > 0):
            raise InputError(f"sample rate must be finite and positive, got {self.hz}")


@dataclass
class RigSpec:
    """Virtual camera rig around the motion centroid.

    Cameras sit on a ring of radius distance_factor x motion extent, look at
    the centroid, and share square-pixel intrinsics.  ``handheld`` mode adds
    Gaussian center jitter per frame (jitter_sigma, scene units);
    ``random`` re-samples the ring position and jitters the look target
    every frame.
    """

    camera_count: int = 4
    distance_factor: float = 2.0
    focal: float = 1000.0
    principal_point: float = 500.0
    jitter_sigma: float = 0.0
    mode: str = "static"
    height_spread: float = 0.1

    def validate(self):
        if self.camera_count < 1:
            raise InputError("camera_count must be at least 1")
        if not (math.isfinite(self.distance_factor) and self.distance_factor > 0):
            raise InputError("distance_factor must be finite and positive")
        if not (math.isfinite(self.focal) and self.focal > 0):
            raise InputError("focal must be finite and positive")
        if not math.isfinite(self.principal_point):
            raise InputError("principal_point must be finite")
        if self.mode not in ("static", "handheld", "random"):
            raise InputError(f"unknown rig mode {self.mode!r}")
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise InputError("jitter_sigma must be finite and nonnegative")
        # camera heights are drawn from [-spread, spread], a width of 2 spread
        if not (self.height_spread >= 0 and math.isfinite(2.0 * self.height_spread)):
            raise InputError(
                "height_spread must be nonnegative with 2 x height_spread finite"
            )


@dataclass
class CorruptionSpec:
    """Measurement corruption: pixel noise, missing data, assignment rule."""

    noise_sigma: float = 0.0
    miss_rate: float = 0.0
    consecutive_exclusion: bool = True
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InputError("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.miss_rate < 1.0:
            raise InputError(f"miss_rate must be in [0, 1), got {self.miss_rate}")
        if isinstance(self.seed, numbers.Integral) and self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SyntheticScene:
    """Generated scene plus everything needed for evaluation."""

    frames: list
    observations: ObservationSet
    clean_observations: ObservationSet
    truth: np.ndarray
    truth_order: np.ndarray
    assignment: np.ndarray
    hz: float


def procedural_motion(
    point_count,
    sample_count,
    hz=120.0,
    seed=0,
    scale=500.0,
    harmonics=3,
):
    """Smooth sum-of-sinusoids point trajectories.

    Each point oscillates around a random base position inside a box of
    side ``scale`` with ``harmonics`` random low-frequency components per
    axis.  The dynamic part is rescaled, if needed, so no point moves more
    than 4% of scale between consecutive samples, which keeps consecutive
    shapes the best mutual representers.
    """
    if point_count < 1 or sample_count < 2:
        raise InputError("need at least 1 point and 2 samples")
    if harmonics < 1:
        raise InputError(f"need at least 1 harmonic, got {harmonics}")
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if not (math.isfinite(hz) and hz > 0):
        raise InputError(f"hz must be finite and positive, got {hz}")
    if not (math.isfinite(scale) and scale >= 0):
        raise InputError(f"scale must be finite and nonnegative, got {scale}")
    step_limit = 0.04 * scale
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.5, 0.5, (point_count, 3)) * scale
    freqs = rng.uniform(0.5, 2.5, (point_count, 3, harmonics))
    phases = rng.uniform(0.0, 2.0 * math.pi, (point_count, 3, harmonics))
    amps = rng.uniform(0.3, 1.0, (point_count, 3, harmonics)) * (
        0.25 * scale / harmonics
    )
    # a tiny hz overflows the sample times, a huge scale the squared steps
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(sample_count) / hz
        # (T, P, 3): sum over harmonics of amp * sin(2 pi f t + phase)
        angles = (
            2.0 * math.pi * freqs[None, :, :, :] * t[:, None, None, None]
            + phases[None, :, :, :]
        )
        osc = (amps[None, :, :, :] * np.sin(angles)).sum(axis=3)
        steps = np.linalg.norm(np.diff(osc, axis=0), axis=2)
    if not np.isfinite(steps).all():
        raise InputError(f"scale {scale} at hz {hz} overflows the motion")
    max_step = float(steps.max()) if steps.size else 0.0
    if max_step > step_limit > 0:
        osc *= step_limit / max_step
    return MotionSource(points=base[None, :, :] + osc, hz=hz)


def load_mocap(path):
    """Read a mocap text file: an ``hz <rate>`` header line, then one line
    of P*3 coordinates (x y z per point) per time sample.  Lines starting
    with ``#`` are comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [
                ln.strip()
                for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")
            ]
    except OSError as exc:
        raise InputError(f"cannot read mocap file {path}: {exc}") from exc
    if not lines or not lines[0].lower().startswith("hz"):
        raise InputError(f"mocap file {path} missing 'hz <rate>' header")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"malformed mocap header {lines[0]!r}")
    try:
        hz = float(head[1])
        rows = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    except ValueError as exc:
        raise InputError(f"malformed mocap data in {path}: {exc}") from exc
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[1] % 3 != 0:
        raise InputError(
            f"mocap data must be T >= 2 rows of 3P columns, got {rows.shape}"
        )
    return MotionSource(points=rows.reshape(rows.shape[0], -1, 3), hz=hz)


def save_mocap(path, motion):
    """Write a MotionSource in the text format load_mocap reads."""
    T, P, _ = motion.points.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"hz {motion.hz!r}\n")
        flat = motion.points.reshape(T, 3 * P)
        for row in flat:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def decimate(motion, step):
    """Keep every ``step``-th sample, dividing the rate accordingly."""
    step = int(step)
    if step < 1:
        raise InputError(f"decimation step must be >= 1, got {step}")
    return MotionSource(points=motion.points[::step], hz=motion.hz / step)


def _look_at(center, target, up=(0.0, 0.0, 1.0)):
    z = np.asarray(target, dtype=float) - center
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross((0.0, 1.0, 0.0), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def _assign_cameras(sample_count, camera_count, exclusion, block_length, rng):
    if block_length is not None:
        if block_length < 1:
            raise InputError("block_length must be >= 1")
        return (np.arange(sample_count) // block_length) % camera_count
    if exclusion:
        if camera_count < 2:
            raise InfeasibleError(
                "consecutive-capture exclusion is impossible with one camera"
            )
        out = np.empty(sample_count, dtype=int)
        out[0] = rng.integers(camera_count)
        for t in range(1, sample_count):
            step = rng.integers(1, camera_count)
            out[t] = (out[t - 1] + step) % camera_count
        return out
    return rng.integers(camera_count, size=sample_count)


def _clean_projection(truth, frames, rig):
    # reproject; when the pixels overflow and leaving out one intrinsic
    # (a focal length of 1 or a principal point of 0) keeps them finite,
    # the error names that intrinsic
    try:
        return reproject(truth, frames)
    except InputError as exc:
        error = exc
    f, c = rig.focal, rig.principal_point
    for name, K in (
        ("focal", [[1.0, 0.0, c], [0.0, 1.0, c], [0.0, 0.0, 1.0]]),
        ("principal_point", [[f, 0.0, 0.0], [0.0, f, 0.0], [0.0, 0.0, 1.0]]),
    ):
        try:
            reproject(truth, [replace(fr, intrinsics=np.array(K)) for fr in frames])
        except InputError:
            continue
        raise InputError(
            f"{name} = {getattr(rig, name)!r} overflows the projected pixels"
        ) from error
    raise error


# huge finite rig or motion values overflow the camera geometry or the pixels
# to inf or NaN, which validate_frames and ObservationSet reject
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def generate(motion, rig, corruption, block_length=None):
    """Build one synthetic scene.

    Every time sample is captured by exactly one camera; with consecutive
    exclusion adjacent samples never share a camera.  ``block_length``
    overrides the random assignment with a deterministic block-cyclic one
    (camera changes every ``block_length`` samples), used for conditioning
    studies.

    Returns a SyntheticScene whose frames are ordered by (camera, time), so
    global frame indices leak no cross-video timing; ``truth_order`` maps a
    global index to its capture-time rank.
    """
    rig.validate()
    corruption.validate()
    T, P, _ = motion.points.shape
    if T < 3:
        raise InputError(f"need at least 3 time samples, got {T}")

    streams = np.random.SeedSequence(corruption.seed).spawn(4)
    rig_rng = np.random.default_rng(streams[0])
    assign_rng = np.random.default_rng(streams[1])
    noise_rng = np.random.default_rng(streams[2])
    miss_rng = np.random.default_rng(streams[3])

    pts = motion.points
    centroid = pts.reshape(-1, 3).mean(axis=0)
    extent = float(np.ptp(pts.reshape(-1, 3), axis=0).max())
    if extent <= 0:
        extent = 1.0
    radius = rig.distance_factor * extent

    N = rig.camera_count
    angle0 = rig_rng.uniform(0.0, 2.0 * math.pi)
    angles = angle0 + 2.0 * math.pi * np.arange(N) / N
    # validate passes -0.0, which uniform refuses as a high below low = 0.0
    spread = abs(rig.height_spread)
    heights = rig_rng.uniform(-spread, spread, N) * radius
    bases = centroid + np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), heights], axis=1
    )
    K = np.array(
        [
            [rig.focal, 0.0, rig.principal_point],
            [0.0, rig.focal, rig.principal_point],
            [0.0, 0.0, 1.0],
        ]
    )

    assignment = _assign_cameras(
        T, N, corruption.consecutive_exclusion, block_length, assign_rng
    )

    frames = []
    frame_times = []
    g = 0
    for cam in range(N):
        times = np.flatnonzero(assignment == cam)
        for m, t in enumerate(times):
            if rig.mode == "static":
                center = bases[cam]
                target = centroid
            elif rig.mode == "handheld":
                center = bases[cam] + rig.jitter_sigma * rig_rng.standard_normal(3)
                target = centroid
            else:
                ang = rig_rng.uniform(0.0, 2.0 * math.pi)
                h = rig_rng.uniform(-spread, spread) * radius
                center = centroid + np.array(
                    [radius * math.cos(ang), radius * math.sin(ang), h]
                )
                target = centroid + 0.02 * extent * rig_rng.standard_normal(3)
            frames.append(
                CameraFrame(
                    rotation=_look_at(center, target),
                    center=center,
                    intrinsics=K.copy(),
                    video_id=cam,
                    frame_in_video=m,
                    global_index=g,
                )
            )
            frame_times.append(int(t))
            g += 1
    frame_times = np.array(frame_times, dtype=int)
    truth_order = np.argsort(np.argsort(frame_times))

    truth = structure_from_points(pts[frame_times].transpose(1, 0, 2))
    clean = _clean_projection(truth, frames, rig)

    # common-random-numbers corruption: the unit noise draw and the miss
    # uniforms are fixed by the seed, independent of sigma and rate
    unit = noise_rng.standard_normal(clean.measures.shape)
    miss_u = miss_rng.uniform(size=clean.present.shape)
    measures = clean.measures + corruption.noise_sigma * unit
    if not np.isfinite(measures[clean.present]).all():
        raise InputError(
            f"noise_sigma = {corruption.noise_sigma!r} overflows the measurements"
        )
    present = clean.present & ~(miss_u < corruption.miss_rate)
    measures = np.where(present[:, :, None], measures, np.nan)
    observations = ObservationSet(measures=measures, present=present)

    return SyntheticScene(
        frames=frames,
        observations=observations,
        clean_observations=clean,
        truth=truth,
        truth_order=truth_order,
        assignment=assignment,
        hz=motion.hz,
    )


def sweep(motion, rig, corruption, axis, values, block_length=None):
    """Generate one scene per value along a single sweep axis.

    axis ``noise`` varies noise_sigma, ``miss`` varies miss_rate, ``rate``
    decimates the motion by 1/value (value 1 keeps every sample, 0.5 every
    second one).  All scenes share the seed, hence geometry and assignment
    where the frame count allows it.

    Returns a list of (value, SyntheticScene).
    """
    out = []
    for value in values:
        if axis == "noise":
            scene = generate(
                motion, rig, replace(corruption, noise_sigma=value), block_length
            )
        elif axis == "miss":
            scene = generate(
                motion, rig, replace(corruption, miss_rate=value), block_length
            )
        elif axis == "rate":
            step = int(round(1.0 / value))
            scene = generate(decimate(motion, step), rig, corruption, block_length)
        else:
            raise InputError(f"unknown sweep axis {axis!r}")
        out.append((value, scene))
    return out
