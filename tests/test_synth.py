"""Synthetic scene generation: motion, rig, corruption, and sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsync3d.errors import InfeasibleError, InputError, UnsyncError
from unsync3d.geometry import reproject, structure_to_points
from unsync3d.synth import (
    CorruptionSpec,
    MotionSource,
    RigSpec,
    decimate,
    generate,
    load_mocap,
    procedural_motion,
    save_mocap,
    sweep,
)


def capture_samples(scene):
    """Time-sample index captured by each global frame."""
    out = np.empty(len(scene.frames), dtype=int)
    for f, frame in enumerate(scene.frames):
        cam_samples = np.flatnonzero(scene.assignment == frame.video_id)
        out[f] = cam_samples[frame.frame_in_video]
    return out


def test_procedural_motion_shape_determinism_and_step_limit():
    m1 = procedural_motion(4, 50, seed=7, scale=200.0)
    m2 = procedural_motion(4, 50, seed=7, scale=200.0)
    assert m1.points.shape == (50, 4, 3)
    assert np.array_equal(m1.points, m2.points)
    assert m1.hz == 120.0
    steps = np.linalg.norm(np.diff(m1.points, axis=0), axis=2)
    assert steps.max() <= 0.04 * 200.0 + 1e-9
    assert np.abs(m1.points).max() <= 200.0  # stays near the box

    m3 = procedural_motion(4, 50, seed=8, scale=200.0)
    assert not np.array_equal(m1.points, m3.points)

    with pytest.raises(InputError):
        procedural_motion(0, 50)
    with pytest.raises(InputError):
        procedural_motion(4, 1)
    with pytest.raises(InputError):
        procedural_motion(4, 50, seed=-1)
    with pytest.raises(InputError, match="harmonic"):
        procedural_motion(4, 50, harmonics=0)


def test_motion_source_validation():
    with pytest.raises(InputError):
        MotionSource(points=np.zeros((5, 3)), hz=100.0)
    with pytest.raises(InputError):
        MotionSource(points=np.full((5, 2, 3), np.nan), hz=100.0)
    with pytest.raises(InputError):
        MotionSource(points=np.zeros((5, 2, 3)), hz=0.0)
    for hz in (math.nan, math.inf):
        with pytest.raises(InputError, match="sample rate"):
            MotionSource(points=np.zeros((5, 2, 3)), hz=hz)


def test_mocap_round_trip(tmp_path):
    motion = procedural_motion(3, 20, seed=9, hz=60.0)
    path = tmp_path / "clip.txt"
    save_mocap(path, motion)
    back = load_mocap(path)
    assert back.hz == 60.0
    assert np.array_equal(back.points, motion.points)


def test_load_mocap_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n4 5 6\n")
    with pytest.raises(InputError):
        load_mocap(p)  # missing header
    p.write_text("hz 60\n1 2 3 4\n5 6 7 8\n")
    with pytest.raises(InputError):
        load_mocap(p)  # columns not a multiple of 3
    p.write_text("hz 60\n1 2 3\n")
    with pytest.raises(InputError):
        load_mocap(p)  # single sample
    with pytest.raises(InputError):
        load_mocap(tmp_path / "absent.txt")


def test_decimate_keeps_every_step_and_divides_rate():
    motion = procedural_motion(2, 30, seed=10, hz=120.0)
    half = decimate(motion, 2)
    assert half.points.shape == (15, 2, 3)
    assert np.array_equal(half.points, motion.points[::2])
    assert half.hz == 60.0
    with pytest.raises(InputError):
        decimate(motion, 0)


def test_spec_validation():
    with pytest.raises(InputError):
        RigSpec(camera_count=0).validate()
    with pytest.raises(InputError):
        RigSpec(focal=-1.0).validate()
    # cameras on the centroid (or nowhere) have no viewing direction
    for factor in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError):
            RigSpec(distance_factor=factor).validate()
    with pytest.raises(InputError):
        RigSpec(mode="tripod").validate()
    with pytest.raises(InputError):
        RigSpec(jitter_sigma=-1.0).validate()
    with pytest.raises(InputError):
        CorruptionSpec(noise_sigma=-0.5).validate()
    with pytest.raises(InputError):
        CorruptionSpec(miss_rate=1.0).validate()
    with pytest.raises(InputError):
        CorruptionSpec(seed=-1).validate()
    # NaN passes every range test, so each float field checks finiteness
    for name in ("focal", "principal_point", "jitter_sigma", "height_spread"):
        for value in (math.nan, math.inf):
            with pytest.raises(InputError, match=name):
                RigSpec(**{name: value}).validate()
    # camera heights are drawn over a width of 2 x height_spread
    for spread in (-1.0, 1e308):
        with pytest.raises(InputError, match="height_spread"):
            RigSpec(height_spread=spread).validate()
    for sigma in (math.nan, math.inf):
        with pytest.raises(InputError, match="noise_sigma"):
            CorruptionSpec(noise_sigma=sigma).validate()
    # a spread of -0.0 is a spread of 0
    motion = procedural_motion(2, 12, seed=5)
    corr = CorruptionSpec(seed=5)
    flat = generate(motion, RigSpec(height_spread=0.0), corr)
    signed = generate(motion, RigSpec(height_spread=-0.0), corr)
    for a, b in zip(flat.frames, signed.frames):
        assert np.array_equal(a.center, b.center)


def test_generate_covers_every_sample_once_with_exclusion():
    motion = procedural_motion(3, 40, seed=11)
    scene = generate(motion, RigSpec(camera_count=4), CorruptionSpec(seed=11))
    T = 40
    assert scene.assignment.shape == (T,)
    assert len(scene.frames) == T
    # consecutive samples never share a camera
    assert (np.diff(scene.assignment) != 0).all()
    samples = capture_samples(scene)
    assert sorted(samples.tolist()) == list(range(T))
    # frames are grouped by camera and time-ordered inside each group
    ids = np.array([f.video_id for f in scene.frames])
    assert (np.diff(ids) >= 0).all()
    for v in np.unique(ids):
        assert (np.diff(samples[ids == v]) > 0).all()
    # truth_order ranks global frames by capture time
    assert np.array_equal(np.argsort(np.argsort(samples)), scene.truth_order)
    # frame indices match positions
    assert [f.global_index for f in scene.frames] == list(range(T))


def test_generate_truth_matches_motion_and_clean_reprojection():
    motion = procedural_motion(2, 24, seed=12)
    scene = generate(motion, RigSpec(camera_count=3), CorruptionSpec(seed=12))
    samples = capture_samples(scene)
    pts = structure_to_points(scene.truth, 2)
    for f in range(24):
        for p in range(2):
            assert np.allclose(pts[p, f], motion.points[samples[f], p])
    # clean observations are exact reprojections of the truth
    clean = reproject(scene.truth, scene.frames)
    assert np.array_equal(clean.present, scene.clean_observations.present)
    assert np.allclose(
        clean.measures[clean.present],
        scene.clean_observations.measures[scene.clean_observations.present],
    )
    # no corruption: observed equals clean
    assert np.array_equal(
        scene.observations.present, scene.clean_observations.present
    )


def test_generate_noise_uses_common_random_numbers():
    motion = procedural_motion(3, 20, seed=13)
    rig = RigSpec(camera_count=3)
    s0 = generate(motion, rig, CorruptionSpec(seed=13))
    s1 = generate(motion, rig, CorruptionSpec(seed=13, noise_sigma=1.0))
    s2 = generate(motion, rig, CorruptionSpec(seed=13, noise_sigma=2.0))
    pres = s0.observations.present
    d1 = s1.observations.measures[pres] - s0.observations.measures[pres]
    d2 = s2.observations.measures[pres] - s0.observations.measures[pres]
    assert np.allclose(d2, 2.0 * d1)
    assert np.abs(d1).max() > 0.0
    # same seed, different sigma: identical geometry and assignment
    assert np.array_equal(s1.assignment, s2.assignment)
    assert np.allclose(s1.frames[0].center, s2.frames[0].center)


def test_generate_missing_sets_nest_as_rate_grows():
    motion = procedural_motion(4, 30, seed=14)
    rig = RigSpec(camera_count=3)
    low = generate(motion, rig, CorruptionSpec(seed=14, miss_rate=0.1))
    high = generate(motion, rig, CorruptionSpec(seed=14, miss_rate=0.3))
    miss_low = ~low.observations.present & low.clean_observations.present
    miss_high = ~high.observations.present & high.clean_observations.present
    assert miss_low.sum() < miss_high.sum()
    assert (miss_high | ~miss_low).all()  # low-rate misses subset of high
    gone = ~high.observations.present
    assert np.isnan(high.observations.measures[gone]).all()


def test_generate_block_cyclic_assignment():
    motion = procedural_motion(2, 24, seed=15)
    scene = generate(
        motion, RigSpec(camera_count=3), CorruptionSpec(seed=15), block_length=4
    )
    expect = (np.arange(24) // 4) % 3
    assert np.array_equal(scene.assignment, expect)


def test_generate_rig_modes():
    motion = procedural_motion(2, 18, seed=16)
    corr = CorruptionSpec(seed=16)
    static = generate(motion, RigSpec(camera_count=2, mode="static"), corr)
    ids = np.array([f.video_id for f in static.frames])
    for v in (0, 1):
        centers = np.stack([f.center for f in static.frames if f.video_id == v])
        assert np.ptp(centers, axis=0).max() == 0.0

    hand = generate(
        motion, RigSpec(camera_count=2, mode="handheld", jitter_sigma=5.0), corr
    )
    centers = np.stack([f.center for f in hand.frames if f.video_id == 0])
    assert np.ptp(centers, axis=0).max() > 0.0

    rnd = generate(motion, RigSpec(camera_count=2, mode="random"), corr)
    centers = np.stack([f.center for f in rnd.frames])
    assert np.ptp(centers, axis=0).max() > 0.0


def test_generate_single_camera_needs_exclusion_off():
    motion = procedural_motion(2, 12, seed=17)
    with pytest.raises(InfeasibleError):
        generate(motion, RigSpec(camera_count=1), CorruptionSpec(seed=17))
    scene = generate(
        motion,
        RigSpec(camera_count=1),
        CorruptionSpec(seed=17, consecutive_exclusion=False),
    )
    assert (scene.assignment == 0).all()


@pytest.mark.parametrize("name", ["focal", "principal_point", "noise_sigma"])
def test_generate_names_the_field_that_overflows(name):
    # finite, so validation passes, but the pixels overflow
    motion = procedural_motion(3, 12, seed=1)
    rig, corr = RigSpec(), CorruptionSpec(seed=1)
    if name == "noise_sigma":
        corr = CorruptionSpec(seed=1, noise_sigma=1e308)
    else:
        rig = RigSpec(**{name: 1e308})
    with pytest.raises(InputError, match=f"^{name} = 1e\\+308 overflows"):
        generate(motion, rig, corr)


def test_sweep_axes_and_unknown_axis():
    motion = procedural_motion(2, 24, seed=18)
    rig = RigSpec(camera_count=3)
    corr = CorruptionSpec(seed=18)
    noise = sweep(motion, rig, corr, "noise", [0.0, 1.0, 2.0])
    assert [v for v, _ in noise] == [0.0, 1.0, 2.0]
    assert all(len(s.frames) == 24 for _, s in noise)

    miss = sweep(motion, rig, corr, "miss", [0.0, 0.2])
    assert miss[1][1].observations.present.sum() < miss[0][1].observations.present.sum()

    rate = sweep(motion, rig, corr, "rate", [1.0, 0.5])
    assert len(rate[0][1].frames) == 24
    assert len(rate[1][1].frames) == 12
    assert rate[1][1].hz == 60.0

    with pytest.raises(InputError):
        sweep(motion, rig, corr, "zoom", [1.0])


# a plausible range for each float input of a synthetic scene; the fields
# under test draw from WILD_FLOATS instead
FLOAT_INPUTS = {
    "hz": (1.0, 240.0),
    "scale": (1.0, 1000.0),
    "distance_factor": (0.5, 4.0),
    "focal": (100.0, 2000.0),
    "principal_point": (0.0, 1000.0),
    "jitter_sigma": (0.0, 50.0),
    "height_spread": (0.0, 1.0),
    "noise_sigma": (0.0, 5.0),
    "miss_rate": (0.0, 0.9),
}
WILD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generate_returns_a_scene_or_raises_unsync_error(data):
    wild = data.draw(st.sets(st.sampled_from(sorted(FLOAT_INPUTS)), max_size=2))
    x = {
        name: data.draw(WILD_FLOATS if name in wild else st.floats(lo, hi), name)
        for name, (lo, hi) in FLOAT_INPUTS.items()
    }
    try:
        motion = procedural_motion(
            data.draw(st.integers(1, 4), "points"),
            data.draw(st.integers(2, 12), "samples"),
            hz=x["hz"],
            seed=data.draw(st.integers(0, 99), "motion seed"),
            scale=x["scale"],
            harmonics=data.draw(st.sampled_from([1, 2, 3, 0]), "harmonics"),
        )
        rig = RigSpec(
            camera_count=data.draw(st.integers(1, 4), "cameras"),
            distance_factor=x["distance_factor"],
            focal=x["focal"],
            principal_point=x["principal_point"],
            jitter_sigma=x["jitter_sigma"],
            mode=data.draw(st.sampled_from(["static", "handheld", "random"])),
            height_spread=x["height_spread"],
        )
        corruption = CorruptionSpec(
            noise_sigma=x["noise_sigma"],
            miss_rate=x["miss_rate"],
            consecutive_exclusion=data.draw(st.booleans()),
            seed=data.draw(st.integers(0, 99), "seed"),
        )
        block = data.draw(st.none() | st.integers(0, 4), "block_length")
        scene = generate(motion, rig, corruption, block_length=block)
    except UnsyncError:
        return
    assert len(scene.frames) == motion.points.shape[0]
