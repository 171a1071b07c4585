"""File formats: round trips, byte determinism, malformed input errors."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsync3d import sceneio
from unsync3d.errors import InputError
from unsync3d.evaluate import evaluate
from unsync3d.solver import SolverConfig, solve
from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion


@pytest.fixture(scope="module")
def scene():
    motion = procedural_motion(2, 16, seed=21)
    return generate(
        motion, RigSpec(camera_count=3), CorruptionSpec(seed=21, miss_rate=0.1)
    )


def test_scene_round_trip_and_determinism(tmp_path, scene):
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    sceneio.save_scene(p1, scene.frames, scene.observations)
    sceneio.save_scene(p2, scene.frames, scene.observations)
    assert p1.read_bytes() == p2.read_bytes()
    frames, obs = sceneio.load_scene(p1)
    assert len(frames) == len(scene.frames)
    for a, b in zip(frames, scene.frames):
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.intrinsics, b.intrinsics)
        assert (a.video_id, a.frame_in_video, a.global_index) == (
            b.video_id,
            b.frame_in_video,
            b.global_index,
        )
    assert np.array_equal(obs.present, scene.observations.present)
    assert np.allclose(
        obs.measures[obs.present], scene.observations.measures[obs.present]
    )
    assert np.isnan(obs.measures[~obs.present]).all()


def test_truth_round_trip(tmp_path, scene):
    p = tmp_path / "t.json"
    sceneio.save_truth(
        p, scene.truth, scene.truth_order, scene.hz, assignment=scene.assignment
    )
    X, order, hz, assignment = sceneio.load_truth(p)
    assert np.array_equal(X, scene.truth)
    assert np.array_equal(order, scene.truth_order)
    assert hz == scene.hz
    assert np.array_equal(assignment, scene.assignment)


def test_config_round_trip_with_infinite_lambda3(tmp_path):
    cfg = SolverConfig(lambda1=0.2, lambda2=0.0, lambda3=math.inf)
    p = tmp_path / "c.json"
    sceneio.save_config(p, cfg)
    back = sceneio.load_config(p)
    assert back == cfg

    soft = SolverConfig(lambda3=100.0, rho=2.0, second_stage=False)
    sceneio.save_config(p, soft)
    assert sceneio.load_config(p) == soft

    # a field SolverConfig does not have (removed options included) is
    # rejected, like any unknown key
    for key, value in (
        ("seed", 9),
        ("adapt_rho", True),
        ("admm_abs_tol", 1e-5),
        ("admm_rel_tol", 1e-4),
        ("consensus_tol", 1e-4),
        ("admm_max_iter", 500),
        ("outer_rel_tol", 1e-6),
    ):
        sceneio.save_config(p, soft)
        doc = json.loads(p.read_text())
        doc[key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            sceneio.load_config(p)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([spec.name for spec in fields(SolverConfig)]), JSON_SCALARS
    )
)
def test_load_config_accepts_valid_or_raises_input_error(tmp_path_factory, doc):
    """Any JSON scalar under a known key loads a valid config or InputError."""
    path = tmp_path_factory.getbasetemp() / "property-config.json"
    path.write_text(json.dumps({"format": "unsync3d-config", "version": 1, **doc}))
    try:
        config = sceneio.load_config(path)
    except InputError:
        return
    config.validate()
    # what loads also saves as strict JSON and loads back equal
    sceneio.save_config(path, config)
    assert sceneio.load_config(path) == config


def test_weights_round_trip(tmp_path):
    W = np.random.default_rng(1).uniform(size=(6, 6))
    p = tmp_path / "w.json"
    sceneio.save_weights(p, W)
    assert np.array_equal(sceneio.load_weights(p), W)


def test_result_round_trip(tmp_path, scene):
    state = solve(scene.observations, scene.frames, SolverConfig(outer_max=5))
    p = tmp_path / "r.json"
    sceneio.save_result(p, state, SolverConfig(outer_max=5))
    doc = sceneio.load_result(p)
    assert np.array_equal(doc["structure"], state.structure)
    assert np.array_equal(doc["weights"], state.weights)
    nan_match = np.isnan(doc["depths"]) == np.isnan(state.depths)
    assert nan_match.all()
    ok = ~np.isnan(state.depths)
    assert np.array_equal(doc["depths"][ok], state.depths[ok])
    assert doc["objective_trace"] == state.objective_trace
    assert doc["flags"] == state.flags
    assert doc["scale_factor"] == state.scale_factor
    assert doc["converged"] == state.converged
    assert doc["counters"]["outer_iterations"] == state.outer_iterations


@pytest.mark.parametrize("coords", [2, 4])
def test_truth_and_result_loaders_reject_wrong_coordinate_count(
    tmp_path, scene, coords
):
    # 3 points x 24 frames with 4 coordinates each would reshape to 9 x 32
    points = np.zeros((3, 24, coords)).tolist()
    truth = tmp_path / "t.json"
    sceneio.save_truth(truth, scene.truth, scene.truth_order, scene.hz)
    doc = json.loads(truth.read_text())
    doc["points"] = points
    truth.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="points must be shaped"):
        sceneio.load_truth(truth)

    state = solve(scene.observations, scene.frames, SolverConfig(outer_max=1))
    result = tmp_path / "r.json"
    sceneio.save_result(result, state)
    doc = json.loads(result.read_text())
    doc["structure"] = points
    result.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="points must be shaped"):
        sceneio.load_result(result)


def test_load_weights_rejects_non_finite_entries(tmp_path):
    p = tmp_path / "w.json"
    sceneio.save_weights(p, np.zeros((3, 3)))
    for bad in ("NaN", "Infinity"):
        p.write_text(p.read_text().replace("0.0", bad, 1))
        with pytest.raises(InputError, match="finite"):
            sceneio.load_weights(p)
        sceneio.save_weights(p, np.zeros((3, 3)))


def test_report_round_trip(tmp_path, scene):
    W = np.zeros((16, 16))
    W[0, :] = 1.0
    rep = evaluate(
        scene.truth, scene.truth, W, scene.truth_order, counters={"n": 3}
    )
    p = tmp_path / "rep.json"
    sceneio.save_report(p, rep)
    back = sceneio.load_report(p)
    assert back.accuracy_at == rep.accuracy_at
    assert back.median_error == rep.median_error
    assert back.top2_sum_mean == rep.top2_sum_mean
    assert back.counters == {"n": 3}
    assert np.array_equal(back.per_point_errors, rep.per_point_errors)


@pytest.mark.parametrize("value", [None, "nan", "inf"])
def test_load_report_requires_every_threshold(tmp_path, scene, value):
    W = np.zeros((16, 16))
    W[0, :] = 1.0
    rep = evaluate(scene.truth, scene.truth, W, scene.truth_order, counters={})
    p = tmp_path / "rep.json"
    sceneio.save_report(p, rep)
    doc = json.loads(p.read_text())
    if value is None:
        del doc["accuracy_at"]["100"]
    else:
        doc["accuracy_at"]["100"] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"malformed.*thresholds \[100\]"):
        sceneio.load_report(p)


def test_load_rejects_wrong_format_and_garbage(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format":"unsync3d-scene","version":1}\n')
    with pytest.raises(InputError):
        sceneio.load_truth(p)
    p.write_text("not json at all")
    with pytest.raises(InputError):
        sceneio.load_scene(p)
    with pytest.raises(InputError):
        sceneio.load_scene(tmp_path / "missing.json")
    p.write_text('{"format":"unsync3d-scene","version":1}\n')
    with pytest.raises(InputError):
        sceneio.load_scene(p)  # format right, body missing


def test_json_never_contains_bare_infinity(tmp_path):
    cfg = SolverConfig()  # lambda3 defaults to inf
    p = tmp_path / "c.json"
    sceneio.save_config(p, cfg)
    text = p.read_text()
    assert "Infinity" not in text
    json.loads(text)  # strict parse succeeds


def test_loaders_map_out_of_range_numbers_to_input_error(tmp_path, scene):
    # a 400-digit integer parses as JSON but overflows float() and int64
    huge = 10**400
    p = tmp_path / "scene.json"
    sceneio.save_scene(p, scene.frames, scene.observations)
    doc = json.loads(p.read_text())
    doc["cameras"][0]["center"][0] = huge
    docs = {
        sceneio.load_scene: doc,
        sceneio.load_truth: {
            "format": "unsync3d-truth",
            "points": [[[0.0, 0.0, 0.0]]],
            "time_rank": [0],
            "hz": huge,
        },
        sceneio.load_weights: {"format": "unsync3d-weights", "weights": [[huge]]},
        sceneio.load_result: {
            "format": "unsync3d-result",
            "structure": [[[0.0, 0.0, 0.0]]],
            "depths": [[huge]],
        },
        sceneio.load_report: {
            "format": "unsync3d-report",
            "per_point_errors": [[0.0]],
            "accuracy_at": {"30": 1.0},
            "median_error": huge,
        },
        sceneio.load_analysis: {
            "format": "unsync3d-analysis",
            "per_point": [],
            "mean_condition": huge,
            "max_condition": 1.0,
        },
    }
    for load, body in docs.items():
        p.write_text(json.dumps(body))
        with pytest.raises(InputError, match="malformed"):
            load(p)


def test_load_scene_rejects_camera_index_outside_int64(tmp_path, scene):
    p = tmp_path / "scene.json"
    for key, value in (("video_id", 10**30), ("frame_in_video", -(2**63) - 1)):
        sceneio.save_scene(p, scene.frames, scene.observations)
        doc = json.loads(p.read_text())
        doc["cameras"][3][key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=f"camera 3: {key} is outside"):
            sceneio.load_scene(p)
    doc["cameras"][3]["frame_in_video"] = 2**63 - 1  # the largest int64 loads
    p.write_text(json.dumps(doc))
    frames, _ = sceneio.load_scene(p)
    assert frames[3].frame_in_video == 2**63 - 1
