"""Command-line interface: subcommands, files, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unsync3d import sceneio
from unsync3d.cli import _build_parser, _config_from_args, main
from unsync3d.solver import SolverConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_small(tmp_path, capsys, seed=3, extra=()):
    scene = tmp_path / "scene.json"
    truth = tmp_path / "truth.json"
    code, out, err = run(
        capsys,
        "simulate",
        "--seed",
        str(seed),
        "--points",
        "3",
        "--samples",
        "24",
        "--cameras",
        "3",
        "--scene-out",
        str(scene),
        "--truth-out",
        str(truth),
        *extra,
    )
    assert code == 0, err
    return scene, truth


def test_simulate_writes_scene_and_truth(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys)
    assert scene.exists() and truth.exists()
    frames, obs = sceneio.load_scene(scene)
    assert len(frames) == 24
    assert obs.present.shape == (3, 24)
    X, order, hz, assignment = sceneio.load_truth(truth)
    assert X.shape == (9, 24)
    assert sorted(order.tolist()) == list(range(24))
    assert hz == 120.0
    assert assignment.shape == (24,)


def test_simulate_seed_env_override(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    code, _, _ = run(
        capsys, "simulate", "--seed", "5", "--points", "2", "--samples", "12",
        "--scene-out", str(a),
    )
    assert code == 0
    os.environ["SEED"] = "5"
    try:
        code, _, _ = run(
            capsys, "simulate", "--points", "2", "--samples", "12",
            "--scene-out", str(b),
        )
        assert code == 0
        os.environ["SEED"] = "6"
        code, _, _ = run(
            capsys, "simulate", "--points", "2", "--samples", "12",
            "--scene-out", str(c),
        )
        assert code == 0
    finally:
        del os.environ["SEED"]
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "env, argv",
    [
        ("abc", ()),
        ("", ()),
        ("-1", ()),
        (None, ("--seed", "-1")),
        (None, ("--seed", "1", "--motion-seed", "-2")),
    ],
)
def test_simulate_rejects_bad_seed(tmp_path, capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("SEED", env)
    scene = tmp_path / "scene.json"
    code, _, err = run(
        capsys, "simulate", *argv, "--points", "2", "--samples", "12",
        "--scene-out", str(scene),
    )
    assert code == 3, err
    assert json.loads(err.strip().split("\n")[-1])["category"] == "input"
    assert not scene.exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2  # --seed and --scene-out required
    assert main(["solve"]) == 2
    assert main(["frobnicate"]) == 2


def test_missing_input_file_exits_3(tmp_path, capsys):
    code, out, err = run(
        capsys, "solve", "--scene", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 3
    msg = json.loads(err.strip().split("\n")[-1])
    assert msg["category"] == "input"


def test_infeasible_scene_exits_4(tmp_path, capsys):
    scene = tmp_path / "one.json"
    code, _, _ = run(
        capsys, "simulate", "--seed", "4", "--points", "2", "--samples", "10",
        "--cameras", "1", "--no-consecutive-exclusion", "--scene-out", str(scene),
    )
    assert code == 0
    code, out, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(tmp_path / "r.json"),
    )
    assert code == 4
    msg = json.loads(err.strip().split("\n")[-1])
    assert msg["category"] == "infeasible"


def test_solve_and_eval_pipeline(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys)
    result = tmp_path / "result.json"
    xyz = tmp_path / "points.xyz"
    code, out, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(result),
        "--xyz-out", str(xyz),
    )
    assert code == 0, err
    assert "objective" in out
    doc = sceneio.load_result(result)
    assert doc["structure"].shape == (9, 24)
    assert doc["weights"].shape == (24, 24)

    lines = xyz.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 3 * 24

    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "eval", "--result", str(result), "--truth", str(truth),
        "--out", str(report),
    )
    assert code == 0, err
    rep = sceneio.load_report(report)
    assert rep.accuracy_at[100] == 1.0  # noise-free small scene solves well
    assert rep.median_error < 1.0


def test_pipeline_byte_identical_across_runs(tmp_path, capsys):
    out = []
    for tag in ("x", "y"):
        scene = tmp_path / f"scene_{tag}.json"
        result = tmp_path / f"result_{tag}.json"
        code, _, _ = run(
            capsys, "simulate", "--seed", "7", "--points", "2", "--samples", "18",
            "--cameras", "3", "--scene-out", str(scene),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "solve", "--scene", str(scene), "--out", str(result),
        )
        assert code == 0
        out.append((scene.read_bytes(), result.read_bytes()))
    assert out[0][0] == out[1][0]
    assert out[0][1] == out[1][1]


def test_analyze_with_truth_weights(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys, seed=8)
    out_path = tmp_path / "analysis.json"
    code, out, err = run(
        capsys, "analyze", "--scene", str(scene), "--truth", str(truth),
        "--mask", "offdiag", "--out", str(out_path),
    )
    assert code == 0, err
    assert "max condition" in out
    doc = sceneio.load_analysis(out_path)
    assert len(doc["per_point"]) == 3
    assert "mask:offdiag" in doc["flags"]
    assert doc["max_condition"] >= doc["mean_condition"]


def test_analyze_covers_missing_observations(tmp_path, capsys):
    extra = ("--miss-rate", "0.3")
    scene, truth = simulate_small(tmp_path, capsys, seed=8, extra=extra)
    frames, obs = sceneio.load_scene(scene)
    assert not obs.present.all(axis=1).any()
    out_path = tmp_path / "analysis.json"
    code, out, err = run(
        capsys, "analyze", "--scene", str(scene), "--truth", str(truth),
        "--out", str(out_path),
    )
    assert code == 0, err
    doc = sceneio.load_analysis(out_path)
    assert len(doc["per_point"]) == 3
    for row in doc["per_point"]:
        assert math.isfinite(row["system_condition"])
        assert math.isfinite(row["error_bound"])


def test_analyze_rejects_non_finite_weights_file(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=8)
    weights = tmp_path / "w.json"
    sceneio.save_weights(weights, np.zeros((24, 24)))
    weights.write_text(weights.read_text().replace("0.0", "NaN", 1))
    code, _, err = run(
        capsys, "analyze", "--scene", str(scene), "--weights", str(weights),
        "--out", str(tmp_path / "a.json"),
    )
    assert code == 3, err
    assert json.loads(err.strip().split("\n")[-1])["category"] == "input"


def test_analyze_without_truth_or_weights_fails(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=9)
    code, out, err = run(
        capsys, "analyze", "--scene", str(scene), "--out", str(tmp_path / "a.json"),
    )
    assert code == 3


def test_analyze_rejects_scene_without_points(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=9)
    doc = json.loads(scene.read_text())
    doc["observations"] = []
    scene.write_text(json.dumps(doc))
    weights = tmp_path / "w.json"
    sceneio.save_weights(weights, np.zeros((24, 24)))
    code, _, err = run(
        capsys, "analyze", "--scene", str(scene), "--weights", str(weights),
        "--out", str(tmp_path / "a.json"),
    )
    assert code == 3, err
    assert json.loads(err.strip().split("\n")[-1])["message"] == "scene has no points"


def test_baseline_filter_solve(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys, seed=10)
    out_path = tmp_path / "base.json"
    code, out, err = run(
        capsys, "baseline", "--scene", str(scene), "--truth", str(truth),
        "--taps=-1,2,-1", "--out", str(out_path),
    )
    assert code == 0, err
    assert "filter cost" in out
    doc = sceneio.load_result(out_path)
    assert doc["structure"].shape == (9, 24)
    assert "baseline" in doc["flags"]

    # default taps are the first difference
    code, out, err = run(
        capsys, "baseline", "--scene", str(scene), "--truth", str(truth),
        "--out", str(tmp_path / "base2.json"),
    )
    assert code == 0, err
    assert "[1.0, -1.0]" in out


@pytest.mark.parametrize("taps", ["inf,1", "nan,1", "1e308,-1e308"])
def test_baseline_rejects_non_finite_filter(tmp_path, capsys, taps):
    scene, truth = simulate_small(tmp_path, capsys, seed=10)
    out_path = tmp_path / "base.json"
    code, _, err = run(
        capsys, "baseline", "--scene", str(scene), "--truth", str(truth),
        f"--taps={taps}", "--out", str(out_path),
    )
    assert code == 3, err
    assert json.loads(err.strip().split("\n")[-1])["category"] == "input"
    assert not out_path.exists()


def test_baseline_rejects_truth_of_another_scene(tmp_path, capsys):
    scenes = {}
    for samples in (12, 20):
        d = tmp_path / str(samples)
        d.mkdir()
        scenes[samples] = (d / "scene.json", d / "truth.json")
        code, _, err = run(
            capsys, "simulate", "--seed", "5", "--points", "3", "--samples",
            str(samples), "--cameras", "3", "--scene-out",
            str(scenes[samples][0]), "--truth-out", str(scenes[samples][1]),
        )
        assert code == 0, err
    for a, b in ((12, 20), (20, 12)):
        code, _, err = run(
            capsys, "baseline", "--scene", str(scenes[a][0]), "--truth",
            str(scenes[b][1]), "--out", str(tmp_path / "base.json"),
        )
        assert code == 3, err
        assert "permutation" in err
    assert not (tmp_path / "base.json").exists()


def test_simulate_rejects_nonpositive_distance_factor(tmp_path, capsys):
    for factor in ("0", "-2", "nan"):
        code, _, err = run(
            capsys, "simulate", "--seed", "5", "--points", "3", "--samples",
            "12", "--cameras", "3", f"--distance-factor={factor}", "--scene-out",
            str(tmp_path / "scene.json"), "--truth-out", str(tmp_path / "truth.json"),
        )
        assert code == 3, err
        assert "distance_factor" in err
    assert not (tmp_path / "scene.json").exists()


@pytest.mark.parametrize(
    "flag, field",
    [("--focal", "focal"), ("--principal", "principal_point"), ("--noise-sigma", "noise_sigma")],
)
def test_simulate_names_the_overflowing_field(tmp_path, capsys, flag, field):
    code, _, err = run(
        capsys, "simulate", "--seed", "5", "--points", "3", "--samples", "12",
        "--cameras", "3", f"{flag}=1e308", "--scene-out",
        str(tmp_path / "scene.json"), "--truth-out", str(tmp_path / "truth.json"),
    )
    assert code == 3, err
    assert f"{field} = 1e+308 overflows" in err
    assert not (tmp_path / "scene.json").exists()


def test_report_merges_eval_outputs(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys, seed=11)
    result = tmp_path / "r.json"
    rep = tmp_path / "rep.json"
    assert run(capsys, "solve", "--scene", str(scene), "--out", str(result))[0] == 0
    assert run(
        capsys, "eval", "--result", str(result), "--truth", str(truth),
        "--out", str(rep),
    )[0] == 0
    table = tmp_path / "table.csv"
    code, out, err = run(
        capsys, "report", "--axis", "noise", "--out", str(table),
        f"0.0={rep}", f"1.0={rep}",
    )
    assert code == 0, err
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "noise,10,20,30,40,50,100"
    assert len(lines) == 4  # two rows plus pooled
    code, out, err = run(
        capsys, "report", "--axis", "noise", "--out", str(table), "oops",
    )
    assert code == 3


def test_report_rejects_a_report_missing_a_threshold(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys, seed=11)
    result = tmp_path / "r.json"
    rep = tmp_path / "rep.json"
    assert run(capsys, "solve", "--scene", str(scene), "--out", str(result))[0] == 0
    assert run(
        capsys, "eval", "--result", str(result), "--truth", str(truth),
        "--out", str(rep),
    )[0] == 0
    doc = json.loads(rep.read_text())
    del doc["accuracy_at"]["100"]
    rep.write_text(json.dumps(doc))
    table = tmp_path / "table.csv"
    code, _, err = run(
        capsys, "report", "--axis", "noise", "--out", str(table), f"0.0={rep}"
    )
    assert code == 3, err
    msg = json.loads(err.strip().split("\n")[-1])
    assert msg["category"] == "input"
    assert "accuracy_at" in msg["message"]
    assert not table.exists()


def test_solve_rejects_bad_lambda3(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=12)
    code, out, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(tmp_path / "r.json"),
        "--lambda3", "soft",
    )
    assert code == 3


def test_solve_rejects_nan_lambda1(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=3)
    code, _, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(tmp_path / "r.json"),
        "--lambda1", "nan", "--outer-max", "1", "--rho", "5",
    )
    assert code == 3
    msg = json.loads(err.strip().split("\n")[-1])
    assert msg["category"] == "input"
    assert "lambda1" in msg["message"]


@pytest.mark.parametrize(
    "spec", [spec for spec in fields(SolverConfig) if spec.type is not bool],
    ids=lambda spec: spec.name,
)
def test_solve_flag_sets_its_config_field(spec):
    # a valid value that differs from every default
    value = 7 if spec.type is int else 0.5
    flag = "--" + spec.name.replace("_", "-")
    args = _build_parser().parse_args(
        ["solve", "--scene", "s.json", "--out", "r.json", flag, str(value)]
    )
    config = _config_from_args(args)
    expected = replace(SolverConfig(), **{spec.name: value})
    assert config == expected
    assert type(getattr(config, spec.name)) is spec.type


def test_solve_rejects_mistyped_config_values(tmp_path, capsys):
    scene, _ = simulate_small(tmp_path, capsys, seed=3)
    config = tmp_path / "config.json"
    for key, value in (
        ("outer_max", 2.5),
        ("outer_max", "3"),
        ("lambda1", "abc"),
        ("rho", None),
        ("second_stage", "no"),
    ):
        sceneio.save_config(config, SolverConfig())
        doc = json.loads(config.read_text())
        doc[key] = value
        config.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "solve", "--scene", str(scene), "--config", str(config),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 3, (key, value)
        msg = json.loads(err.strip().split("\n")[-1])
        assert msg["category"] == "input"
        assert key in msg["message"]


def _solve_edited_scene(tmp_path, capsys, edit):
    scene, _ = simulate_small(tmp_path, capsys, seed=13)
    doc = json.loads(scene.read_text())
    edit(doc)
    scene.write_text(json.dumps(doc))  # NaN and Infinity written bare
    code, _, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(tmp_path / "r.json"),
    )
    return code, json.loads(err.strip().split("\n")[-1])


def test_solve_rejects_malformed_observation_entries(tmp_path, capsys):
    for entry in ([1.0], [1.0, 2.0, 3.0], [float("nan"), 1.0], [float("inf"), 1.0]):

        def edit(doc):
            doc["observations"][1][2] = entry

        code, msg = _solve_edited_scene(tmp_path, capsys, edit)
        assert code == 3, entry
        assert msg["category"] == "input"
        assert "point 1 in frame 2" in msg["message"]


def test_solve_rejects_scene_without_points(tmp_path, capsys):
    def edit(doc):
        doc["observations"] = []

    code, msg = _solve_edited_scene(tmp_path, capsys, edit)
    assert code == 3
    assert msg["category"] == "input"
    assert "no points" in msg["message"]


def test_solve_rejects_camera_index_outside_int64(tmp_path, capsys):
    def edit(doc):
        doc["cameras"][2]["video_id"] = 10**30

    code, msg = _solve_edited_scene(tmp_path, capsys, edit)
    assert code == 3
    assert msg["category"] == "input"
    assert "camera 2: video_id" in msg["message"]


def test_solve_rejects_non_finite_camera_entries(tmp_path, capsys):
    # rotation and intrinsics are stored row-major as 9 numbers
    for field, index, value in (
        ("rotation", 0, float("nan")),
        ("rotation", 4, float("inf")),
        ("center", 1, float("nan")),
        ("center", 2, float("-inf")),
        ("intrinsics", 0, float("nan")),
        ("intrinsics", 2, float("inf")),
    ):

        def edit(doc):
            doc["cameras"][2][field][index] = value

        code, msg = _solve_edited_scene(tmp_path, capsys, edit)
        assert code == 3, (field, index)
        assert msg["category"] == "input"
        assert f"frame 2: {field} has a non-finite entry" in msg["message"]


def test_eval_rejects_out_of_range_truth_number(tmp_path, capsys):
    scene, truth = simulate_small(tmp_path, capsys)
    result = tmp_path / "result.json"
    code, _, err = run(
        capsys, "solve", "--scene", str(scene), "--out", str(result),
        "--outer-max", "1",
    )
    assert code == 0, err
    doc = json.loads(truth.read_text())
    doc["hz"] = 10**400
    truth.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "eval", "--result", str(result), "--truth", str(truth),
        "--out", str(tmp_path / "report.json"),
    )
    assert code == 3
    assert json.loads(err.strip().split("\n")[-1])["category"] == "input"


def test_solve_rejects_points_seen_in_one_frame(tmp_path, capsys):
    # a point on a single ray slides along it at no cost under every coupling
    def edit(doc):
        row = doc["observations"][1]
        doc["observations"][1] = [None] * len(row)
        doc["observations"][1][5] = row[5]

    code, msg = _solve_edited_scene(tmp_path, capsys, edit)
    assert code == 3
    assert msg["category"] == "input"
    assert "points [1] are observed in only one frame" in msg["message"]


def test_solve_rejects_camera_centers_too_far_apart(tmp_path, capsys):
    # a finite center entry whose squared distance overflows; under the
    # tier-1 warning filter an overflow RuntimeWarning would exit 1 instead
    def edit(doc):
        doc["cameras"][2]["center"][0] = 1e308

    code, msg = _solve_edited_scene(tmp_path, capsys, edit)
    assert code == 3
    assert msg["category"] == "input"
    assert "inter-camera distance is not finite" in msg["message"]


# the scene of simulate --seed 13 --points 3 --samples 12 --cameras 3, node
# by node: every path below the root of its JSON document
FUZZ_POINTS, FUZZ_FRAMES = 3, 12
CAMERA_FIELDS = {
    "center": 3,
    "frame_in_video": 0,
    "intrinsics": 9,
    "rotation": 9,
    "video_id": 0,
}


def scene_nodes():
    yield from (("format",), ("version",), ("cameras",), ("observations",))
    for g in range(FUZZ_FRAMES):
        yield ("cameras", g)
        for key, size in CAMERA_FIELDS.items():
            yield ("cameras", g, key)
            yield from (("cameras", g, key, i) for i in range(size))
    for p in range(FUZZ_POINTS):
        yield ("observations", p)
        for f in range(FUZZ_FRAMES):
            yield from (("observations", p, f, *tail) for tail in ((), (0,), (1,)))


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    scene = tmp_path_factory.mktemp("fuzz") / "scene.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "simulate", "--seed", "13", "--points", str(FUZZ_POINTS),
            "--samples", str(FUZZ_FRAMES), "--cameras", "3",
            "--scene-out", str(scene),
        ])
    assert code == 0
    return scene, scene.read_text()


JUNK = [None, True, False, 10**30, 1e308, "x", [], [1.0, 2.0], float("nan"),
        float("inf")]


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(scene_nodes())), value=st.sampled_from(JUNK))
@example(path=("cameras", 2, "center", 0), value=1e308)
def test_solve_maps_any_bad_scene_node_to_a_known_exit(fuzz_scene, path, value):
    """One scene node replaced by a junk value solves, or exits 3, 4 or 5."""
    scene, text = fuzz_scene
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    edited = scene.with_name("edited.json")
    edited.write_text(json.dumps(doc))  # NaN and Infinity written bare
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "solve", "--scene", str(edited),
            "--out", str(scene.with_name("result.json")), "--outer-max", "1",
        ])
    assert code in (0, 3, 4, 5), err.getvalue()


def json_nodes(doc, path=()):
    """Every path below the root of a JSON document, list indices under 2."""
    if path:
        yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:2])
    else:
        items = ()
    for key, value in items:
        yield from json_nodes(value, path + (key,))


@pytest.fixture(scope="module")
def fuzz_eval(tmp_path_factory):
    """Truth and result files of a small solved scene, as (path, text)."""
    root = tmp_path_factory.mktemp("fuzz_eval")
    scene, truth, result = (root / f"{n}.json" for n in ("scene", "truth", "result"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "simulate", "--seed", "13", "--points", str(FUZZ_POINTS),
            "--samples", str(FUZZ_FRAMES), "--cameras", "3",
            "--scene-out", str(scene), "--truth-out", str(truth),
        ]) == 0
        assert main([
            "solve", "--scene", str(scene), "--out", str(result), "--outer-max", "1",
        ]) == 0
    return {"truth": (truth, truth.read_text()), "result": (result, result.read_text())}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_eval_maps_any_bad_truth_or_result_node_to_a_known_exit(fuzz_eval, data):
    """One truth or result node replaced by a junk value evaluates, or exits 3."""
    which = data.draw(st.sampled_from(sorted(fuzz_eval)))
    original, text = fuzz_eval[which]
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(json_nodes(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(JUNK))
    edited = original.with_name("edited.json")
    edited.write_text(json.dumps(doc))  # NaN and Infinity written bare
    files = {name: str(path_) for name, (path_, _) in fuzz_eval.items()}
    files[which] = str(edited)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "eval", "--result", files["result"], "--truth", files["truth"],
            "--out", str(original.with_name("report.json")),
        ])
    assert code in (0, 3), err.getvalue()
