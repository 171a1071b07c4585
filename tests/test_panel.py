"""The paired panel (tools/panel.py): seeds, tallies, timing and one A/A pair.

The panel itself solves whole benchmark workloads and stays out of tier-1;
these checks pin how it reads ``--seeds``, how it tallies pairs and prints
sweep points, and that one small scene solved by this checkout loaded as
both sides gives one result.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion

ROOT = Path(__file__).resolve().parents[1]
PANEL = ROOT / "tools" / "panel.py"


def load_panel():
    spec = importlib.util.spec_from_file_location("panel", PANEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeds_and_paired_tally():
    panel = load_panel()
    assert panel.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert panel.parse_seeds("5") == [5]
    # lower is better: one win, one loss, one tie, and a missing pair
    pairs = [(1.0, 0.5), (1.0, 2.0), (3.0, 3.0), (None, 1.0)]
    assert panel.tally(pairs, higher_better=False) == (1, 1, 1, 0.0)
    assert panel.tally(pairs, higher_better=True) == (1, 1, 1, 0.0)


def test_seed_ranges_are_the_panels():
    panel = load_panel()
    assert panel.parse_seeds("21-30") == list(range(21, 31))
    assert panel.parse_seeds("3-4,1,9") == [1, 3, 4, 9]
    # an empty range is refused before anything is loaded
    with pytest.raises(SystemExit):
        panel.main(["--base", ".", "--head", ".", "--seeds", "4-2"])


def test_timing_summary_counts_wins_and_the_median_paired_change():
    panel = load_panel()
    pairs = [(1.0, 0.8), (2.0, 1.0), (1.0, 1.0), (1.0, 1.1), (4.0, 3.0)]
    out = panel.timing_summary(pairs)
    assert (out["pairs"], out["wins"], out["losses"], out["ties"]) == (5, 3, 1, 1)
    # paired changes -0.2, -0.5, 0, +0.1, -0.25: the median is -0.2
    assert out["median_change"] == pytest.approx(-0.2)
    assert out["base"]["median"] == 1.0 and out["head"]["median"] == 1.0
    assert out["base"]["q1"] <= out["base"]["median"] <= out["base"]["q3"]
    one = panel.timing_summary([(2.0, 1.5)])
    assert one["head"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert one["median_change"] == pytest.approx(-0.25)


def test_sweeps_are_c08s_and_print_side_by_side():
    panel = load_panel()
    assert panel.SWEEPS["noise"][1] == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert list(panel.SWEEPS["noise"][2]) == [1, 2, 3, 4, 5]
    assert panel.SWEEPS["noise"][3] == {"lambda3": 100.0}
    assert panel.SWEEPS["miss"][1] == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    assert list(panel.SWEEPS["miss"][2]) == list(range(1, 9))
    side = {"acc30": 0.9388, "median_error_mm": 11.3, "top2": 0.3125,
            "converged": 0, "solves": 5, "warmup": 500, "seconds": 1.234}
    head = side | {"acc30": 0.9411, "median_error_mm": 10.7, "top2": 0.2917,
                   "converged": 5, "warmup": 377, "seconds": 0.9}
    point = {"sweep": "noise", "value": 5.0, "base": side, "head": head}
    assert panel.sweep_summary([point]) == [
        "noise 5: acc30 base 0.9388 head 0.9411 (+0.0023); median_error_mm "
        "base 11.3 head 10.7; top2 base 0.3125 head 0.2917; warm-up passes "
        "base 500 head 377; converged base 0/5 head 5/5; solve seconds base "
        "1.23 head 0.90"
    ]
    # per workload, each side's summed warm-up passes and converged solves
    blank = dict.fromkeys(panel.SCENE_METRICS, 0.0) | {
        "result_sha256": "x", "problems": []
    }
    scenes = [((100, False), (90, True)), ((40, True), (45, True))]
    rows = [
        {"workload": "w", "seed": 1, "scene": i}
        | {
            side: blank | {"warmup": w, "converged": c}
            for side, (w, c) in zip(panel.SIDES, sides)
        }
        for i, sides in enumerate(scenes)
    ]
    timing = {"w": panel.timing_summary([(1.0, 1.0)])}
    timing["w"]["traced_peak_bytes"] = {"base": 1e6, "head": 1e6}
    lines = panel.summary(rows, [], timing)
    assert lines[:2] == [
        "w: 2 of 2 scenes with equal result bytes; failed scenes base 0, head 0",
        "  warm-up passes base 140 head 135; converged base 1/2 head 2/2",
    ]


def test_a_checkout_paired_with_itself_ties_everywhere(tmp_path):
    panel = load_panel()
    packages = {
        side: panel.load_package(ROOT, f"panel_test_{side}") for side in panel.SIDES
    }
    assert sys.modules["panel_test_base.solver"] is not sys.modules[
        "panel_test_head.solver"
    ]
    scene = generate(
        procedural_motion(3, 12, seed=1),
        RigSpec(camera_count=4),
        CorruptionSpec(seed=3, miss_rate=0.2),
    )
    # the traced peak is read on 96 frames, where the F x F arrays outweigh
    # the interpreter's own allocations, which vary by a few percent
    wide = generate(procedural_motion(3, 96, seed=1), RigSpec(camera_count=4),
                    CorruptionSpec(seed=3))
    records, peaks, points = {}, {}, {}
    for side, package in packages.items():
        config = package.SolverConfig(outer_max=4)
        _, states = panel.solve_scenes(package, [scene], config)
        records[side], errors = panel.scene_record(
            package, scene, states[0], config, tmp_path, endpoint_ranks=2
        )
        assert errors.shape == scene.observations.present.shape
        peaks[side] = panel.traced_peak(package, wide, config)
        points[side] = panel.sweep_side(
            package, [scene, scene], config, tmp_path, endpoint_ranks=2
        )
    base, head = records["base"], records["head"]
    assert base["result_sha256"] == head["result_sha256"]
    assert abs(peaks["head"] - peaks["base"]) <= 0.01 * peaks["base"]
    # a sweep point of two solves of the scene: every field but the
    # seconds ties, and the top-2 frequency is the scene's
    seconds = {side: points[side].pop("seconds") for side in panel.SIDES}
    assert min(seconds.values()) > 0.0
    assert points["base"] == points["head"]
    assert points["head"]["top2"] == head["top2"]
    assert points["head"]["solves"] == 2
    # the scene has observed and missing slots, so every metric has a pair
    for name, higher in panel.SCENE_METRICS.items():
        assert panel.tally([(base[name], head[name])], higher) == (0, 0, 1, 0)
    # the workload's summed warm-up passes and converged solves tie too
    rows = [{"workload": "w", "seed": 1, "scene": 0} | records]
    totals = panel.workload_totals(rows)
    assert totals["base"] == totals["head"]
    assert totals["head"] == {
        "warmup": head["warmup"], "converged": head["converged"], "solves": 1
    }
