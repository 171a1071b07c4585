"""Smoke test of the benchmark on a tiny scene.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gate  # noqa: E402
from unsync3d import simplex, solver  # noqa: E402

TINY = bench.Workload(points=3, frames=12, config={"outer_max": 4}, scenes=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    return {
        trace: bench.run(TINY, 3, 0.0, trace, ROOT, work / str(trace), probes=2)
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
def test_every_listed_metric_is_emitted_with_its_unit(results, trace):
    result = results[trace]
    assert result["failed"] == 0
    assert result["attempted"] == 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    line = bench.contract_line(result, listed)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    table = bench.PER_LAYER if trace else bench.END_TO_END
    args = argparse.Namespace(workload="tiny", seed=3, seconds=0.0, trace=int(trace))
    printed = {
        line.split()[1]: line.split()[4]
        for line in bench.report_lines(args, {}, result)
        if line.startswith(("metric ", "layer "))
    }
    expected = {name: spec[0] for name, spec in bench.END_TO_END.items()}
    if trace:
        expected |= {name: spec[0] for name, spec in bench.PER_LAYER.items()}
    assert printed == expected
    for entry in listed:
        emitted = line["metrics"][entry["name"]]
        assert isinstance(emitted["value"], (int, float)), entry["name"]
        assert emitted["unit"] == entry["unit"] == table[entry["name"]][0]
        assert entry["better"] == table[entry["name"]][1]


def test_benchmark_json_names_every_layer_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(bench.END_TO_END)
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


def test_traced_run_counts_layers_and_restores_modules(results):
    m = results[True]["metrics"]
    assert m["simplex.minimize_on_simplex_calls.warmup"] > 0
    assert m["simplex.minimize_on_simplex_calls.admm"] > 0
    # one x_step per warm-up pass and outer iteration; one ADMM step per
    # outer iteration plus the bootstrap step
    outer = m["solver.outer_iterations"]
    assert m["solver.x_step_calls"] == m["solver.warmup_passes"] + outer
    assert m["solver.admm_w_step_calls"] == outer + 1
    assert not hasattr(solver.x_step, "__wrapped__")
    assert not hasattr(simplex.minimize_on_simplex, "__wrapped__")
    # traced and untraced solves of a scene gave the same result bytes
    assert all(not s.problems for s in results[True]["solves"])


def test_gate_rejects_a_corrupted_result():
    scenes = bench.make_scenes(TINY, 3)
    scene = scenes[0]
    config = solver.SolverConfig(**TINY.config)
    state = solver.solve(scene.observations, scene.frames, config)
    allowed = simplex.support_mask([f.video_id for f in scene.frames]).allowed
    assert gate.problems(state, allowed, 1.0, 0.5) == []

    W = state.weights.copy()
    j, k = np.flatnonzero(allowed[:, 0])[:2]
    W[k, 0] += W[j, 0] + 0.1
    W[j, 0] = -0.1
    negative = gate.problems(replace(state, weights=W), allowed, 1.0, 0.5)
    assert any("negative" in p for p in negative)

    rising = list(state.objective_trace) + [state.objective_trace[-1] * 2 + 1]
    assert gate.problems(replace(state, objective_trace=rising), allowed, 1.0, 0.5)
    assert gate.problems(state, allowed, 0.4, 0.5)


def test_failed_gate_marks_the_run_incorrect(tmp_path):
    impossible = replace(TINY, acc30_floor=2.0)
    result = bench.run(impossible, 3, 0.0, False, ROOT, tmp_path, probes=1)
    assert result["failed"] == result["attempted"]
    assert bench.contract_line(result, SPEC["end_to_end"])["correct"] is False


def test_untraced_run_solves_a_fixed_number_of_whole_rounds(tmp_path):
    result = bench.run(TINY, 3, 3 * bench.ROUND_S, False, ROOT, tmp_path, probes=1)
    solves = result["solves"]
    assert [s.scene for s in solves] == [0, 1] * 3
    # repeats of a scene give its first solve's result bytes
    assert result["failed"] == 0
    mean = sum(s.seconds for s in solves) / len(solves)
    assert result["metrics"]["solve_s"] == pytest.approx(mean)
