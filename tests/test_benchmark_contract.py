"""What the benchmark harness under perfbench/ reads from the package.

Its tracer (``perfbench/spans.py``) wraps solver layers by module and
attribute name and reads the W-step's info dict; its runner
(``perfbench/bench.py``) builds a ``SolverConfig`` from each workload,
builds the support mask, and reads the result's fields and flags, as does
its correctness gate (``perfbench/gate.py``).  Tier-1 does not collect
``perfbench/``, so these checks keep a renamed or deleted name from going
unseen.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from unsync3d import solver
from unsync3d.geometry import RayField
from unsync3d.simplex import support_mask
from unsync3d.solver import SolverConfig, admm_w_step, minimize_structure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    # bench.py imports its neighbours gate and spans by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_traced_layer_exists():
    for module_name, attr, _ in load("spans").TARGETS:
        module = importlib.import_module(f"unsync3d.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_w_step_returns_the_info_the_tracer_reads():
    X = np.random.default_rng(0).standard_normal((6, 8))
    mask = support_mask(np.arange(8) % 2)
    out = admm_w_step(X, mask, SolverConfig())
    assert len(out) == 4
    info = out[3]
    assert isinstance(info, dict)
    assert type(info["iterations"]) is int and info["iterations"] >= 1
    assert type(info["converged"]) is bool


def test_every_workload_config_builds():
    bench = load("bench")
    # the smoke test's workload config (perfbench/test_perfbench.py, TINY)
    configs = [w.config for w in bench.WORKLOADS.values()] + [{"outer_max": 4}]
    for config in configs:
        SolverConfig(**config).validate()


def test_runner_solves_and_parses_the_flags(tmp_path, monkeypatch):
    # the runner builds the support mask from the config and reads the
    # result fields that it and the gate check; its layer metrics parse the
    # warmup-<N> and stageK-outer-cap flags, which every loop writes here,
    # as no loop meets this tolerance in 3 passes
    monkeypatch.setattr(solver, "_OUTER_REL_TOL", 5e-324)
    bench = load("bench")
    tiny = bench.Workload(points=3, frames=12, config={"outer_max": 3})
    scenes = bench.make_scenes(tiny, 3)
    loaded = [(scene.frames, scene.observations) for scene in scenes]
    runner = bench.Runner(tiny, scenes, loaded, tmp_path)
    for traced in (False, True):
        record = runner.solve(0, traced=traced)
        assert record.problems == [] and record.digest
        assert "warmup-3" in record.flags
        assert {"stage0-outer-cap", "stage1-outer-cap"} <= set(record.flags)
    setup = {"import_s": 0.0, "load_s": 0.0, "scene_bytes": 0}
    metrics = bench.layer_metrics(runner, setup)
    assert metrics["solver.warmup_passes"] == 3
    for stage in ("warmup", "stage0", "stage1"):
        assert metrics[f"solver.stop_reason.{stage}"] == 1.0


def test_ridge_flags_carry_the_prefix_the_benchmark_counts():
    # a zero coupling leaves the missing frame's elimination singular
    rng = np.random.default_rng(0)
    F = 4
    present = np.ones((1, F), dtype=bool)
    present[0, 3] = False
    directions = rng.normal(size=(1, F, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    directions[~present] = np.nan
    rays = RayField(directions, rng.normal(size=(F, 3)), present)
    flags = []
    minimize_structure(np.zeros((F, F)), rays, lambda3=math.inf, flags=flags)
    assert flags and all(flag.startswith("ridge:") for flag in flags)
