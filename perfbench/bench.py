"""Load and solve benchmark for unsync3d on seeded synthetic scenes.

One run generates its workload's scenes from the seed, writes them as scene
JSON, times fresh-process set-up (``import unsync3d`` plus
``sceneio.load_scene``) and then times ``solver.solve`` on the loaded
scenes, checking every result with ``gate.problems``.  Load is a closed
loop: one process, one solve at a time, back to back.

An untraced run solves in whole rounds, each round every scene once.  The
number of rounds is fixed by ``seconds`` and the nominal round time
``ROUND_S``, never by how fast the program runs, so every run of a workload
and seed does the same solves.  ``solve_s`` is the mean wall time of one
solve over all of them, which weighs every scene alike; the median and a
high percentile of the same solves are printed as information.
A traced run solves the seed's own scene (scene 0) once untraced and once
with the layer wrappers of ``spans`` installed; its work is fixed, so its
call counts repeat exactly for a seed.  Every repeat must give the same
``sceneio.save_result`` bytes as the scene's first solve, so each traced
run checks determinism (and that tracing leaves results alone), and so does
each untraced run.
"""

import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from unsync3d import sceneio, simplex, solver
from unsync3d.evaluate import evaluate
from unsync3d.geometry import frame_video_ids
from unsync3d.simplex import support_mask
from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion

import gate
from spans import Tracer

SETUP_PROBES = 9
# scene i of a run uses CorruptionSpec.seed = seed + SCENE_SEED_STRIDE * i,
# so scene 0 is the workload seed's own scene
SCENE_SEED_STRIDE = 1000
ENDPOINT_RANKS = 4
HERE = Path(__file__).resolve().parent
MODULES = {"solver": solver, "simplex": simplex}


@dataclass(frozen=True)
class Workload:
    """Scene recipe; the reason for each workload is in BENCHMARK.json."""

    points: int
    frames: int
    corruption: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    scenes: int = 1
    acc30_floor: float = 0.0


# All use 4 static cameras and procedural_motion(seed=1); the run seed drives
# CorruptionSpec.seed.  Each workload has as many scenes as one ROUND_S round
# of solves holds on a slow host, so a 60 s run solves every scene three
# times and ends within about a minute.  A shared host's speed swings by up
# to 1.6x for seconds to minutes at a time; over the same runs, the mean of
# a run's solves was steadier across seeds than their median or fastest.
# Floors sit under the lowest acc30 seen over many seeds, so they catch a
# broken solve, not an unlucky rig; long_f240 reads 0.99-1.0 on every seed
# seen, so its floor is tight.  soft_noise3px runs by name only:
# BENCHMARK.json leaves it out, as its dense X-step slows the most when the
# host does, and no run length that fits steadies it.
WORKLOADS = {
    "long_f240": Workload(points=5, frames=240, acc30_floor=0.95),
    "soft_noise3px": Workload(
        points=16,
        frames=48,
        corruption={"noise_sigma": 3.0},
        config={"lambda3": 100.0},
        scenes=2,
        acc30_floor=0.8,
    ),
    "miss30_hard": Workload(
        points=16, frames=48, corruption={"miss_rate": 0.3}, scenes=4, acc30_floor=0.7
    ),
}
# seconds one round of any workload took when its scene count was chosen;
# it turns --seconds into a number of rounds that never depends on the
# program's speed
ROUND_S = 20.0

# name -> (unit, better).  BENCHMARK.json bounds the ones that are never 0
# and steady across seeds; the rest are printed for information.
END_TO_END = {
    "solve_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "median_error_mm": ("mm", "lower"),
    "endpoint_error_mm": ("mm", "lower"),
    "acc30": ("frac", "higher"),
    "top2_neighbor_freq": ("frac", "higher"),
    "converged_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("frac", "lower"),
}

# name -> (unit, better, the end-to-end metric it should move, and where).
# Times and counts are per traced solve.
PER_LAYER = {
    "unsync3d.import_s": ("s", "lower", "setup_s, all workloads"),
    "sceneio.load_scene_s": ("s", "lower", "setup_s, all workloads"),
    "sceneio.scene_bytes": ("bytes", "lower", "setup_s, all workloads"),
    "solver.initialize_depths.self_s": ("s", "lower", "solve_s on long_f240"),
    "solver.pair_distance_matrix_s": ("s", "lower", "solve_s on long_f240"),
    "simplex.self_express_s": (
        "s", "lower", "solve_s on long_f240 and miss30_hard, not soft_noise3px"
    ),
    "simplex.self_express_calls": (
        "count", "lower", "solve_s on long_f240 and miss30_hard"
    ),
    "simplex.minimize_on_simplex_calls.warmup": (
        "count", "lower", "solve_s on long_f240 and miss30_hard"
    ),
    "simplex.minimize_on_simplex_calls.admm": (
        "count", "lower", "solve_s on long_f240 and miss30_hard"
    ),
    "solver.x_step.self_s": (
        "s", "lower", "solve_s on soft_noise3px and miss30_hard"
    ),
    "solver.x_step_calls": (
        "count", "lower", "solve_s on soft_noise3px and miss30_hard"
    ),
    "solver.coupling_matrix_s": (
        "s", "lower", "solve_s on soft_noise3px and miss30_hard"
    ),
    "solver.admm_w_step_s": ("s", "lower", "solve_s on long_f240"),
    "solver.admm_w_step_calls": ("count", "lower", "solve_s on long_f240"),
    "solver.admm_iterations": ("count", "lower", "solve_s on long_f240"),
    "solver.admm_iters_per_call": ("count", "lower", "solve_s on long_f240"),
    "solver.admm_cap_hits": (
        "count", "lower", "solve_s on long_f240; converged_frac"
    ),
    "solver.objective_s": ("s", "lower", "solve_s, all workloads"),
    "solver.objective_calls": ("count", "lower", "solve_s, all workloads"),
    "solver.solve.self_s": ("s", "lower", "solve_s, all workloads"),
    "solver.warmup_passes": ("count", "lower", "converged_frac and solve_s"),
    "solver.outer_iterations": ("count", "lower", "converged_frac and solve_s"),
    "solver.stop_reason.warmup": ("cap_frac", "lower", "converged_frac"),
    "solver.stop_reason.stage0": ("cap_frac", "lower", "converged_frac"),
    "solver.stop_reason.stage1": ("cap_frac", "lower", "converged_frac"),
    "solver.ridge_retries": ("count", "lower", "converged_frac and solve_s"),
    "trace.overhead_frac": ("frac", "lower", "none; traced over untraced solve_s"),
}


@dataclass
class Solve:
    scene: int
    traced: bool
    seconds: float
    problems: list
    converged: bool = False
    digest: str = ""
    cap_warnings: int = 0
    flags: list = field(default_factory=list)
    outer_iterations: int = 0


def make_scenes(workload, seed):
    motion = procedural_motion(workload.points, workload.frames, seed=1)
    rig = RigSpec(camera_count=4)
    return [
        generate(
            motion,
            rig,
            CorruptionSpec(seed=seed + SCENE_SEED_STRIDE * i, **workload.corruption),
        )
        for i in range(workload.scenes)
    ]


def measure_setup(root, paths, probes):
    """Median import and load seconds over ``probes`` fresh processes."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(root / "src")]
    cmd += [str(p) for p in paths]
    runs = []
    for _ in range(probes):
        out = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, check=True, timeout=60
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["import_s"] + r["load_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "load_s": statistics.median(r["load_s"] for r in runs),
    }


def environment(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: value
            for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "load": "closed loop, 1 process, solves back to back",
    }


def high_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Runner:
    """Solves one run's scenes and keeps every solve's record."""

    def __init__(self, workload, scenes, loaded, workdir):
        self.workload = workload
        self.scenes = scenes
        self.loaded = loaded
        self.workdir = workdir
        self.config = solver.SolverConfig(**workload.config)
        self.masks = [
            support_mask(
                frame_video_ids(frames),
                exclude_same_video=self.config.same_video_exclusion,
            ).allowed
            for frames, _ in loaded
        ]
        self.tracer = Tracer()
        self.solves = []
        self.first = {}  # scene -> (digest, EvalReport) of its first solve

    def solve(self, i, traced=False):
        frames, obs = self.loaded[i]
        scene = self.scenes[i]
        patch = self.tracer.patched(MODULES) if traced else nullcontext()
        span = self.tracer.span("solver.solve") if traced else nullcontext()
        self.tracer.solve_id = len(self.solves)
        with patch, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with span:
                    state = solver.solve(obs, frames, self.config)
            except Exception as exc:  # a raising solve is a counted failure
                traceback.print_exc()
                record = Solve(i, traced, time.perf_counter() - start, [repr(exc)])
                self.solves.append(record)
                return record
            seconds = time.perf_counter() - start
        name = f"result-{i}.json" if i not in self.first else "repeat.json"
        path = self.workdir / name
        sceneio.save_result(path, state, self.config)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        report = evaluate(
            state.structure, scene.truth, state.weights, scene.truth_order
        )
        problems = gate.problems(
            state, self.masks[i], report.accuracy_at[30], self.workload.acc30_floor
        )
        if i not in self.first:
            self.first[i] = (digest, report)
        elif digest != self.first[i][0]:
            problems.append("result bytes differ from the scene's first solve")
        record = Solve(
            i,
            traced,
            seconds,
            problems,
            converged=bool(state.converged),
            digest=digest,
            cap_warnings=sum("iteration cap" in str(w.message) for w in caught),
            flags=list(state.flags),
            outer_iterations=int(state.outer_iterations),
        )
        self.solves.append(record)
        return record

    def accuracy(self):
        errors, endpoint, top2 = [], [], []
        for i, (_, report) in sorted(self.first.items()):
            order = self.scenes[i].truth_order
            F = order.size
            ends = (order < ENDPOINT_RANKS) | (order >= F - ENDPOINT_RANKS)
            errors.append(report.per_point_errors.ravel())
            endpoint.append(report.per_point_errors[:, ends].ravel())
            top2.append(report.top2_neighbor_frequency)
        errors = np.concatenate(errors)
        return {
            "median_error_mm": float(np.median(errors)),
            "endpoint_error_mm": float(np.median(np.concatenate(endpoint))),
            "acc30": float(np.mean(errors < 30.0)),
            "top2_neighbor_freq": float(np.mean(top2)),
        }


def _warmup_passes(flags):
    return next(int(f.split("-", 1)[1]) for f in flags if f.startswith("warmup-"))


def layer_metrics(runner, setup):
    # a traced solve that raised has no flags or counters to read
    traced = [(k, s) for k, s in enumerate(runner.solves) if s.traced and s.digest]
    n = len(traced)
    if n == 0:
        return {}
    total, self_s, calls, infos = runner.tracer.totals([k for k, _ in traced])
    admm = infos["solver.admm_w_step"]
    admm_iters = sum(info["iterations"] for info in admm)
    untraced_s = sum(s.seconds for s in runner.solves if not s.traced)
    traced_s = sum(s.seconds for _, s in traced)
    outer_max = runner.config.outer_max
    flags = [s.flags for _, s in traced]
    warmups = [_warmup_passes(f) for f in flags]
    mos = "simplex.minimize_on_simplex"
    return {
        "unsync3d.import_s": setup["import_s"],
        "sceneio.load_scene_s": setup["load_s"],
        "sceneio.scene_bytes": setup["scene_bytes"],
        "solver.initialize_depths.self_s": self_s["solver.initialize_depths"] / n,
        "solver.pair_distance_matrix_s": total["solver.pair_distance_matrix"] / n,
        "simplex.self_express_s": total["simplex.self_express"] / n,
        "simplex.self_express_calls": calls["simplex.self_express"] / n,
        f"{mos}_calls.warmup": calls[f"{mos}.warmup"] / n,
        f"{mos}_calls.admm": calls[f"{mos}.admm"] / n,
        "solver.x_step.self_s": self_s["solver.x_step"] / n,
        "solver.x_step_calls": calls["solver.x_step"] / n,
        "solver.coupling_matrix_s": total["solver.coupling_matrix"] / n,
        "solver.admm_w_step_s": total["solver.admm_w_step"] / n,
        "solver.admm_w_step_calls": len(admm) / n,
        "solver.admm_iterations": admm_iters / n,
        "solver.admm_iters_per_call": admm_iters / max(len(admm), 1),
        "solver.admm_cap_hits": sum(not info["converged"] for info in admm) / n,
        "solver.objective_s": total["solver.objective"] / n,
        "solver.objective_calls": calls["solver.objective"] / n,
        "solver.solve.self_s": self_s["solver.solve"] / n,
        "solver.warmup_passes": sum(warmups) / n,
        "solver.outer_iterations": sum(s.outer_iterations for _, s in traced) / n,
        "solver.stop_reason.warmup": sum(w >= outer_max for w in warmups) / n,
        "solver.stop_reason.stage0": sum("stage0-outer-cap" in f for f in flags) / n,
        "solver.stop_reason.stage1": sum("stage1-outer-cap" in f for f in flags) / n,
        "solver.ridge_retries": sum(x.startswith("ridge:") for f in flags for x in f)
        / n,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def run(workload, seed, seconds, trace, root, workdir, probes=SETUP_PROBES):
    """Run one benchmark pass; returns a dict of everything it measured."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenes = make_scenes(workload, seed)
    paths = [workdir / f"scene-{i}.json" for i in range(len(scenes))]
    for path, scene in zip(paths, scenes):
        sceneio.save_scene(path, scene.frames, scene.observations)
    setup = measure_setup(root, paths, probes)
    setup["scene_bytes"] = sum(p.stat().st_size for p in paths)
    runner = Runner(workload, scenes, [sceneio.load_scene(p) for p in paths], workdir)

    if trace:
        runner.solve(0)
        runner.solve(0, traced=True)
    else:
        for _ in range(max(1, round(seconds / ROUND_S))):
            for i in range(len(scenes)):
                runner.solve(i)

    solves = runner.solves
    failed = sum(bool(s.problems) for s in solves)
    times = [s.seconds for s in solves if not s.traced]
    metrics = {
        "solve_s": statistics.fmean(times),
        "setup_s": setup["setup_s"],
        "converged_frac": sum(s.converged for s in solves) / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / len(solves),
    }
    if runner.first:
        metrics.update(runner.accuracy())
    if trace:
        metrics.update(layer_metrics(runner, setup))
        runner.tracer.write(workdir / "spans.jsonl")
    return {
        "attempted": len(solves),
        "failed": failed,
        "metrics": metrics,
        "solves": solves,
        "scenes": [
            {
                "scene": i,
                "corruption_seed": seed + SCENE_SEED_STRIDE * i,
                "median_error_mm": report.median_error,
                "acc30": report.accuracy_at[30],
                "top2_neighbor_freq": report.top2_neighbor_frequency,
                "result_sha256": digest,
            }
            for i, (digest, report) in sorted(runner.first.items())
        ],
        "median": statistics.median(times),
        "percentile": high_percentile(times),
        "cap_warnings": sum(s.cap_warnings for s in solves),
    }


def report_lines(args, env, result):
    """Human-readable lines: environment, solves, metrics, gate verdict."""
    out = [
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    ]
    out += [f"env {key}: {value}" for key, value in env.items()]
    for s in result["solves"]:
        verdict = "ok" if not s.problems else "FAIL " + "; ".join(s.problems)
        out.append(
            f"solve scene={s.scene} traced={int(s.traced)} {s.seconds:.3f} s "
            f"converged={s.converged} {verdict}"
        )
    metrics = result["metrics"]
    for name, (unit, better) in END_TO_END.items():
        value = _fmt(metrics.get(name))
        out.append(f"metric {name} = {value} {unit} ({better} is better)")
    pct = result["percentile"]
    n = sum(not s.traced for s in result["solves"])
    out.append(f"info solve median of all solves = {result['median']:.4f} s (n={n})")
    if pct is None:
        out.append(f"info solve_s: no percentile has 10 samples above it (n={n})")
    else:
        out.append(f"info solve_s p{pct[0]:.1f} = {pct[1]:.4f} s (n={n})")
    if args.trace:
        for name, (unit, _, moves) in PER_LAYER.items():
            out.append(f"layer {name} = {_fmt(metrics.get(name))} {unit} -> {moves}")
        out += split_lines(metrics, result)
    out.append(f"info admm cap warnings captured: {result['cap_warnings']}")
    for sc in result["scenes"]:
        out.append(
            f"scene {sc['scene']} corruption_seed={sc['corruption_seed']} "
            f"median_error={sc['median_error_mm']:.6g} mm acc30={sc['acc30']:.4f} "
            f"top2={sc['top2_neighbor_freq']:.4f} result_sha256={sc['result_sha256']}"
        )
    verdict = "PASS" if result["failed"] == 0 else "FAIL"
    out.append(
        f"gate {verdict}: {result['failed']} of {result['attempted']} solves failed"
    )
    return out


def split_lines(metrics, result):
    """Shares of the traced solve time taken by the main layers."""
    traced = [s.seconds for s in result["solves"] if s.traced]
    if not traced or metrics.get("solver.x_step.self_s") is None:
        return []
    solve_s = sum(traced) / len(traced)
    out = [f"split traced solve = {solve_s:.3f} s"]
    for name in (
        "solver.x_step.self_s",
        "simplex.self_express_s",
        "solver.admm_w_step_s",
        "solver.initialize_depths.self_s",
        "solver.pair_distance_matrix_s",
        "solver.objective_s",
        "solver.solve.self_s",
    ):
        out.append(f"split {name} = {metrics[name] / solve_s:.1%}")
    return out


def contract_line(result, listed):
    """The last stdout line: the metrics BENCHMARK.json lists, with units."""
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"]), "unit": m["unit"]}
        for m in listed
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"
