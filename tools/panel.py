"""Paired panel: two checkouts' accuracy and timing on the same seeded scenes.

Run from anywhere, with two checkouts of the repository:

    python3 tools/panel.py --base ../parent --head . --seeds 1-10 \
        --reps 2 --out ACCURACY.json

Both checkouts' ``unsync3d`` packages load side by side in one process,
each under its own module name, with BLAS threads pinned to 1.  The
workloads, their scenes, the endpoint ranks and the correctness gate come
from the head checkout's ``perfbench/``.  One pair is one workload seed's
scenes solved by each side, alternating which side goes first; only the
solves are timed, and ``--reps`` repeats every seed.  Each scene's first
solve gives its result hash, accuracy (also over observed and over missing
slots, and the median over the endpoint frames), warm-up passes,
``converged``, whether the coupled stage stopped at its cap and gate
failures; a later rep must repeat the hash.  After the timed pairs each
side solves the first seed's scene 0 once more, untimed, under
``tracemalloc``, for its traced memory peak.  Then both sides solve c08's
two pooled sweeps on the head's scenes, point by point, again alternating.

Everything goes to ``--out`` as JSON.  It prints per workload the scenes
with equal result bytes, each metric's wins, losses and ties of the head
with the median paired difference, the timing and the traced peaks; and
per sweep point the
pooled accuracy, warm-up passes and converged solves side by side.  Result
files go to a temporary directory, not to ``.perfbench_work/``, so a
perfbench run can share the checkout.  It gates nothing.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("base", "head")

# metric -> whether higher is better; scene metrics first, then run metrics
SCENE_METRICS = {
    "median_error_mm": False,
    "acc30": True,
    "top2": True,
    "warmup": False,
    "converged": True,
    "median_error_mm_observed": False,
    "acc30_observed": True,
    "median_error_mm_missing": False,
    "acc30_missing": True,
    "median_error_mm_endpoint": False,
    "coupled_at_cap": False,
}
RUN_METRICS = {"endpoint_error_mm": False, "converged_frac": True}

# c08's pooled sweeps, as tests/test_acceptance.py runs them: name ->
# (CorruptionSpec field, sweep values, seeds, SolverConfig fields)
SWEEPS = {
    "noise": ("noise_sigma", (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), range(1, 6),
              {"lambda3": 100.0}),
    "miss": ("miss_rate", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), range(1, 9), {}),
}


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix) as a sorted list of seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def load_package(root, name):
    """Import ``root``'s src/unsync3d as the package ``name``."""
    src = Path(root).resolve() / "src" / "unsync3d"
    if not (src / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    # the package may load its submodules on first use; load the ones the
    # panel calls now, so that no import lands inside a timed solve
    for sub in ("solver", "evaluate", "sceneio"):
        importlib.import_module(f"{name}.{sub}")
    return module


def solve_scenes(package, scenes, config):
    """Seconds to solve ``scenes`` back to back, and the solve states."""
    start = time.perf_counter()
    states = [package.solve(s.observations, s.frames, config) for s in scenes]
    return time.perf_counter() - start, states


def traced_peak(package, scene, config):
    """Bytes of the ``tracemalloc`` peak of one solve of ``scene``."""
    tracemalloc.start()
    try:
        package.solve(scene.observations, scene.frames, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def endpoint_frames(scene, ranks):
    """The frames at the first and the last ``ranks`` capture ranks."""
    order = scene.truth_order
    return (order < ranks) | (order >= order.size - ranks)


def scene_record(package, scene, state, config, workdir, endpoint_ranks):
    """One solve's result hash, accuracy, warm-up passes, ``converged`` and
    coupled-stage cap, and its (P, F) point errors."""
    import numpy as np

    path = Path(workdir) / "result.json"
    package.sceneio.save_result(path, state, config)
    report = package.evaluate(
        state.structure, scene.truth, state.weights, scene.truth_order
    )
    errors = report.per_point_errors
    record = {
        "result_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "median_error_mm": report.median_error,
        "acc30": report.accuracy_at[30],
        "top2": report.top2_neighbor_frequency,
        "warmup": sum(
            int(flag.removeprefix("warmup-"))
            for flag in state.flags
            if flag.startswith("warmup-")
        ),
        "converged": bool(state.converged),
        "coupled_at_cap": "stage0-outer-cap" in state.flags,
    }
    ends = endpoint_frames(scene, endpoint_ranks)
    record["median_error_mm_endpoint"] = float(np.median(errors[:, ends]))
    present = scene.observations.present
    for slots, chosen in (("observed", errors[present]), ("missing", errors[~present])):
        empty = chosen.size == 0
        record[f"median_error_mm_{slots}"] = None if empty else float(np.median(chosen))
        record[f"acc30_{slots}"] = None if empty else float(np.mean(chosen < 30.0))
    return record, errors


def tally(pairs, higher_better):
    """Wins, losses and ties of head against base, and the median difference."""
    diffs = [head - base for base, head in pairs if None not in (base, head)]
    signs = diffs if higher_better else [-d for d in diffs]
    return (
        sum(d > 0 for d in signs),
        sum(d < 0 for d in signs),
        sum(d == 0 for d in signs),
        statistics.median(diffs) if diffs else None,
    )


def timing_summary(pairs):
    """Paired statistics of (base seconds, head seconds) pairs.

    Returns a dict with each side's median and quartiles, the head's wins,
    losses and ties (a win is a faster head), and the median paired change
    head / base - 1.
    """
    out = {"pairs": len(pairs)}
    for i, side in enumerate(SIDES):
        times = [pair[i] for pair in pairs]
        q1, median, q3 = (
            statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        )
        out[side] = {"median": median, "q1": q1, "q3": q3}
    out["wins"] = sum(head < base for base, head in pairs)
    out["losses"] = sum(head > base for base, head in pairs)
    out["ties"] = len(pairs) - out["wins"] - out["losses"]
    out["median_change"] = statistics.median(
        head / base - 1.0 for base, head in pairs
    )
    return out


def run_workload(packages, bench, problems, name, seeds, reps, workdir):
    """Every (seed, rep) pair of one workload: the scene rows, each seed's
    pooled run metrics, the timed pairs and each side's traced peak."""
    import numpy as np

    workload = bench.WORKLOADS[name]
    configs = {
        side: package.SolverConfig(**workload.config)
        for side, package in packages.items()
    }
    scenes = {seed: bench.make_scenes(workload, seed) for seed in seeds}
    # one untimed solve per side, so the one-time costs of a first solve in
    # the process fall on no pair
    for side in SIDES:
        solve_scenes(packages[side], scenes[seeds[0]][:1], configs[side])
    rows, runs, pairs = [], [], []
    for rep in range(reps):
        for j, seed in enumerate(seeds):
            order = SIDES if (j + rep) % 2 == 0 else SIDES[::-1]
            solved = {
                side: solve_scenes(packages[side], scenes[seed], configs[side])
                for side in order
            }
            pairs.append(
                {"workload": name, "seed": seed, "rep": rep, "first": order[0]}
                | {side: solved[side][0] for side in SIDES}
            )
            print(
                f"ran {name} seed {seed} rep {rep} ({order[0]} first): base "
                f"{solved['base'][0]:.3f} s head {solved['head'][0]:.3f} s",
                file=sys.stderr,
            )
            got = {
                side: [
                    scene_record(
                        packages[side], scene, state, configs[side], workdir,
                        bench.ENDPOINT_RANKS,
                    )
                    for scene, state in zip(scenes[seed], solved[side][1])
                ]
                for side in SIDES
            }
            if rep > 0:
                for row in (r for r in rows if r["seed"] == seed):
                    for side in SIDES:
                        digest = got[side][row["scene"]][0]["result_sha256"]
                        if digest != row[side]["result_sha256"]:
                            row[side]["problems"].append(
                                f"rep {rep}: result bytes differ from the first solve"
                            )
                continue
            run = {"workload": name, "seed": seed}
            for side in SIDES:
                package, config = packages[side], configs[side]
                endpoint = []
                for scene, state, (record, errors) in zip(
                    scenes[seed], solved[side][1], got[side]
                ):
                    allowed = package.support_mask(
                        package.frame_video_ids(scene.frames),
                        exclude_same_video=config.same_video_exclusion,
                    ).allowed
                    record["problems"] = problems(
                        state, allowed, record["acc30"], workload.acc30_floor
                    )
                    ends = endpoint_frames(scene, bench.ENDPOINT_RANKS)
                    endpoint.append(errors[:, ends].ravel())
                run[side] = {
                    "endpoint_error_mm": float(np.median(np.concatenate(endpoint))),
                    "converged_frac": sum(r["converged"] for r, _ in got[side])
                    / len(got[side]),
                }
            runs.append(run)
            rows += [
                {"workload": name, "seed": seed, "scene": i}
                | {side: got[side][i][0] for side in SIDES}
                for i in range(len(scenes[seed]))
            ]
    peaks = {
        side: traced_peak(packages[side], scenes[seeds[0]][0], configs[side])
        for side in SIDES
    }
    return rows, runs, pairs, peaks


def run_sweeps(packages, synth, names, workdir, endpoint_ranks):
    """c08's sweep points, both sides on the same scenes; each point's
    pooled acc30, median error, converged solves and summed warm-up passes."""
    import numpy as np

    motion = synth.procedural_motion(16, 48, seed=1)
    points = []
    for k, (sweep, value) in enumerate(
        (name, v) for name in names for v in SWEEPS[name][1]
    ):
        field, _, seeds, fields = SWEEPS[sweep]
        scenes = [
            synth.generate(
                motion, synth.RigSpec(camera_count=4),
                synth.CorruptionSpec(seed=seed, **{field: value}),
            )
            for seed in seeds
        ]
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        point = {"sweep": sweep, "value": value, "first": order[0]}
        for side in order:
            package = packages[side]
            config = package.SolverConfig(**fields)
            _, states = solve_scenes(package, scenes, config)
            records = [
                scene_record(package, scene, state, config, workdir, endpoint_ranks)
                for scene, state in zip(scenes, states)
            ]
            pooled = np.concatenate([errors.ravel() for _, errors in records])
            point[side] = {
                "acc30": float(np.mean(pooled < 30.0)),
                "median_error_mm": float(np.median(pooled)),
                "converged": sum(r["converged"] for r, _ in records),
                "solves": len(records),
                "warmup": sum(r["warmup"] for r, _ in records),
            }
        points.append(point)
        print(f"ran sweep {sweep} {value:g} ({order[0]} first)", file=sys.stderr)
    return points


def summary(rows, runs, timing):
    """Printed lines: per workload, equal bytes, each metric's tally, the
    timing and the traced peaks."""
    out = []
    for workload in timing:
        scenes = [r for r in rows if r["workload"] == workload]
        ran = [r for r in runs if r["workload"] == workload]
        differ = [
            r for r in scenes
            if r["base"]["result_sha256"] != r["head"]["result_sha256"]
        ]
        failed = {
            side: sum(bool(r[side]["problems"]) for r in scenes) for side in SIDES
        }
        out.append(
            f"{workload}: {len(scenes) - len(differ)} of {len(scenes)} scenes "
            f"with equal result bytes; failed scenes base {failed['base']}, "
            f"head {failed['head']}"
        )
        out += [f"  differs: seed {r['seed']} scene {r['scene']}" for r in differ]
        for source, metrics in ((scenes, SCENE_METRICS), (ran, RUN_METRICS)):
            for name, higher in metrics.items():
                pairs = [(r["base"][name], r["head"][name]) for r in source]
                wins, losses, ties, median = tally(pairs, higher)
                shown = "n/a" if median is None else f"{median:+.4g}"
                out.append(
                    f"  {name}: {wins} better, {losses} worse, {ties} equal; "
                    f"median head - base {shown}"
                )
        t = timing[workload]
        out.append(
            "  solve seconds per pair: "
            + "; ".join(
                f"{side} median {t[side]['median']:.3f} (q1 {t[side]['q1']:.3f}, "
                f"q3 {t[side]['q3']:.3f})"
                for side in SIDES
            )
            + f"; head wins {t['wins']} of {t['pairs']} (losses {t['losses']}, "
            f"ties {t['ties']}); median paired change "
            f"{100.0 * t['median_change']:+.1f}%"
        )
        peak = t["traced_peak_bytes"]
        out.append(
            f"  traced peak of seed {scenes[0]['seed']} scene 0: base "
            f"{peak['base'] / 1e6:.3f} MB head {peak['head'] / 1e6:.3f} MB "
            f"({100.0 * (peak['head'] / peak['base'] - 1.0):+.1f}%)"
        )
    return out


def sweep_summary(points):
    """Printed lines: each sweep point's acc30, median error and warm-up
    passes, side by side."""
    out = []
    for point in points:
        base, head = point["base"], point["head"]
        out.append(
            f"{point['sweep']} {point['value']:g}: acc30 base "
            f"{base['acc30']:.4f} head {head['acc30']:.4f} "
            f"({head['acc30'] - base['acc30']:+.4f}); median_error_mm base "
            f"{base['median_error_mm']:.4g} head {head['median_error_mm']:.4g}; "
            f"warm-up passes base {base['warmup']} head {head['warmup']}; "
            f"converged base {base['converged']}/{base['solves']} head "
            f"{head['converged']}/{head['solves']}"
        )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="default: every perfbench workload")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--sweeps", nargs="*", choices=list(SWEEPS),
                        default=list(SWEEPS))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("ACCURACY.json"))
    args = parser.parse_args(argv)
    if args.reps < 1 or not args.seeds:
        parser.error("--reps must be at least 1 and --seeds name a seed")
    # BLAS threads are pinned before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    sys.path[:0] = [str(sides["head"] / "perfbench"), str(sides["head"] / "src")]
    import bench
    import gate
    from unsync3d import synth

    workloads = list(bench.WORKLOADS) if args.workloads is None else args.workloads
    unknown = sorted(set(workloads) - set(bench.WORKLOADS))
    if unknown:
        parser.error(
            f"unknown workloads {unknown}; choose from {sorted(bench.WORKLOADS)}"
        )
    packages = {
        side: load_package(root, f"panel_{side}") for side, root in sides.items()
    }
    rows, runs, timing, timed = [], [], {}, []
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads:
            got = run_workload(
                packages, bench, gate.problems, name, args.seeds, args.reps, workdir
            )
            rows += got[0]
            runs += got[1]
            timed += got[2]
            timing[name] = timing_summary([(p["base"], p["head"]) for p in got[2]])
            timing[name]["traced_peak_bytes"] = got[3]
        points = run_sweeps(
            packages, synth, args.sweeps, workdir, bench.ENDPOINT_RANKS
        )
    args.out.write_text(
        json.dumps(
            {"base": str(sides["base"]), "head": str(sides["head"]),
             "rows": rows, "runs": runs, "pairs": timed, "timing": timing,
             "sweeps": points},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    for line in summary(rows, runs, timing) + sweep_summary(points):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
