"""Paired accuracy panel: the same seeded scenes solved by two checkouts.

Run from anywhere, with two checkouts of the repository:

    python3 tools/panel.py --base ../parent --head . --seeds 1-10 \
        --out ACCURACY.json

For every workload and seed it runs ``perfbench/run.py --workload W --seed S
--seconds 0`` in both checkouts, alternating which side runs first, so a
slow spell of the host does not fall on one side only.  It reads each
``scene`` line (median error, acc30, top-2 frequency and ``result_sha256``)
and the run's ``endpoint_error_mm`` and ``converged_frac`` metrics, writes
every pair to ``--out`` as JSON, and prints per workload the scenes whose
result bytes are equal and, for each metric, the change's wins, losses and
ties and the median paired difference (head minus base).

It then runs the two pooled sweeps of acceptance criterion c08 (pixel noise
0-5 px at lambda3 = 100 over seeds 1-5, missing rate 0-0.5 over seeds 1-8;
16 points, 48 frames, 4 cameras), one sweep point at a time in each
checkout, again alternating sides, and prints each point's pooled acc30,
median error and summed warm-up passes for base and head side by side.
``--sweeps`` picks the sweeps and ``--workloads`` the benchmark workloads;
either may be given empty.  It gives a verdict and gates nothing.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("long_f240", "miss30_hard", "soft_noise3px")
SIDES = ("base", "head")

SCENE_LINE = re.compile(
    r"^scene (?P<scene>\d+) corruption_seed=(?P<corruption_seed>\d+) "
    r"median_error=(?P<median_error_mm>\S+) mm acc30=(?P<acc30>\S+) "
    r"top2=(?P<top2>\S+) result_sha256=(?P<result_sha256>[0-9a-f]+)$"
)
METRIC_LINE = re.compile(r"^metric (?P<name>\w+) = (?P<value>\S+) ")
GATE_LINE = re.compile(r"^gate \w+: (?P<failed>\d+) of \d+ solves failed$")

# metric -> whether higher is better; scene metrics first, then run metrics
SCENE_METRICS = {"median_error_mm": False, "acc30": True, "top2": True}
RUN_METRICS = {"endpoint_error_mm": False, "converged_frac": True}

# c08's pooled sweeps, as tests/test_acceptance.py runs them: name ->
# (CorruptionSpec field, sweep values, seeds, SolverConfig fields)
SWEEPS = {
    "noise": ("noise_sigma", (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), range(1, 6),
              {"lambda3": 100.0}),
    "miss": ("miss_rate", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), range(1, 9), {}),
}
SWEEP_LINE = re.compile(
    r"^sweep (?P<sweep>\w+) value=(?P<value>\S+) acc30=(?P<acc30>\S+) "
    r"median_error_mm=(?P<median_error_mm>\S+) "
    r"converged=(?P<converged>\d+) solves=(?P<solves>\d+) "
    r"warmup=(?P<warmup>\d+)$"
)


def parse_run(text):
    """The scene rows, run metrics and failed solves of one perfbench run."""
    run = {"scenes": [], "failed": None}
    run.update(dict.fromkeys(RUN_METRICS))
    for line in text.splitlines():
        if m := SCENE_LINE.match(line):
            row = m.groupdict()
            for key in ("scene", "corruption_seed"):
                row[key] = int(row[key])
            for key in SCENE_METRICS:
                row[key] = float(row[key])
            run["scenes"].append(row)
        elif (m := METRIC_LINE.match(line)) and m["name"] in RUN_METRICS:
            run[m["name"]] = None if m["value"] == "n/a" else float(m["value"])
        elif m := GATE_LINE.match(line):
            run["failed"] = int(m["failed"])
    return run


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix) as a sorted list of seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def parse_sweep_point(text):
    """The pooled result of one sweep point, read from its ``sweep`` line."""
    for line in text.splitlines():
        if m := SWEEP_LINE.match(line):
            row = m.groupdict()
            for key in ("value", "acc30", "median_error_mm"):
                row[key] = float(row[key])
            for key in ("converged", "solves", "warmup"):
                row[key] = int(row[key])
            return row
    raise ValueError("no sweep line in the output")


def sweep_point(sweep, value):
    """Solve one c08 sweep point with the importable unsync3d; its line.

    The errors of every seed's scene are pooled, as c08 pools them, and the
    solves' warm-up passes (their ``warmup-N`` flags) are summed.
    """
    import numpy as np
    from unsync3d.evaluate import evaluate
    from unsync3d.solver import SolverConfig, solve
    from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion

    field, _, seeds, config = SWEEPS[sweep]
    motion = procedural_motion(16, 48, seed=1)
    errors, converged, warmup = [], 0, 0
    for seed in seeds:
        scene = generate(
            motion, RigSpec(camera_count=4),
            CorruptionSpec(seed=seed, **{field: value}),
        )
        state = solve(scene.observations, scene.frames, SolverConfig(**config))
        converged += state.converged
        warmup += sum(
            int(flag.removeprefix("warmup-"))
            for flag in state.flags
            if flag.startswith("warmup-")
        )
        report = evaluate(state.structure, scene.truth, state.weights,
                          scene.truth_order)
        errors.append(report.per_point_errors.ravel())
    pooled = np.concatenate(errors)
    return sweep_line(sweep, value, np.mean(pooled < 30.0), np.median(pooled),
                      converged, len(seeds), warmup)


def sweep_line(sweep, value, acc30, median_error_mm, converged, solves, warmup):
    return (
        f"sweep {sweep} value={value:g} acc30={acc30:.6f} "
        f"median_error_mm={median_error_mm:.6g} converged={converged} "
        f"solves={solves} warmup={warmup}"
    )


def run_sweep_point(checkout, sweep, value):
    # this file, run in the checkout on its own package, BLAS threads pinned
    # as perfbench pins them
    env = os.environ | {"PYTHONPATH": str(checkout / "src")}
    env |= dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--sweep-point", sweep,
         str(value)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"panel: {checkout}: sweep {sweep} {value} exited "
            f"{proc.returncode}\n{proc.stderr}"
        )
    return parse_sweep_point(proc.stdout)


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


def bench(checkout, workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    # exit 1 means a solve failed the gate: its row still counts
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"panel: {checkout}: perfbench {workload} seed {seed} exited "
            f"{proc.returncode}\n{proc.stderr}"
        )
    return parse_run(proc.stdout)


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


def summary(rows, runs):
    """Printed lines: per workload, equal bytes and each metric's tally."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        scenes = [r for r in rows if r["workload"] == workload]
        ran = [r for r in runs if r["workload"] == workload]
        differ = [
            r for r in scenes
            if r["base"]["result_sha256"] != r["head"]["result_sha256"]
        ]
        failed = {side: sum(r[side]["failed"] or 0 for r in ran) for side in SIDES}
        out.append(
            f"{workload}: {len(scenes) - len(differ)} of {len(scenes)} scenes "
            f"with equal result bytes; failed solves base {failed['base']}, "
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
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--sweeps", nargs="*", choices=list(SWEEPS),
                        default=list(SWEEPS))
    parser.add_argument("--out", type=Path, default=Path("ACCURACY.json"))
    if argv is None:
        argv = sys.argv[1:]
    # one sweep point in the checkout the panel started this in
    if argv[:1] == ["--sweep-point"]:
        print(sweep_point(argv[1], float(argv[2])))
        return 0
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    rows, runs = [], []
    for k, (workload, seed) in enumerate(
        (w, s) for w in args.workloads for s in args.seeds
    ):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        got = {side: bench(sides[side], workload, seed) for side in order}
        runs.append(
            {"workload": workload, "seed": seed, "first": order[0]}
            | {side: {key: got[side][key] for key in (*RUN_METRICS, "failed")}
               for side in SIDES}
        )
        for base, head in zip(got["base"]["scenes"], got["head"]["scenes"]):
            rows.append(
                {"workload": workload, "seed": seed, "scene": base["scene"],
                 "base": base, "head": head}
            )
        print(f"ran {workload} seed {seed} ({order[0]} first)", file=sys.stderr)
    points = []
    for k, (sweep, value) in enumerate(
        (name, v) for name in args.sweeps for v in SWEEPS[name][1]
    ):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        got = {side: run_sweep_point(sides[side], sweep, value) for side in order}
        points.append({"sweep": sweep, "value": value, "first": order[0]} | got)
        print(f"ran sweep {sweep} {value:g} ({order[0]} first)", file=sys.stderr)
    args.out.write_text(
        json.dumps(
            {"base": str(sides["base"]), "head": str(sides["head"]),
             "rows": rows, "runs": runs, "sweeps": points},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    for line in summary(rows, runs) + sweep_summary(points):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
