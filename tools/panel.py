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
ties and the median paired difference (head minus base).  It only reads
perfbench; it gives a verdict and gates nothing.
"""

import argparse
import json
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
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", type=Path, default=Path("ACCURACY.json"))
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
    args.out.write_text(
        json.dumps(
            {"base": str(sides["base"]), "head": str(sides["head"]),
             "rows": rows, "runs": runs},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    for line in summary(rows, runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
