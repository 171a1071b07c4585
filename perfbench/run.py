"""Benchmark command: times unsync3d's set-up and solve on seeded scenes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long_f240 --seed 1 --seconds 60 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the traced
pass and prints every per-layer metric.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics BENCHMARK.json lists, with units).  Exit code 0 means every solve
passed the correctness gate, 1 that at least one failed, 2 a usage error or
a checkout without the package.  Scratch files go to ``.perfbench_work/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "unsync3d" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS threads are pinned before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = bench.run(
        bench.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT,
        ROOT / ".perfbench_work" / args.workload,
    )
    env = bench.environment(ROOT)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    for line in bench.report_lines(args, env, result):
        print(line)
    print(json.dumps(bench.contract_line(result, listed)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
