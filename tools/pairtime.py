"""Paired in-process timer: two checkouts' solves of the same seeded scenes.

Run from anywhere, with two checkouts of the repository:

    python3 tools/pairtime.py --base ../parent --head . \
        --workload long_f240 --seeds 1-4 --reps 6

It loads each checkout's ``unsync3d`` package side by side in one process,
under its own module name, and builds every seed's scenes with perfbench's
``bench.make_scenes`` (imported from the head checkout's ``perfbench/``).
One pair is one seed's scenes solved once by each side, with the
workload's ``SolverConfig``; the pairs run seeds in turn, ``--reps`` times,
and alternate which side goes first, so a slow spell of the host does not
fall on one side only.  Each side first solves one scene untimed.  BLAS
threads are pinned to 1, as perfbench pins them.

It prints each pair's seconds (the sum over the seed's scenes), whether
both sides returned the same structure and weights bytes, and then each
side's median and quartiles, the head's wins, losses and ties, and the
median paired change (head / base - 1).  It gives a verdict and gates
nothing; the benchmark's own paired runs decide a claim.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# the panel's seed ranges ("1-4,7"), shared by both tools
sys.path.insert(0, str(Path(__file__).resolve().parent))
from panel import parse_seeds  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("base", "head")


def summary(pairs):
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


def load_package(root, name):
    """Import ``root``'s src/unsync3d as the package ``name``; its solver."""
    src = Path(root).resolve() / "src" / "unsync3d"
    if not (src / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.solver")


def _solve_all(solver, scenes, config):
    # seconds to solve every scene, and the result bytes
    start = time.perf_counter()
    states = [solver.solve(s.observations, s.frames, config) for s in scenes]
    seconds = time.perf_counter() - start
    return seconds, [(s.structure.tobytes(), s.weights.tobytes()) for s in states]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args(argv)
    if args.reps < 1 or not args.seeds:
        parser.error("--reps must be at least 1 and --seeds name a seed")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    head = Path(args.head).resolve()
    sys.path[:0] = [str(head / "perfbench"), str(head / "src")]
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = bench.WORKLOADS[args.workload]
    solvers = {
        side: load_package(root, f"pairtime_{side}")
        for side, root in zip(SIDES, (args.base, args.head))
    }
    configs = {side: s.SolverConfig(**workload.config) for side, s in solvers.items()}
    scenes = {seed: bench.make_scenes(workload, seed) for seed in args.seeds}
    for side in SIDES:
        _solve_all(solvers[side], scenes[args.seeds[0]][:1], configs[side])

    pairs = []
    for rep in range(args.reps):
        for seed in args.seeds:
            order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
            runs = {
                side: _solve_all(solvers[side], scenes[seed], configs[side])
                for side in order
            }
            pair = (runs["base"][0], runs["head"][0])
            pairs.append(pair)
            same = "same" if runs["base"][1] == runs["head"][1] else "DIFFERENT"
            print(
                f"pair {len(pairs)} seed {seed} first={order[0]} "
                f"base {pair[0]:.3f} s head {pair[1]:.3f} s "
                f"change {100.0 * (pair[1] / pair[0] - 1.0):+.1f}% results {same}",
                flush=True,
            )
    stats = summary(pairs)
    for side in SIDES:
        s = stats[side]
        print(
            f"{side} median {s['median']:.3f} s "
            f"(q1 {s['q1']:.3f}, q3 {s['q3']:.3f})"
        )
    print(
        f"head wins {stats['wins']} of {stats['pairs']} pairs "
        f"(losses {stats['losses']}, ties {stats['ties']}); "
        f"median paired change {100.0 * stats['median_change']:+.1f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
