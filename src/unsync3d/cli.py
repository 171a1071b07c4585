"""Command-line front end.

Subcommands cover the full experiment cycle: ``simulate`` writes synthetic
scenes, ``solve`` reconstructs, ``analyze`` reports reconstructability
conditioning, ``baseline`` reconstructs with a fixed filter-derived weight
pattern, ``eval`` scores a result against ground truth, and ``report``
merges evaluation reports into a CSV accuracy table.

Exit codes: 0 success, 2 usage (argparse), 3 bad input data or files,
4 infeasible instance, 5 degenerate geometry, 1 anything unexpected.
Failures print a one-line JSON object {"category", "message"} to stderr.
The ``SEED`` environment variable, when set, overrides --seed for
``simulate``.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import sceneio
from .analysis import analyze_scene, filter_weights
from .errors import InputError, UnsyncError
from .evaluate import _check_order, emit_tables, evaluate
from .geometry import compute_rays, frame_video_ids, structure_to_points
from .simplex import self_express, support_mask
from .solver import SolveState, SolverConfig, minimize_structure, solve
from .synth import (
    CorruptionSpec,
    RigSpec,
    decimate,
    generate,
    load_mocap,
    procedural_motion,
)


# the solve flags: one --field-name option per numeric SolverConfig field
_NUMERIC_FIELDS = [spec for spec in fields(SolverConfig) if spec.type is not bool]
_FIELD_HELP = {
    "rho": "weight of the anchor term (rho/2) ||W - W0||^2 that ties the "
    "coupled weights to the warm-up's code W0 (default 0.02)",
}


def _fail(category, message):
    print(
        json.dumps({"category": category, "message": message}, sort_keys=True),
        file=sys.stderr,
    )


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except UnsyncError as exc:
        _fail(exc.category, str(exc))
        return exc.exit_code
    except OSError as exc:
        _fail("input", str(exc))
        return 3
    except Exception as exc:  # pragma: no cover - unexpected failures
        _fail("internal", f"{type(exc).__name__}: {exc}")
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unsync3d",
        description="Sparse dynamic 3D reconstruction from unsynchronized video",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scene")
    sim.add_argument(
        "--seed",
        type=int,
        required="SEED" not in os.environ,
        default=None,
        help="scene seed (required unless the SEED env variable is set)",
    )
    sim.add_argument("--points", type=int, default=5)
    sim.add_argument("--samples", type=int, default=80, help="time samples")
    sim.add_argument("--cameras", type=int, default=4)
    sim.add_argument("--hz", type=float, default=120.0)
    sim.add_argument("--focal", type=float, default=1000.0)
    sim.add_argument("--principal", type=float, default=500.0)
    sim.add_argument(
        "--mode", choices=("static", "handheld", "random"), default="static"
    )
    sim.add_argument("--jitter-sigma", type=float, default=0.0, help="mm")
    sim.add_argument("--distance-factor", type=float, default=2.0)
    sim.add_argument("--height-spread", type=float, default=0.1)
    sim.add_argument("--motion-scale", type=float, default=500.0, help="mm")
    sim.add_argument("--motion-seed", type=int, default=None)
    sim.add_argument("--harmonics", type=int, default=3)
    sim.add_argument("--mocap-file", default=None)
    sim.add_argument(
        "--rate-factor",
        type=float,
        default=1.0,
        help="keep every round(1/factor)-th sample",
    )
    sim.add_argument("--noise-sigma", type=float, default=0.0, help="pixels")
    sim.add_argument("--miss-rate", type=float, default=0.0)
    sim.add_argument(
        "--no-consecutive-exclusion",
        action="store_true",
        help="allow adjacent samples on the same camera",
    )
    sim.add_argument("--block-length", type=int, default=None)
    sim.add_argument("--scene-out", required=True)
    sim.add_argument("--truth-out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    sol = sub.add_parser("solve", help="reconstruct a scene")
    sol.add_argument("--scene", required=True)
    sol.add_argument("--out", required=True)
    sol.add_argument("--config", default=None, help="config file to start from")
    for spec in _NUMERIC_FIELDS:
        flag = "--" + spec.name.replace("_", "-")
        if spec.name == "lambda3":  # a string, so a bad value exits 3
            sol.add_argument(
                flag,
                help="positive float, or 'inf' (the default; on noisy pixels "
                "it matched 100 in accuracy and warm-up passes, in less time)",
            )
        else:
            sol.add_argument(flag, type=spec.type, help=_FIELD_HELP.get(spec.name))
    sol.add_argument(
        "--allow-same-video",
        action="store_true",
        help="keep same-video atoms in the support",
    )
    sol.add_argument(
        "--no-second-stage",
        action="store_true",
        help="run the coupled stage at lambda2 itself, not at min(lambda2, 1e-4)",
    )
    sol.add_argument("--xyz-out", default=None, help="point cloud text file")
    sol.set_defaults(func=_cmd_solve)

    ana = sub.add_parser("analyze", help="reconstructability analysis")
    ana.add_argument("--scene", required=True)
    ana.add_argument("--truth", default=None)
    ana.add_argument("--weights", default=None, help="weights file; default "
                     "is self-expression of the ground truth")
    ana.add_argument(
        "--mask",
        choices=("auto", "offdiag", "exclusion"),
        default="auto",
        help="support used when coding the truth (auto: exclusion iff >= 2 videos)",
    )
    ana.add_argument("--out", required=True)
    ana.set_defaults(func=_cmd_analyze)

    base = sub.add_parser("baseline", help="fixed filter-weight reconstruction")
    base.add_argument("--scene", required=True)
    base.add_argument("--truth", required=True, help="provides the capture order")
    base.add_argument("--taps", default="1,-1", help="comma-separated filter taps")
    base.add_argument("--out", required=True)
    base.set_defaults(func=_cmd_baseline)

    ev = sub.add_parser("eval", help="score a result against ground truth")
    ev.add_argument("--result", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    rep = sub.add_parser("report", help="merge eval reports into a CSV table")
    rep.add_argument("--axis", required=True, help="sweep axis column name")
    rep.add_argument("--out", required=True)
    rep.add_argument(
        "rows",
        nargs="+",
        metavar="VALUE=REPORT.json",
        help="axis value and report path pairs",
    )
    rep.set_defaults(func=_cmd_report)

    return parser


def _cmd_simulate(args):
    try:
        seed = int(os.environ.get("SEED", args.seed))
    except ValueError as exc:
        raise InputError(f"bad SEED value {os.environ['SEED']!r}") from exc
    if args.mocap_file is not None:
        motion = load_mocap(args.mocap_file)
    else:
        motion_seed = seed if args.motion_seed is None else args.motion_seed
        motion = procedural_motion(
            args.points,
            args.samples,
            hz=args.hz,
            seed=motion_seed,
            scale=args.motion_scale,
            harmonics=args.harmonics,
        )
    if args.rate_factor != 1.0:
        if not 0 < args.rate_factor <= 1:
            raise InputError("--rate-factor must be in (0, 1]")
        motion = decimate(motion, int(round(1.0 / args.rate_factor)))
    rig = RigSpec(
        camera_count=args.cameras,
        distance_factor=args.distance_factor,
        focal=args.focal,
        principal_point=args.principal,
        jitter_sigma=args.jitter_sigma,
        mode=args.mode,
        height_spread=args.height_spread,
    )
    corruption = CorruptionSpec(
        noise_sigma=args.noise_sigma,
        miss_rate=args.miss_rate,
        consecutive_exclusion=not args.no_consecutive_exclusion,
        seed=seed,
    )
    scene = generate(motion, rig, corruption, block_length=args.block_length)
    sceneio.save_scene(args.scene_out, scene.frames, scene.observations)
    if args.truth_out is not None:
        sceneio.save_truth(
            args.truth_out,
            scene.truth,
            scene.truth_order,
            scene.hz,
            assignment=scene.assignment,
        )
    F = len(scene.frames)
    P = scene.observations.point_count
    observed = int(scene.observations.present.sum())
    print(
        f"simulate: {P} points, {F} frames, {args.cameras} cameras, "
        f"{observed}/{P * F} observations -> {args.scene_out}"
    )
    return 0


def _config_from_args(args):
    config = (
        sceneio.load_config(args.config) if args.config else SolverConfig()
    )
    if args.allow_same_video:
        config.same_video_exclusion = False
    if args.no_second_stage:
        config.second_stage = False
    for spec in _NUMERIC_FIELDS:
        value = getattr(args, spec.name)
        if value is None:
            continue
        if spec.name == "lambda3":
            try:
                value = float(value)
            except ValueError as exc:
                raise InputError(f"bad --lambda3 value {value!r}") from exc
        setattr(config, spec.name, value)
    config.validate()
    return config


def _cmd_solve(args):
    frames, obs = sceneio.load_scene(args.scene)
    config = _config_from_args(args)
    start = time.perf_counter()
    state = solve(obs, frames, config)
    elapsed = time.perf_counter() - start
    sceneio.save_result(args.out, state, config)
    if args.xyz_out is not None:
        _write_xyz(args.xyz_out, state.structure)
    print(
        f"solve: objective {state.objective_trace[-1]:.6e} after "
        f"{state.outer_iterations} outer iterations "
        f"({'converged' if state.converged else 'cap hit'}) -> {args.out}"
    )
    print(f"solve: wall time {elapsed:.2f} s", file=sys.stderr)
    return 0


def _write_xyz(path, structure):
    P = structure.shape[0] // 3
    points = structure_to_points(structure, P)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame point x y z\n")
        for f in range(points.shape[1]):
            for p in range(P):
                x, y, z = points[p, f]
                fh.write(f"{f} {p} {x!r} {y!r} {z!r}\n")


def _cmd_analyze(args):
    frames, obs = sceneio.load_scene(args.scene)
    rays = compute_rays(frames, obs)
    truth = None
    if args.truth is not None:
        truth = sceneio.load_truth(args.truth)[0]
    if args.weights is not None:
        W = sceneio.load_weights(args.weights)
    elif truth is not None:
        ids = frame_video_ids(frames)
        if args.mask == "auto":
            exclude = np.unique(ids).size >= 2
        else:
            exclude = args.mask == "exclusion"
        W = self_express(truth, support_mask(ids, exclude_same_video=exclude))
    else:
        raise InputError("analyze needs --weights or --truth to obtain W")
    reports = analyze_scene(rays, W, truth)
    flags = [f"mask:{args.mask}", f"weights:{'file' if args.weights else 'truth'}"]
    sceneio.save_analysis(args.out, reports, flags)
    conditions = [r.system_condition for r in reports]
    worst = max(conditions)
    print(
        f"analyze: {len(reports)} points, max condition "
        f"{'inf' if math.isinf(worst) else format(worst, '.6e')} -> {args.out}"
    )
    return 0


def _cmd_baseline(args):
    frames, obs = sceneio.load_scene(args.scene)
    truth, order, _, _ = sceneio.load_truth(args.truth)
    try:
        taps = [float(v) for v in args.taps.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --taps value {args.taps!r}") from exc
    F = len(frames)
    order = _check_order(order, F)
    bank = filter_weights(taps, F)
    # apply the banded filter in capture order: row f of the global operator
    # is the time-domain row at f's rank
    G = bank.g_matrix[order, :]
    with np.errstate(over="ignore", invalid="ignore"):
        GGt = G @ G.T
    if not np.isfinite(GGt).all():
        raise InputError(f"filter taps {taps} overflow the filter operator")
    rays = compute_rays(frames, obs)
    flags = []
    structure, depths = minimize_structure(GGt, rays, flags=flags)
    P = structure.shape[0] // 3
    X3 = structure.reshape(P, 3, F)
    cost = float(np.einsum("paf,fg,pag->", X3, GGt, X3))

    weights = np.zeros((F, F))
    if bank.w_matrix is not None:
        frame_of_rank = np.empty(F, dtype=int)
        frame_of_rank[order] = np.arange(F)
        weights[np.ix_(frame_of_rank, frame_of_rank)] = bank.w_matrix

    state = SolveState(
        structure=structure,
        depths=depths,
        weights=weights,
        objective_trace=[cost],
        flags=["baseline"] + flags,
        scale_factor=1.0,
        outer_iterations=0,
        admm_iterations=0,
        converged=True,
    )
    sceneio.save_result(args.out, state)
    print(f"baseline: taps {taps} filter cost {cost:.6e} -> {args.out}")
    return 0


def _cmd_eval(args):
    result = sceneio.load_result(args.result)
    truth, order, _, _ = sceneio.load_truth(args.truth)
    counters = dict(result["counters"])
    counters["converged"] = result["converged"]
    report = evaluate(
        result["structure"], truth, result["weights"], order, counters=counters
    )
    sceneio.save_report(args.out, report)
    acc = " ".join(f"{t}:{v:.4f}" for t, v in sorted(report.accuracy_at.items()))
    print(f"eval: median {report.median_error:.4f} accuracy {acc} -> {args.out}")
    return 0


def _cmd_report(args):
    rows = []
    for item in args.rows:
        value, sep, path = item.partition("=")
        if not sep:
            raise InputError(
                f"report rows must look like VALUE=REPORT.json, got {item!r}"
            )
        try:
            parsed = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                parsed = value
        rows.append((parsed, sceneio.load_report(path)))
    emit_tables(rows, args.axis, args.out)
    print(f"report: {len(rows)} rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
