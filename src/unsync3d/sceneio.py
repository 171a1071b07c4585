"""Structured-text (JSON) file formats for scenes, configs, results, reports.

All writers emit compact JSON with sorted keys and a trailing newline, so a
given in-memory document always maps to identical bytes.  Missing entries
are explicit ``null``; infinities (the hard-constraint lambda3, singular
system conditions) are encoded as ``null`` or the string ``"inf"`` as noted
per format, never as bare JSON Infinity.

Formats (all carry ``format`` and ``version`` fields):

- scene:    cameras (rotation row-major, center, intrinsics row-major,
            video_id, frame_in_video; listed in global-index order) and
            observations as a P x F array of [x, y] (two finite numbers)
            or null.
- truth:    points as P x F x [x, y, z], time_rank (capture-time rank per
            global frame index), hz, and the per-time-sample camera
            assignment.
- config:   SolverConfig fields verbatim; lambda3 null means infinity.
- weights:  dense F x F coefficient matrix.
- result:   structure (P x F x [x, y, z]), depths (P x F, null where
            undefined), weights, objective_trace, flags, scale_factor,
            counters, converged, and the config used.
- report:   accuracy_at (threshold -> fraction), median_error,
            top2_sum_mean, top2_neighbor_frequency, counters, and
            per_point_errors.
- analysis: per-point condition/residual diagnostics ("inf" for singular).
"""

import json
import math

import numpy as np

from .errors import InputError
from .evaluate import THRESHOLDS, EvalReport
from .geometry import (
    CameraFrame,
    ObservationSet,
    structure_from_points,
    structure_to_points,
)
from .solver import SolverConfig

__all__ = [
    "save_scene",
    "load_scene",
    "save_truth",
    "load_truth",
    "save_config",
    "load_config",
    "save_weights",
    "load_weights",
    "save_result",
    "load_result",
    "save_report",
    "load_report",
    "save_analysis",
    "load_analysis",
]

_VERSION = 1


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
        fh.write("\n")


def _load(path, expected):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != expected:
        raise InputError(
            f"{path} is not a {expected} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    return doc


def save_scene(path, frames, obs):
    cameras = [None] * len(frames)
    for frame in frames:
        cameras[frame.global_index] = {
            "rotation": np.asarray(frame.rotation, float).ravel().tolist(),
            "center": np.asarray(frame.center, float).tolist(),
            "intrinsics": np.asarray(frame.intrinsics, float).ravel().tolist(),
            "video_id": int(frame.video_id),
            "frame_in_video": int(frame.frame_in_video),
        }
    observations = [
        [
            [float(x), float(y)] if obs.present[p, f] else None
            for f, (x, y) in enumerate(obs.measures[p])
        ]
        for p in range(obs.point_count)
    ]
    _dump(
        path,
        {
            "format": "unsync3d-scene",
            "version": _VERSION,
            "cameras": cameras,
            "observations": observations,
        },
    )


_NUMBER = (int, float)
# what a malformed document raises while it is decoded: a missing key, a
# wrong type or shape, or a number past the float or int64 range
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _camera_index(cam, key, g):
    value = int(cam[key])
    if not -(2**63) <= value < 2**63:
        raise InputError(f"camera {g}: {key} is outside the int64 range")
    return value


def _observation_error(p, f, entry):
    return InputError(
        f"observation of point {p} in frame {f} must be null or two finite "
        f"numbers, got {entry!r}"
    )


def load_scene(path):
    doc = _load(path, "unsync3d-scene")
    try:
        frames = [
            CameraFrame(
                rotation=np.array(cam["rotation"], float).reshape(3, 3),
                center=np.array(cam["center"], float),
                intrinsics=np.array(cam["intrinsics"], float).reshape(3, 3),
                video_id=_camera_index(cam, "video_id", g),
                frame_in_video=_camera_index(cam, "frame_in_video", g),
                global_index=g,
            )
            for g, cam in enumerate(doc["cameras"])
        ]
        raw = doc["observations"]
        P, F = len(raw), len(frames)
        present, values = [], []
        for p, row in enumerate(raw):
            if len(row) != F:
                raise InputError(
                    f"observation row {p} has {len(row)} frames, expected {F}"
                )
            for f, entry in enumerate(row):
                if entry is None:
                    continue
                # exactly two numbers: a shorter list would broadcast, and a
                # NaN would pass for a missing entry, which is null
                if (
                    type(entry) is not list
                    or len(entry) != 2
                    or type(entry[0]) not in _NUMBER
                    or type(entry[1]) not in _NUMBER
                ):
                    raise _observation_error(p, f, entry)
                present.append(p * F + f)
                values.append(entry)
        values = np.array(values, dtype=float).reshape(-1, 2)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            p, f = divmod(present[bad[0]], F)
            raise _observation_error(p, f, raw[p][f])
        measures = np.full((P * F, 2), np.nan)
        measures[present] = values
        measures = measures.reshape(P, F, 2)
    except _MALFORMED as exc:
        raise InputError(f"malformed scene file {path}: {exc}") from exc
    return frames, ObservationSet(measures=measures)


def save_truth(path, truth, truth_order, hz, assignment=None):
    truth = np.asarray(truth, dtype=float)
    points = structure_to_points(truth, truth.shape[0] // 3).tolist()
    _dump(
        path,
        {
            "format": "unsync3d-truth",
            "version": _VERSION,
            "points": points,
            "time_rank": np.asarray(truth_order, dtype=int).tolist(),
            "hz": float(hz),
            "assignment": None
            if assignment is None
            else np.asarray(assignment, dtype=int).tolist(),
        },
    )


def load_truth(path):
    doc = _load(path, "unsync3d-truth")
    try:
        truth = structure_from_points(doc["points"])
        order = np.array(doc["time_rank"], dtype=int)
        hz = float(doc["hz"])
        assignment = (
            None
            if doc.get("assignment") is None
            else np.array(doc["assignment"], dtype=int)
        )
    except _MALFORMED as exc:
        raise InputError(f"malformed truth file {path}: {exc}") from exc
    if not np.isfinite(truth).all():
        raise InputError(f"malformed truth file {path}: points must be finite")
    return truth, order, hz, assignment


_CONFIG_FIELDS = tuple(SolverConfig.__dataclass_fields__)


def _encode_config(config):
    # SolverConfig fields verbatim, with the infinite lambda3 as null
    doc = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    if math.isinf(doc["lambda3"]):
        doc["lambda3"] = None
    return doc


def _decode_config(doc, path):
    unknown = set(doc) - set(_CONFIG_FIELDS)
    if unknown:
        raise InputError(f"unknown config fields in {path}: {sorted(unknown)}")
    kwargs = dict(doc)
    if "lambda3" in kwargs and kwargs["lambda3"] is None:
        kwargs["lambda3"] = math.inf
    config = SolverConfig(**kwargs)
    config.validate()
    return config


def save_config(path, config):
    doc = {"format": "unsync3d-config", "version": _VERSION}
    doc.update(_encode_config(config))
    _dump(path, doc)


def load_config(path):
    doc = _load(path, "unsync3d-config")
    doc.pop("format")
    doc.pop("version", None)
    return _decode_config(doc, path)


def save_weights(path, weights):
    _dump(
        path,
        {
            "format": "unsync3d-weights",
            "version": _VERSION,
            "weights": np.asarray(weights, dtype=float).tolist(),
        },
    )


def load_weights(path):
    doc = _load(path, "unsync3d-weights")
    try:
        W = np.array(doc["weights"], dtype=float)
    except _MALFORMED as exc:
        raise InputError(f"malformed weights file {path}: {exc}") from exc
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError(f"weights must be square, got {W.shape}")
    if not np.isfinite(W).all():
        raise InputError(f"malformed weights file {path}: weights must be finite")
    return W


def save_result(path, state, config=None):
    structure = np.asarray(state.structure, dtype=float)
    points = structure_to_points(structure, structure.shape[0] // 3)
    depths = np.asarray(state.depths, dtype=float)
    doc = {
        "format": "unsync3d-result",
        "version": _VERSION,
        "structure": points.tolist(),
        "depths": [
            [None if not np.isfinite(d) else float(d) for d in row]
            for row in depths
        ],
        "weights": np.asarray(state.weights, dtype=float).tolist(),
        "objective_trace": [float(v) for v in state.objective_trace],
        "flags": list(state.flags),
        "scale_factor": float(state.scale_factor),
        "counters": {
            "outer_iterations": int(state.outer_iterations),
            "admm_iterations": int(state.admm_iterations),
        },
        "converged": bool(state.converged),
        "config": None if config is None else _encode_config(config),
    }
    _dump(path, doc)


def load_result(path):
    doc = _load(path, "unsync3d-result")
    try:
        structure = structure_from_points(doc["structure"])
        depths = np.array(
            [
                [np.nan if d is None else float(d) for d in row]
                for row in doc["depths"]
            ],
            dtype=float,
        )
        out = {
            "structure": structure,
            "depths": depths,
            "weights": np.array(doc["weights"], dtype=float),
            "objective_trace": [float(v) for v in doc["objective_trace"]],
            "flags": list(doc["flags"]),
            "scale_factor": float(doc["scale_factor"]),
            "counters": dict(doc["counters"]),
            "converged": bool(doc["converged"]),
            "config": doc.get("config"),
        }
    except _MALFORMED as exc:
        raise InputError(f"malformed result file {path}: {exc}") from exc
    # save_result writes finite structure and weights and integer counters
    for key in ("structure", "weights"):
        if not np.isfinite(out[key]).all():
            raise InputError(f"malformed result file {path}: {key} must be finite")
    if not all(type(v) is int for v in out["counters"].values()):
        raise InputError(f"malformed result file {path}: counters must be integers")
    return out


def save_report(path, report):
    _dump(
        path,
        {
            "format": "unsync3d-report",
            "version": _VERSION,
            "accuracy_at": {
                str(t): float(report.accuracy_at[t]) for t in THRESHOLDS
            },
            "median_error": float(report.median_error),
            "top2_sum_mean": float(report.top2_sum_mean),
            "top2_neighbor_frequency": float(report.top2_neighbor_frequency),
            "counters": report.counters,
            "per_point_errors": np.asarray(
                report.per_point_errors, dtype=float
            ).tolist(),
        },
    )


def load_report(path):
    doc = _load(path, "unsync3d-report")
    try:
        report = EvalReport(
            per_point_errors=np.array(doc["per_point_errors"], dtype=float),
            accuracy_at={int(k): float(v) for k, v in doc["accuracy_at"].items()},
            median_error=float(doc["median_error"]),
            top2_sum_mean=float(doc["top2_sum_mean"]),
            top2_neighbor_frequency=float(doc["top2_neighbor_frequency"]),
            counters=dict(doc["counters"]),
        )
    except _MALFORMED as exc:
        raise InputError(f"malformed report file {path}: {exc}") from exc
    # the accuracy table reads every threshold
    accuracy = report.accuracy_at
    bad = [t for t in THRESHOLDS if not math.isfinite(accuracy.get(t, math.nan))]
    if bad:
        raise InputError(
            f"malformed report file {path}: accuracy_at needs a finite value "
            f"at thresholds {bad}"
        )
    return report


def _encode_scalar(value):
    if value is None:
        return None
    value = float(value)
    return "inf" if math.isinf(value) else value


def save_analysis(path, per_point, flags=()):
    """Write per-point reconstructability diagnostics.

    ``per_point`` is a list of ReconstructabilityReport.  Infinite
    conditions and bounds are written as the string "inf".
    """
    rows = [
        {
            "system_condition": _encode_scalar(r.system_condition),
            "error_bound": _encode_scalar(r.error_bound),
            "l_norm": None
            if r.error_vector is None
            else float(np.linalg.norm(r.error_vector)),
            "b_norm": None
            if r.b_vector is None
            else float(np.linalg.norm(r.b_vector)),
            "residual_per_point": _encode_scalar(r.residual_per_point),
            "least_norm": bool(r.least_norm),
        }
        for r in per_point
    ]
    conditions = [r.system_condition for r in per_point]
    mean_cond = (
        math.inf
        if any(math.isinf(c) for c in conditions)
        else float(np.mean(conditions))
    )
    residuals = [
        r.residual_per_point for r in per_point if r.residual_per_point is not None
    ]
    _dump(
        path,
        {
            "format": "unsync3d-analysis",
            "version": _VERSION,
            "per_point": rows,
            "mean_condition": _encode_scalar(mean_cond),
            "max_condition": _encode_scalar(max(conditions)),
            "mean_residual": None
            if not residuals
            else float(np.mean(residuals)),
            "flags": list(flags),
        },
    )


def _decode_scalar(value):
    if value is None:
        return None
    if value == "inf":
        return math.inf
    return float(value)


def load_analysis(path):
    doc = _load(path, "unsync3d-analysis")
    try:
        for row in doc["per_point"]:
            row["system_condition"] = _decode_scalar(row["system_condition"])
            row["error_bound"] = _decode_scalar(row["error_bound"])
        doc["mean_condition"] = _decode_scalar(doc["mean_condition"])
        doc["max_condition"] = _decode_scalar(doc["max_condition"])
    except _MALFORMED as exc:
        raise InputError(f"malformed analysis file {path}: {exc}") from exc
    return doc
