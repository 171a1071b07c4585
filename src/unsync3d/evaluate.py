"""Reconstruction metrics: threshold accuracy and temporal-order recovery.

Errors are Euclidean point distances between estimate and ground truth in
the input units (millimeters for the bundled synthetic motion).  Accuracy is
reported at the fixed thresholds 10, 20, 30, 40, 50 and 100.  The weight
matrix is scored by how much mass its two largest column entries carry and
how often they sit exactly on the true temporal neighbors.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["THRESHOLDS", "EvalReport", "evaluate", "emit_tables"]

THRESHOLDS = (10, 20, 30, 40, 50, 100)


@dataclass
class EvalReport:
    """Evaluation of one reconstructed scene."""

    per_point_errors: np.ndarray
    accuracy_at: dict
    median_error: float
    top2_sum_mean: float
    top2_neighbor_frequency: float
    counters: dict = field(default_factory=dict)


def _check_order(truth_order, F):
    order = np.asarray(truth_order, dtype=int)
    if order.shape != (F,) or not np.array_equal(np.sort(order), np.arange(F)):
        raise InputError("truth_order must be a permutation of 0..F-1")
    return order


def evaluate(estimate, truth, weights, truth_order, counters=None):
    """Score a reconstruction against ground truth.

    Parameters
    ----------
    estimate, truth : (3P, F) arrays
        Reconstructed and true structure matrices in the same units.
    weights : (F, F) array
        Coefficient matrix; column ties break toward the smaller index.
    truth_order : (F,) int array
        Capture-time rank of each global frame index.
    counters : dict, optional
        Deterministic run statistics copied into the report.

    Returns
    -------
    EvalReport
    """
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.shape[0] % 3 != 0:
        raise InputError(
            f"estimate {est.shape} and truth {tru.shape} must match with 3P rows"
        )
    P = est.shape[0] // 3
    F = est.shape[1]
    # the error statistics need a point, the neighbour score a second frame
    if P == 0 or F < 2:
        raise InputError(f"need at least 1 point and 2 frames, got {P} and {F}")
    W = np.asarray(weights, dtype=float)
    if W.shape != (F, F):
        raise InputError(f"weights shape {W.shape} does not match F={F}")
    if not np.isfinite(W).all():
        raise InputError("weights must be finite")
    order = _check_order(truth_order, F)

    with np.errstate(over="ignore", invalid="ignore"):
        diff = (est - tru).reshape(P, 3, F)
        errors = np.sqrt(np.einsum("paf,paf->pf", diff, diff))
    if not np.isfinite(errors).all():
        raise InputError("point errors are not finite: estimate or truth out of range")
    accuracy = {t: float(np.mean(errors < t)) for t in THRESHOLDS}

    # frame at each time rank, for neighbor lookup
    frame_of_rank = np.empty(F, dtype=int)
    frame_of_rank[order] = np.arange(F)

    sums = np.empty(F)
    hits = np.empty(F, dtype=bool)
    for f in range(F):
        col = W[:, f]
        top = np.argsort(-col, kind="stable")[:2]
        sums[f] = col[top].sum()
        rank = order[f]
        if rank == 0:
            hits[f] = top[0] == frame_of_rank[1]
        elif rank == F - 1:
            hits[f] = top[0] == frame_of_rank[F - 2]
        else:
            true_nbrs = {frame_of_rank[rank - 1], frame_of_rank[rank + 1]}
            hits[f] = set(top.tolist()) == true_nbrs

    return EvalReport(
        per_point_errors=errors,
        accuracy_at=accuracy,
        median_error=float(np.median(errors)),
        top2_sum_mean=float(sums.mean()),
        top2_neighbor_frequency=float(hits.mean()),
        counters=dict(counters or {}),
    )


def emit_tables(rows, axis_name, path):
    """Write one sweep axis as a CSV accuracy table.

    ``rows`` is a list of (axis value, EvalReport).  Threshold columns come
    in the fixed order 10, 20, 30, 40, 50, 100; a final ``pooled`` row
    aggregates every per-point error of the sweep.  Output bytes are
    deterministic for identical inputs.
    """
    if not rows:
        raise InputError("emit_tables needs at least one report")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis_name] + [str(t) for t in THRESHOLDS])
        for value, report in rows:
            writer.writerow(
                [_fmt_value(value)]
                + [f"{report.accuracy_at[t]:.6f}" for t in THRESHOLDS]
            )
        pooled = np.concatenate(
            [report.per_point_errors.ravel() for _, report in rows]
        )
        writer.writerow(
            ["pooled"] + [f"{float(np.mean(pooled < t)):.6f}" for t in THRESHOLDS]
        )
    return path


def _fmt_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)
