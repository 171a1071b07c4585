"""Correctness gate applied to every solve the benchmark times."""

import numpy as np

# same relative slack as the package's biconvex-descent acceptance check (c03)
TRACE_SLACK = 1e-9
SUM_TOL = 1e-9


def problems(state, allowed, acc30, acc30_floor):
    """Reasons a solve result is wrong; an empty list means it passes.

    ``allowed`` is the F x F support mask the solver codes over and
    ``acc30`` the scene's share of point errors under 30 mm.
    """
    out = []
    X = np.asarray(state.structure, dtype=float)
    W = np.asarray(state.weights, dtype=float)
    if not np.isfinite(X).all():
        out.append("structure has non-finite entries")
    if W.shape != allowed.shape:
        out.append(f"weights shape {W.shape} != mask shape {allowed.shape}")
    elif not np.isfinite(W).all():
        out.append("weights have non-finite entries")
    else:
        if (W < 0).any():
            out.append(f"negative weight {W.min():.3g}")
        sums = W.sum(axis=0)
        if np.abs(sums - 1.0).max() > SUM_TOL:
            out.append(f"weight column sum off by {np.abs(sums - 1.0).max():.3g}")
        if (W[~allowed] != 0).any():
            out.append("weight outside the support mask")
    t = np.asarray(state.objective_trace, dtype=float)
    if t.size == 0 or not np.isfinite(t).all():
        out.append("objective trace empty or non-finite")
    elif not (np.diff(t) <= TRACE_SLACK * (1 + np.abs(t[:-1]))).all():
        out.append("objective trace increases")
    if not acc30 >= acc30_floor:
        out.append(f"acc30 {acc30:.4f} below floor {acc30_floor}")
    return out
