"""Reconstructability analysis: when does a capture setup pin down motion?

For a single moving point, perturbing its depth l_f in each frame f that
observes it, so that the self-expression residual stays the same, leads to
a linear system A l = b on those frames o:

    A = S o (R R^T),      b[f] = r_f^T (X* S)[:, f],      Q = I - W,

with R the point's rays on o, X* its true positions, and S the Schur
complement of Q Q^T over the frames that miss the point (S = Q Q^T when
every frame sees it).  A, the solver's hard-ray depth system for coupling
Q Q^T, is a Hadamard product of two positive semidefinite matrices, hence
PSD.  The magnitude of l and the conditioning of A say how strongly the
viewing geometry and the weight pattern constrain the reconstruction;
1/sigma_min(A) is reported as the system condition.

The filter view: fixing W to the pattern of a high-pass filter bank turns
the self-expression residual into a classic temporal-smoothness objective,
which is the baseline the solver is compared against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import RayField, structure_to_points
from .solver import _stack_plans

__all__ = [
    "ReconstructabilityReport",
    "ErrorSolution",
    "build_system",
    "error_vector",
    "system_condition",
    "residual",
    "FilterBank",
    "filter_weights",
    "analyze_point",
    "analyze_scene",
]


@dataclass
class ErrorSolution:
    """Solution of A l = b with norm, bound and conditioning diagnostics."""

    l: np.ndarray
    l_norm: float
    error_bound: float
    condition: float
    least_norm: bool


@dataclass
class ReconstructabilityReport:
    """Per-point analysis output; A, b and l run over the observed frames."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    error_vector: np.ndarray
    system_condition: float
    error_bound: float
    residual_per_point: float
    least_norm: bool


def build_system(ray_dirs, weights, ground_truth=None):
    """The analysis system (A, b) of one point seen in every frame.

    ``ray_dirs`` (F, 3) are its unit rays, ``weights`` the F x F W and
    ``ground_truth`` its (3, F) true positions; without them only A is
    formed and b comes back None (conditioning-only analysis).
    """
    R = np.asarray(ray_dirs, dtype=float)
    F = R.shape[0]
    if R.shape != (F, 3):
        raise InputError(f"ray_dirs must be (F, 3), got {R.shape}")
    if not np.isfinite(R).all():
        raise InputError("ray directions must be finite for every frame")
    rays = RayField(R[None], np.zeros((F, 3)), np.ones((1, F), dtype=bool))
    return _point_systems(rays, weights, ground_truth)[0]


def _point_systems(rays, weights, truth):
    # each point's (A, b) on its observed frames, from the X-step's stack
    # plans with coupling Q Q^T; b is None without the 3P x F truth
    P, F = rays.present.shape
    W = np.asarray(weights, dtype=float)
    if W.shape != (F, F):
        raise InputError(f"weights shape {W.shape} does not match F={F}")
    Q = np.eye(F) - W
    with np.errstate(over="ignore", invalid="ignore"):
        M = Q @ Q.T
    if not np.isfinite(M).all():
        raise InputError("weights must be finite and keep Q Q^T finite")
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (3 * P, F):
            raise InputError(f"ground truth shape {truth.shape} is not ({3 * P}, {F})")
        if not np.isfinite(truth).all():
            raise InputError("ground truth must be finite")
    systems = []
    for plan in _stack_plans(rays):
        Y = None
        if truth is not None:
            # a padding slot reads frame F - 1; S couples it to no observed slot
            frames = np.minimum(plan.frames, F - 1)[:, :, None]
            Y = structure_to_points(truth, P)[plan.part]
            Y = np.take_along_axis(Y, frames, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            A, b = plan.system(M if plan.full else plan.eliminate(M)[0], Y)
        if b is not None and not np.isfinite(b).all():
            raise InputError("ground truth and weights give a non-finite X S")
        systems += [
            (A[i, :n, :n], None if b is None else b[i, :n])
            for i, n in enumerate(plan.n_obs)
        ]
    return systems


def system_condition(a_matrix):
    """1/sigma_min(A), infinite past the 1e-12 relative singular cutoff."""
    A = np.asarray(a_matrix, dtype=float)
    if not np.isfinite(A).all():
        raise InputError("system matrix A must be finite")
    s = np.linalg.svd(A, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    if smax == 0.0 or smin < 1e-12 * smax:
        return math.inf
    return 1.0 / smin


def error_vector(a_matrix, b_vector):
    """Solve A l = b and report the bound diagnostics.

    Near-singular systems (relative sigma_min below 1e-12) fall back to the
    least-norm solution and are flagged; their condition and error bound are
    infinite (the bound degenerates to 0 * inf = 0 when b = 0, reported as 0).
    """
    A = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_vector, dtype=float)
    if not np.isfinite(b).all():
        raise InputError("right-hand side b must be finite")
    cond = system_condition(A)
    if math.isfinite(cond):
        l = np.linalg.solve(A, b)
        least_norm = False
    else:
        l = np.linalg.lstsq(A, b, rcond=None)[0]
        least_norm = True
    b_norm = float(np.linalg.norm(b))
    bound = cond * b_norm if b_norm > 0 else 0.0
    return ErrorSolution(
        l=l,
        l_norm=float(np.linalg.norm(l)),
        error_bound=bound,
        condition=cond,
        least_norm=least_norm,
    )


def residual(ground_truth, weights):
    """Self-expression residual per point, (1/PF) ||X (I - W)||_F."""
    X = np.asarray(ground_truth, dtype=float)
    W = np.asarray(weights, dtype=float)
    F = X.shape[1]
    if X.shape[0] % 3 != 0:
        raise InputError("ground truth must have 3P rows")
    P = X.shape[0] // 3
    Q = np.eye(F) - W
    return float(np.linalg.norm(X @ Q)) / (P * F)


@dataclass
class FilterBank:
    """Banded filter operator G and, for the two named taps, the W pattern."""

    taps: np.ndarray
    g_matrix: np.ndarray
    w_matrix: np.ndarray = None


def filter_weights(filter_taps, frame_count):
    """Banded high-pass operator for a tap list, plus W when one exists.

    The returned G is F x (F - M + 1); column c applies the reversed taps to
    frames c..c+M-1, so ||X G||^2 sums the filter response over all interior
    positions.  For taps [1, -1] the equivalent coefficient matrix has ones
    on the subdiagonal (boundary column zero); for [-1, 2, -1] the interior
    columns put 0.5 on each temporal neighbor.  Other taps return G only.
    """
    taps = np.asarray(filter_taps, dtype=float)
    M = taps.size
    if M < 2:
        raise InputError(f"need at least 2 filter taps, got {M}")
    if not np.isfinite(taps).all():
        raise InputError(f"filter taps must be finite, got {taps.tolist()}")
    F = int(frame_count)
    if F <= M:
        raise InputError(f"frame count {F} must exceed tap count {M}")
    G = np.zeros((F, F - M + 1))
    rev = taps[::-1]
    for c in range(F - M + 1):
        G[c : c + M, c] = rev
    W = None
    if np.array_equal(taps, [1.0, -1.0]):
        W = np.zeros((F, F))
        for i in range(F - 1):
            W[i + 1, i] = 1.0
    elif np.array_equal(taps, [-1.0, 2.0, -1.0]):
        W = np.zeros((F, F))
        for c in range(1, F - 1):
            W[c - 1, c] = 0.5
            W[c + 1, c] = 0.5
    return FilterBank(taps=taps, g_matrix=G, w_matrix=W)


def analyze_point(ray_dirs, weights, ground_truth_point=None):
    """Full reconstructability report for one point.

    Without ground truth the report carries the conditioning of A only
    (b, l, bound and residual come back None).
    """
    A, b = build_system(ray_dirs, weights, ground_truth_point)
    return _report(A, b, weights, ground_truth_point)


def _report(A, b, weights, truth):
    sol = None if b is None else error_vector(A, b)
    return ReconstructabilityReport(
        a_matrix=A,
        b_vector=b,
        error_vector=None if sol is None else sol.l,
        system_condition=system_condition(A) if sol is None else sol.condition,
        error_bound=None if sol is None else sol.error_bound,
        residual_per_point=None if sol is None else residual(truth, weights),
        least_norm=sol is not None and sol.least_norm,
    )


def analyze_scene(rays, weights, ground_truth=None):
    """Per-point reconstructability reports for a multi-point scene.

    The analysis contract is one point per shape, so a P-point scene is
    analyzed point by point against the shared weight matrix, each point on
    the frames that observe it.  Its unobserved frames are eliminated from
    Q Q^T as the X-step eliminates them (``solver._StackPlan``, its
    least-squares fallback included).  ``ground_truth`` is the 3P x F true
    structure.
    """
    if rays.present.shape[0] == 0:
        raise InputError("scene has no points")
    unseen = np.flatnonzero(~rays.present.any(axis=1))
    if unseen.size:
        raise InputError(f"points {unseen.tolist()[:8]} have no observations")
    X = None if ground_truth is None else np.asarray(ground_truth, dtype=float)
    return [
        _report(A, b, weights, None if X is None else X[3 * p : 3 * p + 3])
        for p, (A, b) in enumerate(_point_systems(rays, weights, X))
    ]
