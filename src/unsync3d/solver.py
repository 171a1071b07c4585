"""Alternating biconvex solver for self-expressive structure recovery.

The unknowns are the structure matrix X (3P x F) and the weight matrix W
(F x F, masked simplex columns).  The cost is

    (1/FP) ||X - X W||_F^2  +  lambda1 * psi1(W)  +  lambda2 * psi2(X)
                            [ +  lambda3 * sum ||(I - r r^T)(X - C)||^2 ]

with psi1 = (1/F) ||W - W^T||_F^2 penalizing asymmetric dependence,
psi2 the mean squared displacement between consecutive frames of the same
video, and the bracketed soft-ray term active only for finite lambda3.  With
lambda3 infinite each observed point is pinned to its viewing ray,
X = C + d r, and the free variables are the depths d (plus fully free 3D
points where observations are missing).  The structure update treats both
cases alike: each frame of a point is an offset plus a basis block, the ray
(offset C, basis r) for a pinned observation and the identity otherwise.

Both block updates are exact descent steps, so the objective trace is
non-increasing across X-steps and W-steps.  The W update runs ADMM with a
closed-form auxiliary step; the X update solves small per-point linear
systems.  One loop alternates them in every phase of a solve: a decoupled
warm-up (exact coding, then X refits) pulls the depth initialization into
the self-expressive basin; a coupled stage, then one with lambda2 = 0, let
the smoothness prior guide early passes without biasing the result.
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import InfeasibleError, InputError
from .geometry import (
    assemble_structure,
    compute_rays,
    frame_centers,
    frame_video_ids,
    structure_to_points,
    validate_frames,
)
from .simplex import (
    minimize_on_simplex,
    project_to_masked_simplex,
    self_express,
    support_mask,
    validate_mask,
)

__all__ = [
    "SolverConfig",
    "SolveState",
    "video_pairs",
    "smoothness_operator",
    "psi1",
    "psi2",
    "soft_ray_cost",
    "objective",
    "coupling_matrix",
    "minimize_structure",
    "x_step",
    "admm_w_step",
    "pair_distance_matrix",
    "initialize_depths",
    "normalize_scale",
    "solve",
]


@dataclass
class SolverConfig:
    """Weights, tolerances and switches for the alternating solver.

    lambda3 is the soft-ray weight; ``math.inf`` (the default) keeps points
    exactly on their viewing rays, while a finite value (100 is the usual
    choice for noisy pixels) lets them move off the rays.
    """

    lambda1: float = 0.05
    lambda2: float = 0.1
    lambda3: float = math.inf
    rho: float = 1.0
    outer_max: int = 100
    outer_rel_tol: float = 1e-6
    admm_abs_tol: float = 1e-5
    admm_rel_tol: float = 1e-4
    admm_max_iter: int = 500
    consensus_tol: float = 1e-4
    same_video_exclusion: bool = True
    second_stage: bool = True

    def validate(self):
        # field types first (Python counts a bool as an int, so numeric
        # fields refuse bools), then finiteness within the float range: only
        # lambda3 may be inf, the hard ray constraint
        for spec in fields(self):
            value = getattr(self, spec.name)
            kind = {float: numbers.Real, int: numbers.Integral}.get(spec.type, bool)
            is_bool = isinstance(value, bool)
            if is_bool != (spec.type is bool) or not isinstance(value, kind):
                raise InputError(
                    f"{spec.name} must be a {spec.type.__name__}, got {value!r}"
                )
            # NaN, +-inf and ints past the float range all fail this test
            bad = kind is numbers.Real and not abs(value) <= sys.float_info.max
            if bad and not (spec.name == "lambda3" and value == math.inf):
                raise InputError(f"{spec.name} must be finite, got {value!r}")
        for name in ("lambda1", "lambda2"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative")
        if not self.lambda3 > 0:
            raise InputError("lambda3 must be positive (inf = hard constraint)")
        if not self.rho > 0:
            raise InputError("rho must be positive")
        for name in (
            "outer_rel_tol",
            "admm_abs_tol",
            "admm_rel_tol",
            "consensus_tol",
        ):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        if self.outer_max < 1 or self.admm_max_iter < 1:
            raise InputError("iteration caps must be at least 1")


@dataclass
class SolveState:
    """Result of a solver run, and the state its alternation loop works on."""

    structure: np.ndarray
    depths: np.ndarray
    weights: np.ndarray = None
    dual: np.ndarray = None
    auxiliary: np.ndarray = None
    objective_trace: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    scale_factor: float = 1.0
    outer_iterations: int = 0
    admm_iterations: int = 0
    admm_cap_hits: int = 0
    converged: bool = False


def video_pairs(frames):
    """Global-index pairs of temporally consecutive frames within each video.

    Returns an (M, 2) int array; M = sum over videos of (frames - 1).
    """
    keys = np.array(
        [(f.global_index, f.frame_in_video, f.video_id) for f in frames], dtype=int
    ).reshape(-1, 3)
    # by video, then position in the video (global index breaks ties)
    seq = keys[np.lexsort(keys.T)]
    same = seq[:-1, 2] == seq[1:, 2]
    return np.column_stack([seq[:-1, 0][same], seq[1:, 0][same]])


def smoothness_operator(frames):
    """F x M difference operator T with columns e_a - e_b per video pair."""
    pairs = video_pairs(frames)
    F = len(frames)
    T = np.zeros((F, pairs.shape[0]))
    for m, (a, b) in enumerate(pairs):
        T[a, m] = 1.0
        T[b, m] = -1.0
    return T


def psi1(weights):
    """Asymmetry penalty (1/F) ||W - W^T||_F^2."""
    W = np.asarray(weights, dtype=float)
    return float(np.sum((W - W.T) ** 2)) / W.shape[0]


def psi2(structure, frames):
    """Mean squared shape displacement between consecutive same-video frames.

    Defined as 0 (with a warning) when every video has a single frame.
    """
    pairs = video_pairs(frames)
    if pairs.shape[0] == 0:
        warnings.warn("psi2 undefined with single-frame videos; returning 0")
        return 0.0
    X = np.asarray(structure, dtype=float)
    diffs = X[:, pairs[:, 0]] - X[:, pairs[:, 1]]
    return float(np.sum(diffs**2)) / pairs.shape[0]


def soft_ray_cost(structure, rays):
    """Sum of squared point-to-ray distances over present observations."""
    P, F = rays.present.shape
    points = structure_to_points(structure, P)
    rel = points - rays.centers[None, :, :]
    along = np.einsum("pfa,pfa->pf", rel, rays.directions)
    sq = np.einsum("pfa,pfa->pf", rel, rel) - along**2
    return float(np.clip(sq[rays.present], 0.0, None).sum())


def objective(structure, weights, config, frames, rays=None):
    """Full cost and its separate terms.

    Returns (total, terms) where terms has keys ``self_expression``,
    ``psi1``, ``psi2`` and ``soft_ray``.  The soft-ray term is only computed
    (and requires ``rays``) when lambda3 is finite.
    """
    X = np.asarray(structure, dtype=float)
    W = np.asarray(weights, dtype=float)
    F = X.shape[1]
    P = X.shape[0] // 3
    terms = {
        "self_expression": float(np.sum((X - X @ W) ** 2)) / (F * P),
        "psi1": psi1(W),
        "psi2": psi2(X, frames),
        "soft_ray": 0.0,
    }
    total = (
        terms["self_expression"]
        + config.lambda1 * terms["psi1"]
        + config.lambda2 * terms["psi2"]
    )
    if math.isfinite(config.lambda3):
        if rays is None:
            raise InputError("finite lambda3 requires the ray field")
        terms["soft_ray"] = soft_ray_cost(X, rays)
        total += config.lambda3 * terms["soft_ray"]
    return total, terms


def _smoothness_laplacian(pairs, F):
    # T T^T of the smoothness operator, summed pair by pair in O(M): +1 on
    # both diagonal entries and -1 on both off-diagonal entries of a pair
    L = np.zeros((F, F))
    a, b = pairs[:, 0], pairs[:, 1]
    np.add.at(L, (a, a), 1.0)
    np.add.at(L, (b, b), 1.0)
    np.add.at(L, (a, b), -1.0)
    np.add.at(L, (b, a), -1.0)
    return L


def coupling_matrix(weights, config, frames, point_count):
    """F x F coupling Mc so the structure cost is sum_p tr(X_p Mc X_p^T).

    Mc = (1/FP) (I - W)(I - W)^T + (lambda2 / M) T T^T, with the smoothness
    part dropped when lambda2 = 0 or no video has consecutive frames.  T T^T
    is the video pairs' graph Laplacian, built from the pairs directly.
    """
    W = np.asarray(weights, dtype=float)
    F = W.shape[0]
    Q = np.eye(F) - W
    Mc = (Q @ Q.T) / (F * point_count)
    if config.lambda2 > 0:
        pairs = video_pairs(frames)
        if pairs.shape[0] > 0:
            L = _smoothness_laplacian(pairs, F)
            Mc = Mc + (config.lambda2 / pairs.shape[0]) * L
    return Mc


def _solve_regularized(H, rhs, flags, label):
    # direct solve with a trace-scaled ridge retry on singular systems
    n = H.shape[0]
    scale = float(np.trace(H)) / n
    try:
        sol = np.linalg.solve(H, rhs)
        resid = np.linalg.norm(H @ sol - rhs)
        if np.isfinite(sol).all() and resid <= 1e-8 * (
            1.0 + np.linalg.norm(rhs) + abs(scale) * np.linalg.norm(sol)
        ):
            return sol
    except np.linalg.LinAlgError:
        pass
    eps = 1e-10 * max(abs(scale), 1e-300)
    flags.append(f"ridge:{label}")
    try:
        return np.linalg.solve(H + eps * np.eye(n), rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H + eps * np.eye(n), rhs, rcond=None)[0]


def minimize_structure(coupling, rays, lambda3=math.inf, flags=None):
    """Exactly minimize sum_p tr(X_p Mc X_p^T) (+ soft-ray term) per point.

    Every frame f of a point gets a basis block E_f and an offset o_f with
    x_f = o_f + E_f z_f.  With infinite lambda3 an observed frame is pinned
    to its ray (E_f = r_f, o_f = C_f, z_f the depth); every other frame is
    a free 3D point (E_f = I, o_f = 0).  With own_i the frame of basis
    column e_i, the quadratic in z has Hessian entries Mc[own_i, own_j]
    e_i . e_j and right-hand side -e_i . (Mc o)[own_i]; a finite lambda3
    adds the ray penalty lambda3 (I - r r^T) to the diagonal block of each
    observed frame and lambda3 (I - r r^T) C_f to the right-hand side.
    Each point solves one symmetric linear system.

    Returns (structure, depths) with depths (x_f - C_f) . r_f on observed
    frames; ``flags`` collects ridge warnings.
    """
    if flags is None:
        flags = []
    Mc = np.asarray(coupling, dtype=float)
    P, F = rays.present.shape
    hard = math.isinf(lambda3)
    centers = rays.centers
    structure = np.empty((3 * P, F))
    depths = np.full((P, F), np.nan)
    frame_of = np.repeat(np.arange(F), 3)
    free_basis = np.tile(np.eye(3), (F, 1, 1))

    for p in range(P):
        pres = rays.present[p]
        dirs = rays.directions[p]
        on_ray = pres if hard else np.zeros(F, dtype=bool)
        # rows of basis[f] span frame f; an on-ray frame keeps only row 0
        basis = free_basis.copy()
        basis[on_ray, 0] = dirs[on_ray]
        keep = np.ones((F, 3), dtype=bool)
        keep[on_ray, 1:] = False
        keep = keep.ravel()
        E = basis.reshape(3 * F, 3)[keep]
        own = frame_of[keep]
        offset = np.where(on_ray[:, None], centers, 0.0)

        # a fully pinned point has own = identity: skip the F x F gather
        M = Mc if on_ray.all() else Mc[np.ix_(own, own)]
        H = M * (E @ E.T)
        rhs = -np.einsum("ia,ia->i", E, (Mc @ offset)[own])
        if not hard:
            obs = np.flatnonzero(pres)
            r = dirs[obs]
            proj = lambda3 * (np.eye(3) - r[:, :, None] * r[:, None, :])
            cols = (np.cumsum(keep) - 1).reshape(F, 3)[obs]
            H[cols[:, :, None], cols[:, None, :]] += proj
            rhs[cols] += np.einsum("fab,fb->fa", proj, centers[obs])
        sol = _solve_regularized(H, rhs, flags, f"point-{p}")

        coeff = np.zeros(3 * F)
        coeff[keep] = sol
        Xp = offset + np.einsum("fka,fk->fa", basis, coeff.reshape(F, 3))
        structure[3 * p : 3 * p + 3, :] = Xp.T
        depths[p, pres] = np.einsum(
            "fa,fa->f", Xp[pres] - centers[pres], dirs[pres]
        )
    return structure, depths


def x_step(structure, weights, config, rays, frames, flags=None):
    """One exact structure update for fixed weights.

    Returns (structure, depths, flags).  Minimizes the objective over the
    free structure variables; the resulting objective never exceeds the
    previous one.
    """
    if flags is None:
        flags = []
    P = rays.present.shape[0]
    Mc = coupling_matrix(weights, config, frames, P)
    new_structure, depths = minimize_structure(
        Mc, rays, lambda3=config.lambda3, flags=flags
    )
    return new_structure, depths, flags


def admm_w_step(structure, mask, config, weights=None, auxiliary=None, dual=None):
    """ADMM update of the weight matrix for fixed structure.

    Splits the masked-simplex data term (carried by W) from the asymmetry
    penalty (carried by the auxiliary Z) under the consensus W = Z.  Step 1
    solves one masked simplex QP per column, step 2 has the closed form

        Z = sym(B)/rho + skew(B)/(8 lambda1 / F + rho),   B = Y + rho W,

    and step 3 is the dual ascent Y += rho (W - Z).  On the first call
    (weights None) W and Z start from the decoupled per-column coding
    (``self_express``) and Y = 0; later calls hot-start from the previous
    triplet.

    Step 1 runs projected gradient on all columns at once: the proximal
    Hessian (1/FP) G + (rho/2) I is dominated by its rho I part, so the
    iteration contracts fast.  The columns whose KKT gap stays above
    tolerance afterwards are polished together, warm started from the
    iterate, by one ``minimize_on_simplex`` call on that Hessian (the exact
    active set; as the inner solver for every column it is much slower,
    since the iterate's supports are dense).  G = X^T X has rank at most
    3P, so when 3P is small next to F each gradient step takes the data
    term in factored form, (2/FP) X^T (X W), at O(P F^2) instead of the
    O(F^3) G W, and the step length uses G's largest eigenvalue, read from
    the smaller of X X^T (3P x 3P) and G.

    Returns (weights, auxiliary, dual, info).  The returned weights are the
    best feasible iterate by the coupled objective (never worse than the
    start), while Z and Y always carry the last iterate so the next hot
    start resumes the ADMM sequence.  info holds iteration count and a
    convergence flag; hitting the cap returns the best iterate with
    converged False.
    """
    X = np.asarray(structure, dtype=float)
    F = X.shape[1]
    P = X.shape[0] // 3
    validate_mask(mask, min_allowed=1)
    G = X.T @ X
    inv_fp = 1.0 / (F * P)
    rho = config.rho
    alpha = config.lambda1 / F
    allowed = mask.allowed
    A2 = 2.0 * inv_fp * G
    lam_max = float(np.linalg.eigvalsh(X @ X.T if X.shape[0] < F else G)[-1])
    # X^T (X W) costs 6 P F^2 flops against F^3 for G W; measured on one
    # core it wins once 3P is under about F / 4 (from F = 96 up; below that
    # both take a few microseconds)
    factored = 12 * P < F

    def data_gradient(Wc):
        return (2.0 * inv_fp) * (X.T @ (X @ Wc)) if factored else A2 @ Wc

    if weights is None:
        W = self_express(X, mask)
        Z = W.copy()
        Y = np.zeros((F, F))
    else:
        W = np.array(weights, dtype=float, copy=True)
        Z = np.array(auxiliary, dtype=float, copy=True)
        Y = np.array(dual, dtype=float, copy=True)

    def coupled(Wc):
        return inv_fp * float(np.sum((X - X @ Wc) ** 2)) + config.lambda1 * psi1(Wc)

    best_W = W.copy()
    best_val = coupled(W)
    converged = False
    iterations = 0
    L = 2.0 * inv_fp * lam_max + rho
    for _ in range(config.admm_max_iter):
        iterations += 1
        const = Y - rho * Z - A2
        for _ in range(500):
            grad = data_gradient(W) + rho * W + const
            W_new = project_to_masked_simplex(W - grad / L, allowed)
            delta = np.abs(W_new - W).max()
            W = W_new
            if delta <= 1e-13:
                break
        grad = data_gradient(W) + rho * W + const
        mu = np.where(allowed, grad, np.inf).min(axis=0)
        viol = np.where(W > 1e-12, grad - mu[None, :], 0.0).max(axis=0)
        tol = 1e-9 * (1.0 + np.abs(np.where(allowed, grad, 0.0)).max(axis=0))
        polish = np.flatnonzero(viol > tol)
        if polish.size:
            W[:, polish] = minimize_on_simplex(
                inv_fp * G + (rho / 2.0) * np.eye(F),
                -A2[:, polish] + Y[:, polish] - rho * Z[:, polish],
                w0=W[:, polish],
                allowed=allowed[:, polish],
            )
        B = Y + rho * W
        Z_new = 0.5 * ((B + B.T) / rho + (B - B.T) / (8.0 * alpha + rho))
        Y += rho * (W - Z_new)
        r_pri = np.linalg.norm(W - Z_new)
        s_dual = rho * np.linalg.norm(Z_new - Z)
        Z = Z_new

        val = coupled(W)
        if val < best_val:
            best_val = val
            best_W = W.copy()

        eps_pri = F * config.admm_abs_tol + config.admm_rel_tol * max(
            np.linalg.norm(W), np.linalg.norm(Z)
        )
        eps_dual = F * config.admm_abs_tol + config.admm_rel_tol * np.linalg.norm(Y)
        if (
            r_pri <= eps_pri
            and s_dual <= eps_dual
            and np.abs(W - Z).max() <= config.consensus_tol
        ):
            converged = True
            break
    return best_W, Z, Y, {"iterations": iterations, "converged": converged}


def pair_distance_matrix(rays, video_ids):
    """Symmetric F x F matrix of mean two-ray triangulation costs.

    Entry (f, j) is the mean over shared points of the squared closest-point
    distance between the two viewing rays, minimized in closed form over both
    depths.  Same-video pairs, pairs with no shared point, near-parallel ray
    pairs and pairs whose minimizing depth is negative are all infinite.

    Each row f is solved for all its later partners j at once, by the
    closed form of ``_pair_depths`` over the (point, partner) grid.
    """
    ids = np.asarray(video_ids)
    present = rays.present
    dirs = rays.directions
    F = present.shape[1]
    D = np.full((F, F), np.inf)
    for f in range(F - 1):
        js = f + 1 + np.flatnonzero(ids[f + 1 :] != ids[f])
        if js.size == 0:
            continue
        shared = present[:, f, None] & present[:, js]
        a = dirs[:, f]
        b = dirs[:, js]
        u = rays.centers[f] - rays.centers[js]
        c = np.einsum("pa,pja->pj", a, b)
        au = a @ u.T
        bu = np.einsum("pja,ja->pj", b, u)
        # absent points carry NaN directions; shared masks them out
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = 1.0 - c**2
            tf = (-au + c * bu) / denom
            tj = (bu - c * au) / denom
            resid = u + tf[:, :, None] * a[:, None, :] - tj[:, :, None] * b
            sq = np.where(shared, np.einsum("pja,pja->pj", resid, resid), 0.0)
            cost = sq.sum(axis=0) / shared.sum(axis=0)
            bad = shared & ((denom < 1e-12) | (tf < -1e-12) | (tj < -1e-12))
        ok = shared.any(axis=0) & ~bad.any(axis=0)
        D[f, js[ok]] = cost[ok]
        D[js[ok], f] = cost[ok]
    return D


def _pair_depths(rays, f, j):
    # closed-form closest points between the ray bundles of frames f and j;
    # returns (shared point rows, depths along f, depths along j) or None
    # when the pair is unusable
    shared = rays.present[:, f] & rays.present[:, j]
    if not shared.any():
        return None
    a = rays.directions[shared, f]
    b = rays.directions[shared, j]
    u = rays.centers[f] - rays.centers[j]
    c = np.einsum("na,na->n", a, b)
    denom = 1.0 - c**2
    if (denom < 1e-12).any():
        return None
    au = a @ u
    bu = b @ u
    tf = (-au + c * bu) / denom
    tj = (bu - c * au) / denom
    if (tf < -1e-12).any() or (tj < -1e-12).any():
        return None
    return np.flatnonzero(shared), tf, tj


def initialize_depths(rays, frames):
    """Bootstrap depths by pairing each frame with its best cross-video mate.

    For every frame f the partner j minimizing the mean two-ray
    triangulation cost is selected (ties to the smallest j) and the
    closed-form depths of that pairing are assigned.  Points present in f
    but not shared with the partner get the median of the assigned depths;
    frames with no usable partner fall back to unit depth and are flagged.

    Returns (depths, flags).
    """
    validate_frames(frames)
    ids = frame_video_ids(frames)
    P, F = rays.present.shape
    D = pair_distance_matrix(rays, ids)
    depths = np.full((P, F), np.nan)
    flags = []
    for f in range(F):
        row = D[f]
        pres_f = rays.present[:, f]
        if not pres_f.any():
            continue
        if not np.isfinite(row).any():
            depths[pres_f, f] = 1.0
            flags.append(f"init-unit-depth-frame-{f}")
            continue
        j = int(np.argmin(row))
        rows, tf, _ = _pair_depths(rays, f, j)
        depths[rows, f] = tf
        rest = pres_f.copy()
        rest[rows] = False
        if rest.any():
            depths[rest, f] = float(np.median(tf))
    return depths, flags


def normalize_scale(frames):
    """Rescale camera centers so the mean inter-camera distance is 1.

    Distances are measured between per-video mean centers (between frame
    centers for a single video).  Returns (scaled frames, factor) with
    factor the multiplier applied to every center; divide solver outputs by
    it to return to input units.
    """
    validate_frames(frames)
    centers = frame_centers(frames)
    ids = frame_video_ids(frames)
    uniq = np.unique(ids)
    if uniq.size >= 2:
        reps = np.stack([centers[ids == v].mean(axis=0) for v in uniq])
    else:
        reps = centers
    n = reps.shape[0]
    if n < 2:
        raise InputError("scale normalization needs at least 2 camera centers")
    iu = np.triu_indices(n, k=1)
    dists = np.linalg.norm(reps[iu[0]] - reps[iu[1]], axis=1)
    mean_dist = float(dists.mean())
    spread = float(np.abs(reps - reps.mean(axis=0)).max())
    if mean_dist <= 1e-12 * max(1.0, spread) or mean_dist == 0.0:
        raise InputError("camera centers coincide; scale undefined")
    factor = 1.0 / mean_dist
    scaled = [
        replace(frame, center=frame.center * factor, rotation=frame.rotation.copy())
        for frame in frames
    ]
    return scaled, factor


def _fill_missing(structure, present, frames):
    # seed missing entries by interpolating the point's observed positions
    # along each video's own frame order (capture times inside one video are
    # monotone even though cross-video timing is unknown); points missing
    # from a whole video fall back to their global mean position
    P = present.shape[0]
    X = structure.copy()
    ids = frame_video_ids(frames)
    pos = np.array([frame.frame_in_video for frame in frames])
    for p in range(P):
        if present[p].all():
            continue
        block = X[3 * p : 3 * p + 3]
        fallback = block[:, present[p]].mean(axis=1)
        for v in np.unique(ids):
            cols = np.flatnonzero(ids == v)
            cols = cols[np.argsort(pos[cols])]
            have = present[p, cols]
            fill = cols[~have]
            if fill.size == 0:
                continue
            if not have.any():
                block[:, fill] = fallback[:, None]
                continue
            t = pos[cols]
            for a in range(3):
                block[a, fill] = np.interp(
                    pos[fill], t[have], block[a, cols[have]]
                )
    return X


def _code_step(state, cfg, mask):
    # warm-up W-step: the exact coder, warm started from the last code
    state.weights = self_express(state.structure, mask, warm_start=state.weights)


def _admm_step(state, cfg, mask):
    # coupled W-step: cold until there is an auxiliary, then hot started
    W = None if state.auxiliary is None else state.weights
    state.weights, state.auxiliary, state.dual, info = admm_w_step(
        state.structure, mask, cfg, W, state.auxiliary, state.dual
    )
    state.admm_iterations += info["iterations"]
    state.admm_cap_hits += not info["converged"]


def _alternate(state, cfg, problem, w_step, stop_term=None, code_first=False):
    """Alternate exact X-steps with ``w_step`` on ``state``; (passes, settled).

    A pass runs ``w_step`` before the X-step when ``code_first``, else after
    it.  The loop settles once |prev - cur| <= outer_rel_tol |cur| between
    passes for the objective term ``stop_term``, or for the total if None
    (then traced at entry and after every half-step), else stops at
    ``outer_max`` passes.
    """
    rays, frames, mask = problem

    def measure():
        total, terms = objective(state.structure, state.weights, cfg, frames, rays)
        if stop_term:
            return terms[stop_term]
        state.objective_trace.append(total)
        return total

    prev = math.inf if code_first else measure()
    for passes in range(1, cfg.outer_max + 1):
        if code_first:
            w_step(state, cfg, mask)
        state.structure, state.depths, state.flags = x_step(
            state.structure, state.weights, cfg, rays, frames, state.flags
        )
        if not code_first:
            measure()
            w_step(state, cfg, mask)
        cur = measure()
        if abs(prev - cur) <= cfg.outer_rel_tol * abs(cur):
            return passes, True
        prev = cur
    return cfg.outer_max, False


def _coupled_stage(state, index, cfg, problem):
    # X-step, then ADMM W-step; the last stage decides ``converged``
    passes, state.converged = _alternate(state, cfg, problem, _admm_step)
    state.outer_iterations += passes
    if not state.converged:
        state.flags.append(f"stage{index}-outer-cap")


def solve(obs, frames, config=None):
    """Reconstruct structure and weights from unsynchronized observations.

    After depth initialization one alternation loop runs every phase on one
    ``SolveState``: the decoupled warm-up (exact coding, then a penalty-free
    X refit, stopping on the self-expression term), a cold bootstrap W-step,
    then the coupled stage (exact X-step, then ADMM W-step, stopping on the
    traced objective).  Each loop stops once its stop quantity changes by at
    most ``outer_rel_tol`` (relative) in a pass, or at ``outer_max`` passes.
    With ``second_stage`` the coupled stage repeats with lambda2 = 0, warm
    started; the trace stays non-increasing across the switch.  ``flags``
    records ``warmup-N``, ``stageK-outer-cap`` and ``admm-cap-hit-Nx``.
    Outputs are in input units; ``scale_factor`` scaled the camera centers.
    """
    if config is None:
        config = SolverConfig()
    config.validate()
    validate_frames(frames)
    F = len(frames)
    if obs.frame_count != F:
        raise InputError(
            f"observations have {obs.frame_count} frames, frame list has {F}"
        )
    if F < 3:
        raise InputError(f"need at least 3 frames, got {F}")
    if obs.point_count == 0:
        raise InputError("scene has no points")
    unobserved = np.flatnonzero(~obs.present.any(axis=1))
    if unobserved.size:
        raise InputError(f"points {unobserved.tolist()[:8]} have no observations")
    ids = frame_video_ids(frames)
    if config.same_video_exclusion and np.unique(ids).size < 2:
        raise InfeasibleError(
            "same-video exclusion with a single video leaves every support "
            "column empty"
        )
    mask = support_mask(ids, exclude_same_video=config.same_video_exclusion)
    validate_mask(mask, min_allowed=2)

    scaled_frames, factor = normalize_scale(frames)
    rays = compute_rays(scaled_frames, obs)
    depths, flags = initialize_depths(rays, scaled_frames)
    structure = assemble_structure(depths, rays)
    structure = _fill_missing(structure, rays.present, scaled_frames)
    state = SolveState(structure, depths, flags=flags, scale_factor=factor)
    problem = (rays, scaled_frames, mask)

    # The depth initialization spreads the coded weights, and the coupled
    # loop keeps that spread as a fixed point; the decoupled warm-up
    # contracts both blocks toward the self-expressive solution instead.
    flat_cfg = replace(config, lambda2=0.0)
    passes, _ = _alternate(
        state, flat_cfg, problem, _code_step, "self_expression", code_first=True
    )
    state.flags.append(f"warmup-{passes}")
    # cold, not warm started from the warm-up's code: the coding QP can tie
    _admm_step(state, config, mask)
    _coupled_stage(state, 0, config, problem)
    if config.second_stage and config.lambda2 > 0:
        _coupled_stage(state, 1, flat_cfg, problem)
    if state.admm_cap_hits:
        state.flags.append(f"admm-cap-hit-{state.admm_cap_hits}x")
    state.structure = state.structure / factor
    state.depths = state.depths / factor
    return state
