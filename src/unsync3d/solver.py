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
points where observations are missing).

Both block updates are exact descent steps, so the objective trace is
non-increasing across X-steps and W-steps.  The W update runs ADMM with a
closed-form auxiliary step.  Its per-column simplex QPs have a data term of
rank 3P: when 12 P < F and (3P)^2 <= 6F they are solved by semismooth
Newton on the 3P-dimensional dual variable X w, else by the projected-
gradient loop of ``simplex`` (whose projections then cost less than
Newton's F Jacobians), one product with a step map per step.  Both try
each projection on the previous support before sorting, and the exact
active-set engine finishes any column either leaves with an open KKT gap.
The X update eliminates each point's unobserved frames in closed form (a
Schur complement of the coupling) and solves what remains, one small linear
system per point on its observed frames, in bounded stacks.  Its geometry
(slot layout, gather and scatter indices, observed rays) is planned once per
ray field, and a solve builds its video pairs once, so each pass only
gathers the new coupling, solves and scatters.  One loop
alternates them in every phase of a solve: a decoupled warm-up (exact
coding, then X refits) pulls the depth initialization into the
self-expressive basin; a coupled stage, then one with lambda2 = 0, let the
smoothness prior guide early passes without biasing the result.
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InputError
from .geometry import (
    assemble_structure,
    compute_rays,
    frame_centers,
    frame_video_ids,
    structure_from_points,
    structure_to_points,
    validate_frames,
)
from .simplex import (
    _project_near,
    _projected_gradient,
    minimize_on_simplex,
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
    admm_max_iter: int = 500
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
        if not self.outer_rel_tol > 0:
            raise InputError("outer_rel_tol must be positive")
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


class _SolveFrames(tuple):
    """A frame list carrying its video pairs and their Laplacian T T^T.

    ``solve`` wraps its frames once, so ``psi2`` and ``coupling_matrix``,
    which run on every pass, do not rebuild them; they wrap any other
    frame list per call (``_with_pairs``).  The Laplacian is built on first
    use and kept as (flat indices, values) of its nonzero entries: an
    F x F copy would stay alive through every W-step.
    """

    def __new__(cls, frames):
        self = super().__new__(cls, frames)
        self.pairs = video_pairs(self)
        return self

    @cached_property
    def laplacian(self):
        L = _smoothness_laplacian(self.pairs, len(self))
        index = np.flatnonzero(L)
        return index, L.ravel()[index]


def _with_pairs(frames):
    return frames if isinstance(frames, _SolveFrames) else _SolveFrames(frames)


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
    pairs = _with_pairs(frames).pairs
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
    is the video pairs' graph Laplacian, built from the pairs directly and
    added on its nonzero entries.
    """
    W = np.asarray(weights, dtype=float)
    F = W.shape[0]
    Q = np.eye(F) - W
    Mc = (Q @ Q.T) / (F * point_count)
    if config.lambda2 > 0:
        frames = _with_pairs(frames)
        M = frames.pairs.shape[0]
        if M > 0:
            index, values = frames.laplacian
            # Mc is a new contiguous array, so ravel is a view of it
            Mc.ravel()[index] += (config.lambda2 / M) * values
    return Mc


# matrix entries one stacked solve may hold: bounds the stacks' memory (one
# point per stack at F = 240 with hard rays, every point in one at F = 48)
_STACK_ENTRIES = 1 << 16


def _accepted(H, rhs, sol):
    # the direct solve's residual test, for one system or a stack of them
    scale = np.trace(H, axis1=-2, axis2=-1) / H.shape[-1]
    resid = H @ sol
    resid -= rhs
    resid = np.linalg.norm(resid, axis=(-2, -1))
    bound = 1e-8 * (
        1.0
        + np.linalg.norm(rhs, axis=(-2, -1))
        + np.abs(scale) * np.linalg.norm(sol, axis=(-2, -1))
    )
    return np.isfinite(sol).all(axis=(-2, -1)) & (resid <= bound)


def _solve_regularized(H, rhs):
    # direct solve with a trace-scaled ridge retry on singular systems;
    # returns (solution, whether the ridge was needed)
    n = H.shape[0]
    try:
        sol = np.linalg.solve(H, rhs)
        if _accepted(H, rhs, sol):
            return sol, False
    except np.linalg.LinAlgError:
        pass
    eps = 1e-10 * max(abs(float(np.trace(H)) / n), 1e-300)
    try:
        return np.linalg.solve(H + eps * np.eye(n), rhs), True
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H + eps * np.eye(n), rhs, rcond=None)[0], True


def _solve_stack(H, rhs, sizes):
    """Solve a stack of padded systems H[i] x = rhs[i] (rhs is (S, N, K)).

    Member i is its leading ``sizes[i]`` block plus decoupled padding rows
    with zero right-hand side.  A member that fails the residual test is
    solved again alone, on its leading block, by ``_solve_regularized``.
    Returns (solutions, indices of the members that needed the ridge).
    """
    try:
        sol = np.linalg.solve(H, rhs)
        retry = np.flatnonzero(~_accepted(H, rhs, sol))
    except np.linalg.LinAlgError:
        # one exactly singular member fails the whole call; a member with
        # only padding rows solves to zero
        sol = np.zeros_like(rhs)
        retry = np.flatnonzero(sizes)
    ridged = []
    for i in retry:
        n = sizes[i]
        sol[i] = 0.0
        sol[i, :n], needed = _solve_regularized(H[i, :n, :n], rhs[i, :n])
        if needed:
            ridged.append(i)
    return sol, ridged


def _slots(present):
    """Per-point frame order of a stack: observed frames, then unobserved.

    Returns (slot, observed counts, No).  Row i of ``slot`` lists member i's
    observed frames in slots [0, No) and its unobserved frames from slot No
    on, each ascending; No is the largest observed count.  A slot s left
    over (padding) holds F + s, past every frame.
    """
    F = present.shape[1]
    n_obs = present.sum(axis=1)
    No = int(n_obs.max())
    order = np.argsort(~present, axis=1, kind="stable")
    s = np.arange(No + F - int(n_obs.min()))
    rank = np.where(s < No, s, s - No + n_obs[:, None])
    used = np.where(s < No, s < n_obs[:, None], rank < F)
    frame = np.take_along_axis(order, np.minimum(rank, F - 1), axis=1)
    return np.where(used, frame, F + s), n_obs, No


def _entry_index(a, b, F):
    # flat index of the coupling entry between slots a and b (see _slots)
    # in Mc.ravel() followed by [0, 1]
    pad = (a >= F) | (b >= F)
    return np.where(pad, F * F + (a == b), a * F + b)


class _StackPlan:
    """What the X-step of one stack of points needs from its rays alone.

    Every X-step of a solve couples the same rays, so ``minimize_structure``
    builds these once per ray field and each pass only gathers the new
    coupling Mc, solves and scatters.  A stack whose points see every frame
    keeps views of the rays: S = Mc, and nothing to gather or eliminate.
    Otherwise the plan holds the slot layout of ``_slots``, the observed
    centres C and directions R (padding slots read a zero centre and the
    unit direction e_x), flat indices of Mc_mm, Mc_mo and Mc_oo in one
    padded copy of Mc that it reuses, and each frame's slot for the
    scatter.  With finite lambda3 it also holds the ray projectors and
    their right-hand side.
    """

    def __init__(self, rays, part, lambda3):
        present = rays.present[part]
        size, F = present.shape
        self.part = part
        self.present = present
        self.hard = math.isinf(lambda3)
        self.full = bool(present.all())
        if self.full:
            self.n_obs, self.No = np.full(size, F), F
            self.R = rays.directions[part]
            self.C = np.broadcast_to(rays.centers, self.R.shape)
        else:
            slot, self.n_obs, No = _slots(present)
            self.No = No
            T = slot.shape[1]
            obs = slot[:, :No]
            self.C = np.concatenate([rays.centers, np.zeros((T, 3))])[obs]
            pad_dirs = np.broadcast_to(np.eye(3)[0], (size, T, 3))
            dirs = np.concatenate([rays.directions[part], pad_dirs], axis=1)
            self.R = np.take_along_axis(dirs, obs[:, :, None], axis=1)
            # flat indices of Mc_mm, Mc_mo and Mc_oo in Mc.ravel() followed
            # by a 0 and a 1: a padding slot reads 1 on its own diagonal
            # and 0 elsewhere, which keeps it decoupled
            self.buffer = np.zeros(F * F + 2)
            self.buffer[-1] = 1.0
            o, m = slot[:, :No], slot[:, No:]
            self.mm = _entry_index(m[:, :, None], m[:, None, :], F)
            self.mo = _entry_index(m[:, :, None], o[:, None, :], F)
            self.oo = _entry_index(o[:, :, None], o[:, None, :], F)
            self.n_unobs = F - self.n_obs
            # the scatter back to frame order gathers each frame's slot
            # (row i lists every frame once, then padding) from the stacked
            # slots; an absent frame's depth reads slot 0, then NaN
            where = np.argsort(slot, axis=1)[:, :F]
            member = np.arange(size)[:, None]
            self.rows = where + T * member
            self.depth_rows = np.where(present, where + No * member, 0)
        if not self.hard:
            No = self.No
            eye = np.eye(3)
            R = self.R
            self.proj = lambda3 * (eye - R[:, :, :, None] * R[:, :, None, :])
            rhs = np.einsum("psab,psb->psa", self.proj, self.C)
            self.rhs = rhs.reshape(size, 3 * No, 1)
            block = 3 * np.arange(No)[:, None] + np.arange(3)
            self.block = (block[:, :, None], block[:, None, :])

    def eliminate(self, Mc):
        """Eliminate each member's unobserved frames m from the coupling.

        Returns (S, K, ridged members) with K = Mc_mm^-1 Mc_mo, so that
        x_m = -K x_o, and the Schur complement S = Mc_oo - Mc_om K on the
        observed slots [0, No).  Mc is symmetric, so Mc_om = Mc_mo^T.
        """
        buffer = self.buffer
        buffer[:-2] = Mc.ravel()
        Mmo = buffer.take(self.mo)
        K, ridged = _solve_stack(buffer.take(self.mm), Mmo, self.n_unobs)
        # Mc_om K, then Mc_oo minus it in its place: Mc_mo is not held
        # through the gather of Mc_oo
        S = Mmo.transpose(0, 2, 1) @ K
        del Mmo
        np.subtract(buffer.take(self.oo), S, out=S)
        return S, K, ridged

    def solve(self, Mc):
        """This stack's part of ``minimize_structure`` for coupling Mc.

        Returns (points (size, F, 3), depths (size, F), ridged members).
        """
        R, C, No = self.R, self.C, self.No
        if self.full:
            S, ridged = Mc, []
        else:
            S, K, ridged = self.eliminate(Mc)
        if self.hard:
            # in place: S * (R @ R^T) allocates a second stack, which
            # measured several times slower than the product itself at
            # F = 240
            H = R @ R.transpose(0, 2, 1)
            H *= S
            rhs = -np.einsum("pia,pia->pi", R, S @ C)
            # S is not held through the solve, where the X-step peaks in
            # memory
            del S
            d, bad = _solve_stack(H, rhs[:, :, None], self.n_obs)
            x_obs = C + d * R
        else:
            size = R.shape[0]
            n = 3 * No
            eye = np.eye(3)
            kron = (S[..., :, None, :, None] * eye[:, None, :]).reshape(-1, n, n)
            H = np.broadcast_to(kron, (size, n, n)).copy()
            del S, kron
            rows, cols = self.block
            H[:, rows, cols] += self.proj
            z, bad = _solve_stack(H, self.rhs, 3 * self.n_obs)
            x_obs = z.reshape(size, No, 3)
        along = np.einsum("psa,psa->ps", x_obs - C, R)
        if self.full:
            return x_obs, along, bad
        x = np.concatenate([x_obs, -K @ x_obs], axis=1).reshape(-1, 3)
        points = x.take(self.rows, axis=0)
        depths = np.where(self.present, along.take(self.depth_rows), np.nan)
        return points, depths, ridged + bad


def _stack_plans(rays, lambda3):
    # the stack plans of a ray field for lambda3, built on its first X-step
    # and kept on it: a solve never changes its rays
    kept = getattr(rays, "_stack_plans", None)
    if kept is not None and kept[0] == lambda3:
        return kept[1]
    P, F = rays.present.shape
    width = 1 if math.isinf(lambda3) else 3
    step = max(1, _STACK_ENTRIES // (width * F) ** 2)
    plans = [
        _StackPlan(rays, slice(start, min(start + step, P)), lambda3)
        for start in range(0, P, step)
    ]
    rays._stack_plans = (lambda3, plans)
    return plans


def minimize_structure(coupling, rays, lambda3=math.inf, flags=None):
    """Exactly minimize sum_p tr(X_p Mc X_p^T) (+ soft-ray term) per point.

    The unobserved frames m of a point carry free 3D positions and no other
    term, so they are eliminated in closed form: per coordinate,
    x_m = -Mc_mm^-1 Mc_mo x_o, leaving x_o^T S x_o with the Schur complement
    S = Mc_oo - Mc_om Mc_mm^-1 Mc_mo on the observed frames o (S = Mc when
    every frame is observed).  With infinite lambda3 an observed frame is
    pinned to its ray, x_f = C_f + d_f r_f, and the depths solve
    (S o (R R^T)) d = -sum_a R[:, a] o (S C)[:, a].  With finite lambda3 each
    observed frame is a free 3D point, and the system is kron(S, I3) plus
    the ray penalty lambda3 (I - r r^T) on each frame's diagonal block, with
    lambda3 (I - r r^T) C_f on the right-hand side.

    The points are solved in stacks of consecutive points, as many as fit
    ``_STACK_ENTRIES`` matrix entries at a point's full system size (F
    unknowns, 3F with finite lambda3).  Each member is padded to the stack's
    largest system with decoupled identity rows and zero right-hand sides.
    What a stack needs from the rays alone is planned on the first call for
    a ray field and kept on it (``_StackPlan``), so a ray field must not be
    changed in place once solved on.  A member whose direct solve fails the
    residual test is solved alone with a trace-scaled ridge (then least
    squares) and flagged ``ridge:point-<p>``, once per point.

    Returns (structure, depths) with depths (x_f - C_f) . r_f on observed
    frames; ``flags`` collects ridge warnings.
    """
    if flags is None:
        flags = []
    Mc = np.asarray(coupling, dtype=float)
    P, F = rays.present.shape
    points = np.empty((P, F, 3))
    depths = np.empty((P, F))
    ridged = set()
    for plan in _stack_plans(rays, lambda3):
        part = plan.part
        points[part], depths[part], bad = plan.solve(Mc)
        ridged.update(part.start + i for i in bad)
    flags.extend(f"ridge:point-{p}" for p in sorted(ridged))
    return structure_from_points(points), depths


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


# Newton steps per ADMM iteration on the W-step's dual; a column still open
# at the cap is left to the KKT-gap test and the active-set polish
_NEWTON_STEPS = 30

# ADMM stop rule: primal and dual residuals under F * abs + rel * scale
# (Boyd et al. 2011, sec. 3.3.1), and the largest |W - Z| under consensus
_ADMM_ABS_TOL = 1e-5
_ADMM_REL_TOL = 1e-4
_CONSENSUS_TOL = 1e-4


def _dual_newton(X, outer, W, const, allowed, scale, rho):
    """Solve step 1 of ``admm_w_step`` by semismooth Newton on y = X w.

    Column f minimizes (scale/2) ||X w||^2 + (rho/2) ||w||^2 + const_f^T w
    over its masked simplex.  With kappa = scale / rho its optimum is
    w = Pi(-(const_f + scale X^T y) / rho) at the root y of
    r(y) = y - X w(y), a system in 3P unknowns (Li, Sun & Toh 2018).  The
    generalized Jacobian I + kappa X J X^T, with J = diag(s) - s s^T / |s|
    for the support s of Pi, is symmetric positive definite, so one stacked
    3P x 3P solve per open column gives the Newton step; ``outer`` holds
    x_j x_j^T in row j, so X J X^T comes from products of the support
    matrix with it, over chunks of columns whose Jacobian stacks hold at
    most F x F entries.  Once a support stops changing r is affine and the
    step is exact, so Pi is first tried on the last support
    (``_project_near``).  Starts from y = X W and stops a column when
    |r|_inf <= 1e-13 (1 + |y|_inf).  Overwrites W with the projected
    iterate, feasible whether or not every column closed within
    ``_NEWTON_STEPS``, and returns it.
    """
    n, F = X.shape
    kappa = scale / rho
    y = X @ W
    cols = np.arange(F)
    for _ in range(_NEWTON_STEPS):
        # a slice while every column is open: no gathered copies
        sel = slice(None) if cols.size == F else cols
        V = X.T @ y[:, sel]
        V *= scale
        V += const[:, sel]
        V *= -1.0 / rho
        Wc = _project_near(V, allowed[:, sel], W[:, sel] > 0.0)
        W[:, sel] = Wc
        r = y[:, sel] - X @ Wc
        open_ = np.abs(r).max(axis=0) > 1e-13 * (1.0 + np.abs(y[:, sel]).max(axis=0))
        if not open_.any():
            break
        cols, r = cols[open_], r[:, open_]
        support = Wc[:, open_] > 0.0
        del Wc
        # the Jacobians go in chunks of at most F x F entries
        step = max(1, F * F // (n * n))
        for start in range(0, cols.size, step):
            part = slice(start, start + step)
            s = support[:, part].astype(float)
            xs = X @ s
            # X J X^T per column: the support's outer products minus the
            # rank-one term of its sum
            M = (s.T @ outer).reshape(-1, n, n)
            M -= (xs.T[:, :, None] * xs.T[:, None, :]) / s.sum(axis=0)[:, None, None]
            del s
            M *= kappa
            M += np.eye(n)
            y[:, cols[part]] -= np.linalg.solve(M, r[:, part].T[:, :, None])[:, :, 0].T
            del M
    return W


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

    Step 1 solves every column's masked-simplex QP with data Hessian
    (2/FP) G, G = X^T X, and proximal term (rho/2) ||w||^2, one of two
    ways.  G has rank at most 3P, so when 12 P < F and (3P)^2 <= 6F
    (P <= 12 at F = 240) it runs semismooth Newton on the 3P-dimensional
    dual variable y = X w of each column (``_dual_newton``): from the warm
    start it takes about two projections, whatever rho is.  Otherwise it
    runs the package's one projected-gradient loop
    (``simplex._projected_gradient``) on all columns at once, with the
    step length 1/L from G's largest eigenvalue, read from the smaller of
    X X^T (3P x 3P) and G.  The proximal Hessian is dominated by its rho I
    part at the default rho, so each step shrinks the error by about
    (L - rho) / L (0.03 on a 16-point, 48-frame scene).  When 12 P >= F a
    step is one product with the step map M = (1 - rho/L) I - (2/FP) G / L,
    built once per call; when 12 P < F it goes through X^T (X W), since M
    would cost F^3.  Both paths are capped, try each projection on the
    previous support before sorting, and return a feasible iterate.  The
    columns whose KKT gap stays above tolerance afterwards are polished
    together, warm started from the iterate, by one ``minimize_on_simplex``
    call on (1/FP) G + (rho/2) I (the exact active set; as the inner solver
    for every column it is much slower, since the iterate's supports are
    dense).

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
    inv_fp = 1.0 / (F * P)
    rho = config.rho
    alpha = config.lambda1 / F
    allowed = mask.allowed
    # X^T (X W) costs 6 P F^2 flops against F^3 for G W; measured on one
    # core it wins once 3P is under about F / 4 (from F = 96 up; below that
    # both take a few microseconds)
    factored = 12 * P < F
    # a dual Newton step builds F Jacobians from F x (3P)^2 rows, so its cost
    # grows with P^2 while projected gradient's sorts do not.  Per ADMM
    # iteration on two cores (F = 96-480) Newton measured 9-59% faster at
    # (3P)^2 <= 8.2F and 15-35% slower at 9.6F and 13.5F
    newton = factored and (3 * P) ** 2 <= 6 * F
    # the data term's Hessian (2/FP) G, scaled in place from G = X^T X
    A2 = X.T @ X
    if newton:
        # row j holds x_j x_j^T (3P x 3P, flattened) for the Newton Jacobians
        outer = (X.T[:, :, None] * X.T[:, None, :]).reshape(F, -1)
    else:
        lam_max = float(np.linalg.eigvalsh(X @ X.T if X.shape[0] < F else A2)[-1])
        L = 2.0 * inv_fp * lam_max + rho
    A2 *= 2.0 * inv_fp

    def data_gradient(Wc):
        return (2.0 * inv_fp) * (X.T @ (X @ Wc)) if factored else A2 @ Wc

    # projected gradient's step map W - (data_gradient(W) + rho W) / L: one
    # F x F matrix M = (1 - rho/L) I - A2/L, built once, unless factored,
    # where forming M would cost F^3
    if factored and not newton:
        XL = X.T * (-2.0 * inv_fp / L)

        def step_map(Wc, out):
            np.matmul(XL, X @ Wc, out=out)
            out += (1.0 - rho / L) * Wc

    elif not factored:
        M = A2 * (-1.0 / L)
        M.flat[:: F + 1] += 1.0 - rho / L

        def step_map(Wc, out):
            np.matmul(M, Wc, out=out)

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
    for _ in range(config.admm_max_iter):
        iterations += 1
        const = Y - rho * Z - A2
        if newton:
            W = _dual_newton(X, outer, W, const, allowed, 2.0 * inv_fp, rho)
        else:
            W = _projected_gradient(step_map, W, const, allowed, L)
        grad = data_gradient(W)
        grad += rho * W
        grad += const
        # the KKT gap: on each column's support, how far the gradient rises
        # above its least allowed entry
        work = np.where(allowed, grad, np.inf)
        mu = work.min(axis=0)
        np.subtract(grad, mu, out=work)
        work *= W > 1e-12
        viol = work.max(axis=0)
        np.abs(grad, out=work)
        work *= allowed
        tol = 1e-9 * (1.0 + work.max(axis=0))
        del grad, work
        polish = np.flatnonzero(viol > tol)
        if polish.size:
            # 0.5 A2 has the bytes of (1/FP) G: halving undoes an exact doubling
            W[:, polish] = minimize_on_simplex(
                0.5 * A2 + (rho / 2.0) * np.eye(F),
                const[:, polish],
                w0=W[:, polish],
                allowed=allowed[:, polish],
            )
        del const
        B = Y + rho * W
        Z_new = 0.5 * ((B + B.T) / rho + (B - B.T) / (8.0 * alpha + rho))
        gap = W - Z_new
        Y += rho * gap
        r_pri = np.linalg.norm(gap)
        s_dual = rho * np.linalg.norm(Z_new - Z)
        Z = Z_new

        val = coupled(W)
        if val < best_val:
            best_val = val
            best_W = W.copy()

        eps_pri = F * _ADMM_ABS_TOL + _ADMM_REL_TOL * max(
            np.linalg.norm(W), np.linalg.norm(Z)
        )
        eps_dual = F * _ADMM_ABS_TOL + _ADMM_REL_TOL * np.linalg.norm(Y)
        if (
            r_pri <= eps_pri
            and s_dual <= eps_dual
            and np.abs(gap).max() <= _CONSENSUS_TOL
        ):
            converged = True
            break
        # not held through the next step 1, where the W-step peaks in memory
        del gap
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
    if centers.shape[0] < 2:
        raise InputError("scale normalization needs at least 2 camera centers")
    # finite centers near the float limit overflow the means and norms;
    # that shows as a non-finite distance, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if uniq.size >= 2:
            reps = np.stack([centers[ids == v].mean(axis=0) for v in uniq])
        else:
            reps = centers
        iu = np.triu_indices(reps.shape[0], k=1)
        dists = np.linalg.norm(reps[iu[0]] - reps[iu[1]], axis=1)
        mean_dist = float(dists.mean())
        spread = float(np.abs(reps - reps.mean(axis=0)).max())
    if not (math.isfinite(mean_dist) and math.isfinite(spread)):
        raise InputError(
            "camera centers are too far apart: the inter-camera distance "
            "is not finite"
        )
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
    seen = obs.present.sum(axis=1)
    unobserved = np.flatnonzero(seen == 0)
    if unobserved.size:
        raise InputError(f"points {unobserved.tolist()[:8]} have no observations")
    # every coupling has Mc 1 = 0, so a point on one ray slides along it
    # at no cost and its depth is undetermined
    lone = np.flatnonzero(seen == 1)
    if lone.size:
        raise InputError(
            f"points {lone.tolist()[:8]} are observed in only one frame; "
            "their depth is undetermined"
        )
    ids = frame_video_ids(frames)
    if config.same_video_exclusion and np.unique(ids).size < 2:
        raise InfeasibleError(
            "same-video exclusion with a single video leaves every support "
            "column empty"
        )
    mask = support_mask(ids, exclude_same_video=config.same_video_exclusion)
    validate_mask(mask, min_allowed=2)

    scaled, factor = normalize_scale(frames)
    scaled_frames = _SolveFrames(scaled)
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
