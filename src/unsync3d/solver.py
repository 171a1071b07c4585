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

Each block update exactly minimizes its block, so the objective trace is
non-increasing across X-steps and W-steps.  A solve first runs a decoupled
warm-up (exact coding, then X refits), which pulls the depth initialization
into the self-expressive basin.  On hard rays, once a pass leaves the
coded supports nearly unchanged, the warm-up codes at a structure
extrapolated along its last step, and keeps such a pass only if the
self-expression term did not rise.  Its last code W0 then anchors the
coupled stage: it minimizes

    Phi(X, W) = f(X, W) + (rho/2) ||W - W0||_F^2,

with f the cost above.  The anchor term is a deviation from the paper's
cost.  It makes Phi rho-strongly convex in W, so alternating exact block
minimization (block coordinate descent for multiconvex problems, Xu & Yin
2013) settles at a stationary point by itself, and the objective trace
records Phi.  The W update solves its strongly convex block with the
projected-gradient loop of ``simplex``, one product with a step map per
step, each projection tried on the previous support before sorting.  The X
update eliminates each point's unobserved frames in closed form (a
Schur complement of the coupling) and solves what remains, one small linear
system per point on its observed frames, in bounded stacks.  Both ray modes
solve the same depth system, soft rays on the filtered coupling
S (I + S / lambda3)^-1, whose points the filter then maps off the rays
(``minimize_structure``).  Its geometry (slot layout, gather and scatter
indices, observed rays) is planned once per ray field for both modes, and a
solve builds its video pairs once, so each pass only gathers the new
coupling, solves and scatters.  The warm-up and the coupled stage are
two plain loops of these steps (``_warm_up``, ``_coupled_stage``).  The
coupled stage runs once, at the small ``FINAL_LAMBDA2`` (or lambda2, if
lower): a trace of the smoothness prior steadies frames with missing data
without biasing the observed ones much.
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
    structure_from_points,
    structure_to_points,
    validate_frames,
)
# minimize_on_simplex has no caller here; it stays a module global because
# the benchmark's tracer wraps solver.minimize_on_simplex by name
from .simplex import (
    _Coder,
    _gram,
    _projected_gradient,
    _solve_stack,
    minimize_on_simplex,
    self_express,
    support_mask,
    validate_mask,
)

__all__ = [
    "SolverConfig",
    "SolveState",
    "video_pairs",
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


# the coupled stage's smoothness weight (capped by lambda2): a little
# smoothness steadies frames with missing data (c08's pooled acc30 at 50%
# missing: 0.750, against 0.660 with 0 here) at a small bias on the observed
# ones
FINAL_LAMBDA2 = 1e-4

# every alternation loop settles once its stop quantity changes by at most
# this much, relative, in a pass
_OUTER_REL_TOL = 1e-6

# the warm-up's extrapolation step beta (``_warm_up``): its start, its
# growth per kept extrapolated pass and its cap; a discarded pass halves it.
# Extrapolating an alternating least-squares iterate under a monotone
# safeguard follows Rajih, Comon & Harshman, "Enhanced line search", SIAM
# J. Matrix Anal. Appl. 2008
_BETA0 = 1.0
_BETA_GROWTH = 1.2
_BETA_MAX = 2.0


@dataclass
class SolverConfig:
    """Weights, the pass cap and switches for the alternating solver.

    lambda3 is the soft-ray weight; ``math.inf`` (the default) keeps points
    exactly on their viewing rays, while a finite value lets them move off
    the rays.  On c08's noise sweep (0-5 px) hard rays matched or beat
    lambda3 = 100 on acc@30 at every noise level, with median errors within
    0.5% and fewer warm-up passes, so no finite value is advised for noisy
    pixels.  rho is the weight of the anchor term (rho/2) ||W - W0||^2 that
    the coupled stage adds to the cost, W0 being the warm-up's last code:
    the larger it is, the closer the coupled W stays to that code.  lambda2
    weighs the smoothness prior: the coupled stage runs at min(lambda2,
    ``FINAL_LAMBDA2``), or at lambda2 itself without ``second_stage`` (the
    name of an earlier second stage, kept for the tests, saved configs and
    ``--no-second-stage``).
    Each loop runs at most ``outer_max`` passes and settles earlier at the
    relative tolerance ``_OUTER_REL_TOL``.
    """

    lambda1: float = 0.05
    lambda2: float = 0.1
    lambda3: float = math.inf
    rho: float = 0.02
    outer_max: int = 100
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
        if self.outer_max < 1:
            raise InputError("outer_max must be at least 1")


@dataclass
class SolveState:
    """Result of a solver run, and the state its two loops work on.

    ``admm_iterations`` counts the projected-gradient steps of every coupled
    W-step; the name is the result files' key.  ``converged`` is True only
    when the warm-up, the coupled stage and every coupled W-step settled
    before their caps; a warm-up at its cap leaves it False although no
    flag but ``warmup-N`` (N = ``outer_max``) marks it.
    """

    structure: np.ndarray
    depths: np.ndarray
    weights: np.ndarray = None
    objective_trace: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    scale_factor: float = 1.0
    outer_iterations: int = 0
    admm_iterations: int = 0
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
    """A frame list carrying its video pairs.

    ``solve`` wraps its frames once, so ``psi2`` and ``coupling_matrix``,
    which run on every pass, do not rebuild them; they wrap any other
    frame list per call (``_with_pairs``).
    """

    def __new__(cls, frames):
        self = super().__new__(cls, frames)
        self.pairs = video_pairs(self)
        return self


def _with_pairs(frames):
    return frames if isinstance(frames, _SolveFrames) else _SolveFrames(frames)


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


def _self_expression(X, W):
    # the self-expression term (1/FP) ||X - X W||_F^2 of float arrays; the
    # warm-up's stop test reads it alone
    F = X.shape[1]
    P = X.shape[0] // 3
    return float(np.sum((X - X @ W) ** 2)) / (F * P)


def objective(structure, weights, config, frames, rays=None, anchor=None):
    """Full cost and its separate terms.

    Returns (total, terms) where terms has keys ``self_expression``,
    ``psi1``, ``psi2``, ``soft_ray`` and ``anchor``.  The soft-ray term is
    only computed (and requires ``rays``) when lambda3 is finite.  Given an
    ``anchor`` W0, the total is the coupled stage's Phi: it adds
    (rho/2) ||W - W0||_F^2, with terms["anchor"] = ||W - W0||_F^2.
    """
    X = np.asarray(structure, dtype=float)
    W = np.asarray(weights, dtype=float)
    terms = {
        "self_expression": _self_expression(X, W),
        "psi1": psi1(W),
        "psi2": psi2(X, frames),
        "soft_ray": 0.0,
        "anchor": 0.0,
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
    if anchor is not None:
        terms["anchor"] = float(np.sum((W - anchor) ** 2))
        total += 0.5 * config.rho * terms["anchor"]
    return total, terms


def coupling_matrix(weights, config, frames, point_count):
    """F x F coupling Mc so the structure cost is sum_p tr(X_p Mc X_p^T).

    Mc = (1/FP) (I - W)(I - W)^T + (lambda2 / M) T T^T, with the smoothness
    part dropped when lambda2 = 0 or no video has consecutive frames.  T T^T
    is the video pairs' graph Laplacian, read off the pairs: each frame's
    pair count on the diagonal, -1 at (a, b) and (b, a) of each pair.
    """
    W = np.asarray(weights, dtype=float)
    F = W.shape[0]
    Q = np.eye(F) - W
    Mc = (Q @ Q.T) / (F * point_count)
    if config.lambda2 > 0:
        pairs = _with_pairs(frames).pairs
        if pairs.shape[0] > 0:
            scale = config.lambda2 / pairs.shape[0]
            a, b = pairs.T
            Mc.flat[:: F + 1] += scale * np.bincount(pairs.ravel(), minlength=F)
            Mc[a, b] -= scale
            Mc[b, a] -= scale
    return Mc


# matrix entries one stacked solve may hold: bounds the stacks' memory (one
# point per stack at F = 240, every point in one at F = 48); both ray modes
# solve one F x F system per point
_STACK_ENTRIES = 1 << 16


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
    builds these once per ray field, for both ray modes, and each pass only
    gathers the new coupling Mc, solves and scatters.  A stack whose points
    see every frame keeps views of the rays: S = Mc, and nothing to gather
    or eliminate.  Otherwise the plan holds the slot layout of ``_slots``,
    the observed centres C and directions R (padding slots read a zero
    centre and the unit direction e_x), flat indices of Mc_mm, Mc_mo and
    Mc_oo in one padded copy of Mc that it reuses, and each frame's slot for
    the scatter.  ``frames`` holds each observed slot's frame (padding: F + s).
    """

    def __init__(self, rays, part):
        present = rays.present[part]
        size, F = present.shape
        self.part = part
        self.present = present
        self.full = bool(present.all())
        if self.full:
            self.n_obs = np.full(size, F)
            self.frames = np.broadcast_to(np.arange(F), (size, F))
            self.R = rays.directions[part]
            self.C = np.broadcast_to(rays.centers, self.R.shape)
            return
        slot, self.n_obs, No = _slots(present)
        T = slot.shape[1]
        obs = self.frames = slot[:, :No]
        self.C = np.concatenate([rays.centers, np.zeros((T, 3))])[obs]
        pad_dirs = np.broadcast_to(np.eye(3)[0], (size, T, 3))
        dirs = np.concatenate([rays.directions[part], pad_dirs], axis=1)
        self.R = np.take_along_axis(dirs, obs[:, :, None], axis=1)
        # flat indices of Mc_mm, Mc_mo and Mc_oo in Mc.ravel() followed by a
        # 0 and a 1: a padding slot reads 1 on its own diagonal and 0
        # elsewhere, which keeps it decoupled
        self.buffer = np.zeros(F * F + 2)
        self.buffer[-1] = 1.0
        o, m = slot[:, :No], slot[:, No:]
        self.mm = _entry_index(m[:, :, None], m[:, None, :], F)
        self.mo = _entry_index(m[:, :, None], o[:, None, :], F)
        self.oo = _entry_index(o[:, :, None], o[:, None, :], F)
        self.n_unobs = F - self.n_obs
        # the scatter back to frame order gathers each frame's slot (row i
        # lists every frame once, then padding) from the stacked slots; an
        # absent frame's depth reads slot 0, then NaN
        where = np.argsort(slot, axis=1)[:, :F]
        member = np.arange(size)[:, None]
        self.rows = where + T * member
        self.depth_rows = np.where(present, where + No * member, 0)

    def eliminate(self, Mc):
        """Eliminate each member's unobserved frames m from the coupling.

        Returns (S, K, members whose K took least squares) with
        K = Mc_mm^-1 Mc_mo, so that x_m = -K x_o, and the Schur complement
        S = Mc_oo - Mc_om K on the observed slots [0, No).  Mc is symmetric,
        so Mc_om = Mc_mo^T.
        """
        buffer = self.buffer
        buffer[:-2] = Mc.ravel()
        Mmo = buffer.take(self.mo)
        K, lstsq = _solve_stack(buffer.take(self.mm), Mmo, self.n_unobs)
        # Mc_om K, then Mc_oo minus it in its place: Mc_mo is not held
        # through the gather of Mc_oo
        S = Mmo.transpose(0, 2, 1) @ K
        del Mmo
        np.subtract(buffer.take(self.oo), S, out=S)
        return S, K, lstsq

    def system(self, S, Y=None):
        """(S o R R^T, sum_a R[..., a] o (S Y)[..., a]) on the observed slots.

        Y holds positions (size, No, 3) on them; without it b is None.
        """
        R = self.R
        # in place: S * (R @ R^T) allocates a second stack, which measured
        # several times slower than the product itself at F = 240
        H = R @ R.transpose(0, 2, 1)
        H *= S
        return H, None if Y is None else np.einsum("pia,pia->pi", R, S @ Y)

    def solve(self, Mc, lambda3, full_filter):
        """This stack's part of ``minimize_structure`` for coupling Mc.

        A fully observed stack takes the soft-ray ``full_filter`` of Mc.
        Returns (points (size, F, 3), depths (size, F), members that took
        least squares in either solve).
        """
        R, C = self.R, self.C
        S, K, lstsq = (Mc, None, []) if self.full else self.eliminate(Mc)
        if lambda3 < math.inf:
            S, J = full_filter if self.full else _soft_filter(S, lambda3)
        H, rhs = self.system(S, C)
        # S is not held through the solve, where the X-step peaks in memory
        del S
        d, bad = _solve_stack(H, -rhs[:, :, None], self.n_obs)
        x_obs = C + d * R
        if lambda3 < math.inf:
            x_obs = J @ x_obs
        along = np.einsum("psa,psa->ps", x_obs - C, R)
        if self.full:
            return x_obs, along, bad
        x = np.concatenate([x_obs, -K @ x_obs], axis=1).reshape(-1, 3)
        points = x.take(self.rows, axis=0)
        depths = np.where(self.present, along.take(self.depth_rows), np.nan)
        return points, depths, lstsq + bad


def _soft_filter(S, lambda3):
    # soft rays solve the hard-ray depth system on the filtered coupling
    # S J, J = (I + S / lambda3)^-1, then map x = J (C + d R); returns (S J, J)
    J = np.linalg.inv(np.eye(S.shape[-1]) + S / lambda3)
    return S @ J, J


def _stack_plans(rays):
    # the stack plans of a ray field, built on its first X-step and kept on
    # it: a solve never changes its rays
    kept = getattr(rays, "_stack_plans", None)
    if kept is not None:
        return kept
    P, F = rays.present.shape
    step = max(1, _STACK_ENTRIES // F**2)
    rays._stack_plans = [
        _StackPlan(rays, slice(start, min(start + step, P)))
        for start in range(0, P, step)
    ]
    return rays._stack_plans


def minimize_structure(coupling, rays, lambda3=math.inf, flags=None):
    """Exactly minimize sum_p tr(X_p Mc X_p^T) (+ soft-ray term) per point.

    The unobserved frames m of a point carry free 3D positions and no other
    term, so they are eliminated in closed form: per coordinate,
    x_m = -Mc_mm^-1 Mc_mo x_o, leaving x_o^T S x_o with the Schur complement
    S = Mc_oo - Mc_om Mc_mm^-1 Mc_mo on the observed frames o (S = Mc when
    every frame is observed).  With infinite lambda3 an observed frame is
    pinned to its ray, x_f = C_f + d_f r_f, and the depths solve
    (S o (R R^T)) d = -sum_a R[:, a] o (S C)[:, a].  A finite lambda3 (which
    must be positive) solves the same system with S replaced by S J,
    J = (I + S / lambda3)^-1, and returns x_o = J (C + d o R): the
    stationarity condition (S + lambda3 I) X = lambda3 (I - r r^T) C +
    diag(y) R, with Woodbury applied to its ray term and r . r = 1, is the
    hard-ray system on that filtered coupling (Hager 1989).

    The points are solved in stacks of consecutive points, as many as fit
    ``_STACK_ENTRIES`` matrix entries at a point's full system size (F
    unknowns).  Each member is padded to the stack's largest system with
    decoupled identity rows and zero right-hand sides.  What a stack needs
    from the rays alone is planned on the first call for a ray field, in
    either ray mode, and kept on it (``_StackPlan``), so a ray field must
    not be changed in place once solved on.  Both solves of a stack, the
    elimination and the depths, go through ``simplex._solve_stack``: a
    member that fails its residual test is solved again alone, and takes
    least squares (for a singular system, the least-norm solution) when the
    direct solve fails again.  Such a point is flagged ``ridge:point-<p>``,
    once per point; the name is kept from the ridge retry this replaced,
    because perfbench's ``solver.ridge_retries`` counts that prefix.

    Returns (structure, depths) with depths (x_f - C_f) . r_f on observed
    frames; ``flags`` collects the least-squares flags.  Raises InputError
    for a nonpositive lambda3 or a coupling that is not F x F for the ray
    field's F frames.
    """
    if not lambda3 > 0:
        raise InputError(f"lambda3 must be positive (inf = hard rays), got {lambda3}")
    if flags is None:
        flags = []
    Mc = np.asarray(coupling, dtype=float)
    P, F = rays.present.shape
    if Mc.shape != (F, F):
        raise InputError(
            f"coupling shape {Mc.shape} does not match the ray field's F={F}"
        )
    points = np.empty((P, F, 3))
    depths = np.empty((P, F))
    lstsq = set()
    plans = _stack_plans(rays)
    # the fully observed stacks share one soft-ray filter of Mc per call
    soft_full = lambda3 < math.inf and any(plan.full for plan in plans)
    full_filter = _soft_filter(Mc, lambda3) if soft_full else None
    for plan in plans:
        part = plan.part
        points[part], depths[part], bad = plan.solve(Mc, lambda3, full_filter)
        lstsq.update(part.start + i for i in bad)
    flags.extend(f"ridge:point-{p}" for p in sorted(lstsq))
    return structure_from_points(points), depths


def x_step(structure, weights, config, rays, frames, flags=None):
    """One exact structure update for fixed weights.

    Returns (structure, depths, flags).  Minimizes the objective over the
    free structure variables; the resulting objective never exceeds the
    previous one.  ``structure``, the current iterate, does not enter the
    update, which depends only on the weights, the config, the rays and
    the frames; callers such as c03's stationarity check pass it anyway.
    """
    if flags is None:
        flags = []
    P = rays.present.shape[0]
    Mc = coupling_matrix(weights, config, frames, P)
    new_structure, depths = minimize_structure(
        Mc, rays, lambda3=config.lambda3, flags=flags
    )
    return new_structure, depths, flags


def admm_w_step(structure, mask, config, weights=None):
    """Exact W-block minimization for fixed structure, about an anchor.

    Minimizes the coupled W-objective plus an anchor term,

        (1/FP) ||X - X W||^2 + lambda1 psi1(W) + (rho/2) ||W - W0||^2,

    over the masked simplex columns, starting at W0 = ``weights``, or at the
    decoupled coding ``self_express(X, mask)`` when None.  ``solve`` passes
    the warm-up's last code as W0 on every coupled W-step, so the step is
    the W-block of block coordinate descent on the one objective Phi.  The
    problem is rho-strongly convex, and the package's one projected-gradient
    loop (``simplex._projected_gradient``) solves it on all columns at once,
    until no entry moves by more than 1e-13, at step 1/L,
    L = (2/FP) ||X - xbar 1^T||_F^2 + 8 lambda1 / F + rho, with xbar the
    mean column of X.  Two feasible W differ by columns that sum to 0, and
    for such a D, X D = (X - xbar 1^T) D, so the data term's curvature
    along every feasible direction is at most (2/FP) times the largest
    eigenvalue of the centred Gram matrix, which the squared Frobenius
    norm bounds without an eigensolve; psi1's gradient
    (4 lambda1 / F)(W - W^T) adds at most 8 lambda1 / F.  The steps still
    use G = X^T X: on feasible W the two gradients differ by a constant
    in each column, which the masked-simplex projection ignores.  Each
    step lowers the objective above, so the result never raises it above
    its value at W0.  When
    12 P >= F a step is one product with the F x F step map
    M = (1 - (rho + 4 lambda1 / F) / L) I - (2/FP) G / L, built once per
    call, plus psi1's W^T term; when 12 P < F the data part goes through
    X^T (X W), since M would cost F^3.

    The name and the 4-tuple return are kept from the ADMM step this
    replaced, whose two middle entries were its auxiliary and dual blocks:
    the solver loop, the tests and the benchmark's tracer (which reads the
    info dict at index 3) call it so.  Returns (weights, None, None, info),
    with info's ``iterations`` the projected-gradient steps taken and
    ``converged`` whether they settled before the loop's cap.  Raises
    InputError for a structure that is not finite or whose Gram matrix
    overflows, a mask that is not F x F or an anchor that is not a finite
    F x F array.
    """
    X = np.asarray(structure, dtype=float)
    F = X.shape[1]
    P = X.shape[0] // 3
    validate_mask(mask, min_allowed=1)
    if mask.allowed.shape != (F, F):
        raise InputError(f"mask shape {mask.allowed.shape} does not match F={F}")
    if not np.isfinite(X).all():
        raise InputError("non-finite structure")
    G = _gram(X, "structure")
    if weights is None:
        W = self_express(X, mask)
    else:
        W = np.array(weights, dtype=float)
        if W.shape != (F, F) or not np.isfinite(W).all():
            raise InputError(f"anchor weights must be a finite {F} x {F} array")
    inv_fp = 1.0 / (F * P)
    rho = config.rho
    # psi1's gradient is skew * (W - W^T)
    skew = 4.0 * config.lambda1 / F
    # the data term's curvature along a feasible direction, whose columns
    # sum to 0, is that of the centred structure; a longer L than
    # (2/FP) lambda_max of the centred Gram matrix + ... only shortens the
    # step
    centred = float(np.square(X - X.mean(axis=1, keepdims=True)).sum())
    L = 2.0 * inv_fp * centred + 2.0 * skew + rho
    keep = 1.0 - (rho + skew) / L
    # the step map W - g(W) / L for the gradient's linear part
    # g(W) = (2/FP) G W + skew (W - W^T) + rho W.  X^T (X W) costs 6 P F^2
    # flops against F^3 for M W; measured on one core it wins once 3P is
    # under about F / 4 (from F = 96 up; below that both take a few
    # microseconds)
    if 12 * P < F:
        XL = X.T * (-2.0 * inv_fp / L)

        def step_map(Wc, out):
            np.matmul(XL, X @ Wc, out=out)
            out += keep * Wc
            if skew:
                out += (skew / L) * Wc.T

    else:
        M = G * (-2.0 * inv_fp / L)
        M.flat[:: F + 1] += keep

        def step_map(Wc, out):
            np.matmul(M, Wc, out=out)
            if skew:
                out += (skew / L) * Wc.T

    # the gradient's constant part, -(2/FP) G - rho W0, in G's place, which
    # the loop then scales into its step's shift
    const = G
    const *= -2.0 * inv_fp
    const -= rho * W
    W, steps, settled = _projected_gradient(step_map, W, const, mask.allowed, L)
    return W, None, None, {"iterations": steps, "converged": settled}


# bytes of the (point, frame, partner) grids the pair bootstrap holds at once
_PAIR_BLOCK_BYTES = 2**19


def _pair_rows(rays, fs, js):
    # closed-form closest points of the rays of each frame f of fs and of
    # each frame j of its row of js (B x J): (P, B, J) shared-point mask,
    # (B, J) mean squared distance, (P, B, J) depths along f, and (P, B, J)
    # mask of the shared points that make a pair unusable (near-parallel
    # rays or a negative depth).  Each frame's a @ u^T is its own BLAS
    # product of a stack, so a frame's bytes do not depend on the block
    shared = rays.present[:, fs, None] & rays.present[:, js]
    a = rays.directions[:, fs]
    b = rays.directions[:, js]
    u = rays.centers[fs, None] - rays.centers[js]
    c = np.einsum("pfa,pfja->pfj", a, b)
    au = (a.transpose(1, 0, 2) @ u.transpose(0, 2, 1)).transpose(1, 0, 2)
    bu = np.einsum("pfja,fja->pfj", b, u)
    # absent points carry NaN directions; shared masks them out
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 1.0 - c**2
        tf = (-au + c * bu) / denom
        tj = (bu - c * au) / denom
        resid = u + tf[..., None] * a[:, :, None, :] - tj[..., None] * b
        sq = np.where(shared, np.einsum("pfja,pfja->pfj", resid, resid), 0.0)
        cost = sq.sum(axis=0) / shared.sum(axis=0)
        bad = shared & ((denom < 1e-12) | (tf < -1e-12) | (tj < -1e-12))
    return shared, cost, tf, bad


def _pair_blocks(rays, partners):
    # runs of consecutive frames with as many partners each (``partners[f]``,
    # an index array), cut so that one run's grids stay within
    # ``_PAIR_BLOCK_BYTES``: (frames, their partners as rows)
    P = rays.present.shape[0]
    f = 0
    while f < len(partners):
        J = len(partners[f])
        # about four (point, frame, partner, axis) float grids live at once
        room = max(1, _PAIR_BLOCK_BYTES // (32 * 3 * P * max(J, 1)))
        stop = f + 1
        while stop < min(f + room, len(partners)) and len(partners[stop]) == J:
            stop += 1
        block = np.array(partners[f:stop], dtype=np.intp).reshape(stop - f, J)
        yield np.arange(f, stop), block
        f = stop


def pair_distance_matrix(rays, video_ids):
    """Symmetric F x F matrix of mean two-ray triangulation costs.

    Entry (f, j) is the mean over shared points of the squared closest-point
    distance between the two viewing rays, minimized in closed form over both
    depths.  Same-video pairs, pairs with no shared point, near-parallel ray
    pairs and pairs whose minimizing depth is negative are all infinite.

    Each row f is solved for all its later partners j at once, by the
    closed form of ``_pair_rows`` over the (point, partner) grid, and runs
    of rows with as many partners share one call.
    """
    ids = np.asarray(video_ids)
    F = rays.present.shape[1]
    D = np.full((F, F), np.inf)
    partners = [f + 1 + np.flatnonzero(ids[f + 1 :] != ids[f]) for f in range(F)]
    for fs, js in _pair_blocks(rays, partners):
        if js.shape[1] == 0:
            continue
        shared, cost, _, bad = _pair_rows(rays, fs, js)
        ok = shared.any(axis=0) & ~bad.any(axis=0)
        for i, f in enumerate(fs):
            D[f, js[i, ok[i]]] = cost[i, ok[i]]
            D[js[i, ok[i]], f] = cost[i, ok[i]]
    return D


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
    usable = np.isfinite(D).any(axis=1)
    mates = np.argmin(D, axis=1)[:, None]
    tf = np.empty((P, F))
    shared = np.zeros((P, F), dtype=bool)
    for fs, js in _pair_blocks(rays, mates):
        pair = _pair_rows(rays, fs, js)
        shared[:, fs], tf[:, fs] = pair[0][:, :, 0], pair[2][:, :, 0]
    for f in range(F):
        pres_f = rays.present[:, f]
        if not pres_f.any():
            continue
        if not usable[f]:
            depths[pres_f, f] = 1.0
            flags.append(f"init-unit-depth-frame-{f}")
            continue
        rows = shared[:, f]
        depths[rows, f] = tf[rows, f]
        rest = pres_f & ~rows
        if rest.any():
            depths[rest, f] = float(np.median(tf[rows, f]))
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


def _support_changes(before, after):
    # the number of columns whose support differs; all of them without a
    # code before
    if before is None:
        return after.shape[1]
    return int(((before > 0.0) != (after > 0.0)).any(axis=0).sum())


def _warm_up(state, config, problem):
    """The decoupled warm-up on ``state``; returns whether it settled.

    The depth initialization spreads the coded weights, and the coupled
    loop keeps that spread as a fixed point; the warm-up contracts both
    blocks toward the self-expressive solution instead.  At lambda2 = 0, a
    pass codes exactly (``self_express``, warm started from the last code)
    at the structure ``at``, then refits X.  ``at`` is X, until, on hard
    rays, a kept pass changes the support of at most one column; the next
    pass then codes at the extrapolated X + beta (X - X_prev), X_prev the
    structure the kept pass started from (both iterates, and so the
    extrapolated points, lie on the rays).  The X-step depends only on the
    code, so only the coder's input moves.  An extrapolated pass is kept
    only if the self-expression term did not rise: then beta grows by
    ``_BETA_GROWTH`` up to ``_BETA_MAX``.  Otherwise the pass is
    discarded, leaving the state of the last kept pass, beta halves, and
    the loop codes at X until the supports hold again.  Soft rays never
    extrapolate: their X-step also weighs the ray term, so the
    self-expression term can rise in a plain pass and its test is no
    descent test there.

    The loop settles once the self-expression term changes by at most
    ``_OUTER_REL_TOL`` (relative) between kept passes, else stops at
    ``outer_max`` passes, discarded ones included; ``warmup-N`` records
    the passes.  A pass computes that term alone (``_self_expression``,
    which ``objective`` shares), not psi1, psi2 or the soft-ray term, which
    the loop never reads.  It codes with a ``simplex._Coder`` on the
    solve's mask, which takes the last code back as the next warm start
    and changes no byte of a code; it is dropped on return, before the
    coupled stage.
    """
    rays, frames, mask = problem
    cfg = replace(config, lambda2=0.0)
    coder = _Coder(mask)
    extrapolate = cfg.lambda3 == math.inf
    prev, settled = math.inf, False
    beta, start, hold = _BETA0, None, False
    for passes in range(1, cfg.outer_max + 1):
        probe = extrapolate and hold
        kept = (state.structure, state.depths, state.weights, len(state.flags))
        at = state.structure
        if probe:
            at = at + beta * (at - start)
        state.weights = self_express(at, coder, warm_start=state.weights)
        state.structure, state.depths, state.flags = x_step(
            state.structure, state.weights, cfg, rays, frames, state.flags
        )
        cur = _self_expression(state.structure, state.weights)
        if probe and cur > prev:
            state.structure, state.depths, state.weights = kept[:3]
            del state.flags[kept[3] :]
            beta, hold = 0.5 * beta, False
            continue
        if extrapolate:
            hold = _support_changes(kept[2], state.weights) <= 1
            start = kept[0]
            if probe:
                beta = min(_BETA_GROWTH * beta, _BETA_MAX)
        settled = abs(prev - cur) <= _OUTER_REL_TOL * abs(cur)
        if settled:
            break
        prev = cur
    state.flags.append(f"warmup-{passes}")
    return settled


def _coupled_stage(state, config, problem):
    """The coupled stage on ``state``; returns whether it settled.

    Block coordinate descent on Phi = f + (rho/2) ||W - W0||^2, W0 the
    warm-up's last code (``state.weights`` on entry), at lambda2 =
    min(lambda2, ``FINAL_LAMBDA2``), or at lambda2 itself without
    ``second_stage``.  A pass is an exact X-step, then the exact W-step
    about W0, started at it (``admm_w_step``), with the last W let go
    before the step; the trace records Phi at entry and after every
    half-step.  The loop settles once Phi changes by at most
    ``_OUTER_REL_TOL`` (relative) in a pass, else stops at ``outer_max``
    passes and flags ``stage0-outer-cap`` (the name perfbench's
    solver.stop_reason.stage0 counts).  It settled when the loop settled
    and so did every W-step's projected-gradient loop.
    """
    rays, frames, mask = problem
    cfg = config
    if config.second_stage:
        cfg = replace(config, lambda2=min(config.lambda2, FINAL_LAMBDA2))
    # no step changes a weight matrix in place
    anchor = state.weights

    def measure():
        total, _ = objective(
            state.structure, state.weights, cfg, frames, rays, anchor
        )
        state.objective_trace.append(total)
        return total

    prev, settled, w_settled = measure(), False, True
    for passes in range(1, cfg.outer_max + 1):
        state.structure, state.depths, state.flags = x_step(
            state.structure, state.weights, cfg, rays, frames, state.flags
        )
        measure()
        # the step starts at the anchor: the last W is not held through it
        state.weights = None
        state.weights, _, _, info = admm_w_step(state.structure, mask, cfg, anchor)
        state.admm_iterations += info["iterations"]
        w_settled &= info["converged"]
        cur = measure()
        settled = abs(prev - cur) <= _OUTER_REL_TOL * abs(cur)
        if settled:
            break
        prev = cur
    state.outer_iterations = passes
    if not settled:
        state.flags.append("stage0-outer-cap")
    return settled and w_settled


def solve(obs, frames, config=None):
    """Reconstruct structure and weights from unsynchronized observations.

    After depth initialization two loops run on one ``SolveState``: the
    decoupled warm-up (``_warm_up``), then the coupled stage about the
    warm-up's last code (``_coupled_stage``); their docstrings give each
    loop's steps, stop rule and flag.

    The solve works on the frames relabelled in (video_id, frame_in_video)
    order, and maps structure, depths, weights and frame flags back to the
    input's global indices: no labelling or list order of the frames, down
    to how exact ties break, changes the result.  Outputs are in input
    units; ``scale_factor`` scaled the camera centers.
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
    # relabel in (video_id, frame_in_video) order: frame k is input frame order[k]
    by_index = sorted(frames, key=lambda frame: frame.global_index)
    order = np.lexsort(np.array([(f.frame_in_video, f.video_id) for f in by_index]).T)
    frames = [replace(by_index[g], global_index=k) for k, g in enumerate(order)]
    obs = replace(obs, measures=obs.measures[:, order], present=obs.present[:, order])
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
    # init-unit-depth-frame-<f> flags name the input's frame labels
    for i, flag in enumerate(flags):
        if flag.startswith("init-unit-depth-frame-"):
            flags[i] = f"init-unit-depth-frame-{order[int(flag.rsplit('-', 1)[1])]}"
    structure = assemble_structure(depths, rays)
    structure = _fill_missing(structure, rays.present, scaled_frames)
    state = SolveState(structure, depths, flags=flags, scale_factor=factor)
    problem = (rays, scaled_frames, mask)

    warmed = _warm_up(state, config, problem)
    state.converged = _coupled_stage(state, config, problem) and warmed
    back = np.argsort(order)
    state.structure = state.structure[:, back] / factor
    state.depths = state.depths[:, back] / factor
    state.weights = state.weights[np.ix_(back, back)]
    return state
