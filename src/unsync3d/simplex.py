"""Simplex-constrained least-squares coding over a masked dictionary.

Each column f of the weight matrix W solves

    min_w ||t - D w||^2   s.t.  w >= 0,  sum(w) = 1,  w_j = 0 off the mask

where the dictionary D is the structure matrix itself and the mask forbids at
least the diagonal (a shape never represents itself) and optionally all atoms
from the same video.  The constraint set is a masked probability simplex; it
induces sparsity without any explicit l1 term.

Such QPs are solved two ways.  The exact one, ``minimize_on_simplex``, is
an active-set solver on the quadratic form phi(w) = w^T H w + c^T w (for
coding, H = D^T D and c = -2 D^T t), so the gradient 2 H w + c matches the
optimality conditions used in the tests.  It codes many columns against one
shared H at once.  Each round groups the unfinished columns by support size
and solves their KKT systems as one stack, then takes every column's
accept / add-atom / drop-blocker decision as an array operation.  Masked
atoms never enter the linear algebra, which keeps off-mask zeros exact, and
each column only ever reduces along its own row, so its result has the same
bytes however many columns share the call.  ``self_express`` (the warm-up's
coder) is a single call.  The one projected-gradient loop,
``_projected_gradient``, solves the proximal W-step of
``solver.admm_w_step``, and is the engine's fallback for a column that
exhausts its iteration budget or cannot move.

Every stack of small linear systems in the package goes through one
guarded solve, ``_solve_stack``: these KKT faces, and the structure step's
eliminations and depth systems (``solver``), which the reconstructability
analysis reads too.  It has one residual test; a member that fails it is
solved again alone, then by least squares, so a singular face (duplicate
atoms) gets its least-norm optimum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError

__all__ = [
    "SupportMask",
    "support_mask",
    "validate_mask",
    "project_to_masked_simplex",
    "minimize_on_simplex",
    "simplex_code",
    "self_express",
    "sparsity_profile",
    "coding_kkt",
]


@dataclass
class SupportMask:
    """Boolean F x F mask; allowed[j, f] true iff atom j may represent shape f."""

    allowed: np.ndarray

    def column(self, f):
        return np.flatnonzero(self.allowed[:, f])


def support_mask(video_ids, exclude_same_video=True, forbid=None):
    """Build the support mask for a frame list.

    The diagonal is always forbidden.  With ``exclude_same_video`` every atom
    from the represented frame's own video is forbidden too, which removes
    near-duplicate captures from the dictionary.  ``forbid`` adds extra
    forbidden entries.

    Raises InfeasibleError if any column ends up with no allowed atom.
    """
    ids = np.asarray(video_ids, dtype=int)
    F = ids.size
    allowed = ~np.eye(F, dtype=bool)
    if exclude_same_video:
        allowed &= ids[:, None] != ids[None, :]
    if forbid is not None:
        allowed &= ~np.asarray(forbid, dtype=bool)
    mask = SupportMask(allowed=allowed)
    validate_mask(mask, min_allowed=1)
    return mask


def validate_mask(mask, min_allowed=1):
    """Reject masks whose columns have fewer than ``min_allowed`` atoms."""
    allowed = mask.allowed
    if allowed.ndim != 2 or allowed.shape[0] != allowed.shape[1]:
        raise InputError(f"mask must be square, got {allowed.shape}")
    if allowed.diagonal().any():
        raise InputError("mask diagonal must be all false")
    counts = allowed.sum(axis=0)
    bad = np.flatnonzero(counts < min_allowed)
    if bad.size:
        raise InfeasibleError(
            f"support mask columns {bad.tolist()[:8]} have fewer than "
            f"{min_allowed} allowed atoms"
        )


def project_to_masked_simplex(V, allowed):
    """Column-wise Euclidean projection onto the masked probability simplex.

    Sort based (Duchi et al. 2008).  Forbidden entries are sunk below any
    reachable threshold so the sorted prefix never selects them, and they
    come out exactly 0.
    """
    V = np.asarray(V, dtype=float)
    sunk = np.where(allowed, V, -1e30)
    U = np.sort(sunk, axis=0)[::-1]
    css = np.cumsum(U, axis=0) - 1.0
    ks = np.arange(1, V.shape[0] + 1)[:, None]
    sizes = (U - css / ks > 0.0).sum(axis=0)
    theta = css[sizes - 1, np.arange(V.shape[1])] / sizes
    W = np.clip(V - theta[None, :], 0.0, None)
    W[~allowed] = 0.0
    return W


# projected-gradient steps per call: the proximal W-step stops far earlier on
# the benchmark scenes, the engine's fallback on a rank-deficient block may not
_PG_STEPS = 2000


def _project_near(V, allowed, support, count=None):
    """``project_to_masked_simplex`` of V, in place, given its likely supports.

    A column whose threshold theta = (sum of V over its support - 1) / |support|
    is exceeded by V on exactly its support, among its allowed atoms,
    projects to max(V - theta, 0) on that support, with no sort.  The other
    columns go through ``project_to_masked_simplex`` (a projection onto the
    simplex ignores a shift of its input by a constant).  Entries off the
    support come out +0.0.  ``support`` and ``count`` (its column sums as
    floats, computed when not given) are updated in place to the supports of
    the result, so a loop can pass them on to its next projection.
    """
    if count is None:
        count = support.sum(axis=0).astype(float)
    # einsum costs less than a masked np.sum(where=) and, unlike
    # multiply-and-sum, allocates no F x F temporary; it adds the same terms
    # in the same order, except that numpy sums a single column pairwise
    theta = np.einsum("ij,ij->j", V, support)
    theta -= 1.0
    theta /= np.maximum(count, 1.0)
    V -= theta
    above = V > 0.0
    above &= allowed
    above ^= support
    missed = None
    # one test over all entries first: most calls miss no column
    if above.any() or not count.all():
        missed = above.any(axis=0)
        missed |= count == 0
        fixed = project_to_masked_simplex(V[:, missed], allowed[:, missed])
    # zero the rest by a multiply, four times cheaper than a masked write;
    # adding +0.0 turns the -0.0 of negative entries into +0.0
    V *= support
    V += 0.0
    if missed is not None:
        V[:, missed] = fixed
        support[:, missed] = fixed > 0.0
        count[missed] = support[:, missed].sum(axis=0)
    return V


def _projected_gradient(step_map, W, const, allowed, L):
    """Minimize a convex QP in W over the product of its columns' simplices.

    The gradient is g(W) + const, with g linear and L >= its largest
    curvature; g may couple the columns.  Each step is
    W <- Pi(W - (g(W) + const) / L), which never raises the objective;
    ``step_map(W, out)`` writes W - g(W) / L into out, so the step is that
    map and one subtraction.  Pi projects each column onto its masked
    simplex, tried on the previous iterate's support first
    (``_project_near``), so only the columns whose support changed are
    sorted.  Stops once no entry moves by more than 1e-13, or after
    ``_PG_STEPS`` steps.  Returns (the last projected iterate, the steps
    taken, whether it stopped before the cap).  Overwrites W.
    """
    shift = const / L
    support = W > 0.0
    count = support.sum(axis=0).astype(float)
    V = np.empty_like(W)
    for steps in range(1, _PG_STEPS + 1):
        step_map(W, V)
        V -= shift
        _project_near(V, allowed, support, count)
        # W becomes the step's change, then the buffer for the next step
        W -= V
        np.abs(W, out=W)
        delta = W.max()
        W, V = V, W
        if delta <= 1e-13:
            return W, steps, True
    return W, _PG_STEPS, False


def _solved(H, rhs, sol):
    # the residual test of a stack (or of one system): per member, the
    # solution is finite and max |H x - b| <= 1e-8 (1 + max |b|)
    with np.errstate(invalid="ignore", over="ignore"):
        resid = np.abs(H @ sol - rhs).max(axis=(-2, -1))
        bound = 1e-8 * (1.0 + np.abs(rhs).max(axis=(-2, -1)))
    return np.isfinite(sol).all(axis=(-2, -1)) & (resid <= bound)


def _solve_stack(H, rhs, sizes=None):
    """Solve a stack of systems H[i] x = rhs[i]; rhs is (S, N, K).

    Member i is its leading ``sizes[i]`` block (default N) padded with
    decoupled identity rows and zero right-hand sides.  A member whose
    stacked solution fails the residual test (``_solved``), or every member
    when one singular system fails the whole stacked call, is solved again
    alone, padding included, so a member that solves keeps the bytes it
    has in a stack that solves.  A member that fails again takes least
    squares on its leading block, with zero padding rows: for a consistent
    singular system, the least-norm solution (Golub & Van Loan, Matrix
    Computations, 5.5).  Returns (solutions, indices of the members solved
    by least squares).
    """
    try:
        sol = np.linalg.solve(H, rhs)
        retry = np.flatnonzero(~_solved(H, rhs, sol))
    except np.linalg.LinAlgError:
        sol = np.empty_like(rhs)
        retry = range(H.shape[0])
    fell_back = []
    for i in retry:
        try:
            sol[i] = np.linalg.solve(H[i], rhs[i])
            if _solved(H[i], rhs[i], sol[i]):
                continue
        except np.linalg.LinAlgError:
            pass
        n = H.shape[-1] if sizes is None else sizes[i]
        sol[i] = 0.0
        sol[i, :n] = np.linalg.lstsq(H[i, :n, :n], rhs[i, :n], rcond=None)[0]
        fell_back.append(i)
    return sol, fell_back


def minimize_on_simplex(H, c, w0=None, max_iter=None, allowed=None):
    """Minimize w^T H w + c^T w over the (masked) probability simplex.

    Parameters
    ----------
    H : (n, n) array
        Symmetric positive semidefinite quadratic form, shared by every
        problem.
    c : (n,) or (n, m) array
        Linear term; the gradient is 2 H w + c.  A vector is one problem
        over all n atoms; a matrix is m problems, column f with linear term
        ``c[:, f]``.
    w0 : array shaped like ``c``, optional
        Warm start.  A column that is not finite, nonnegative (to -1e-12)
        and summing to 1 (to 1e-6) over its allowed atoms starts cold, at
        its best vertex; entries off the mask are ignored.
    max_iter : int, optional
        Active-set steps per problem before the projected-gradient
        fallback, default 10 k + 20 for a problem with k allowed atoms.
    allowed : boolean array shaped like ``c``, optional
        Atoms column f may use, ``allowed[:, f]``; default all.

    Returns
    -------
    array shaped like ``c``
        Feasible minimizers with exact zeros off their active sets.  With
        multiple optima (duplicate atoms) ties break toward the smallest
        atom index.  A column's result has the same bytes whichever columns
        are coded with it.

    Raises InputError if H is not n x n, a given ``w0`` or ``allowed`` is
    not shaped like ``c``, or H or c is not finite, and InfeasibleError if
    a column has no allowed atom.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2):
        raise InputError(f"c must be a vector or a matrix, got shape {c.shape}")
    n = c.shape[0]
    if H.shape != (n, n):
        raise InputError(f"H must be {n} x {n} to match c, got shape {H.shape}")
    for name, given in (("w0", w0), ("allowed", allowed)):
        if given is not None and np.shape(given) != c.shape:
            raise InputError(
                f"{name} shape {np.shape(given)} does not match c {c.shape}"
            )
    if not (np.isfinite(H).all() and np.isfinite(c).all()):
        raise InputError("H and c must be finite")
    vector = c.ndim == 1
    if vector:
        c = c[:, None]
        w0 = None if w0 is None else np.asarray(w0, dtype=float)[:, None]
        allowed = None if allowed is None else np.asarray(allowed)[:, None]
    # problems are rows from here on, and every float reduction runs along
    # one contiguous row, so a row's bytes do not depend on the other rows
    C = c.T
    m, n = C.shape
    if allowed is None:
        A = np.ones((m, n), dtype=bool)
    else:
        A = np.asarray(allowed, dtype=bool).T
    counts = A.sum(axis=1)
    if (counts == 0).any():
        raise InfeasibleError("a coding problem has no allowed atom")
    budget = 10 * counts + 20 if max_iter is None else np.full(m, max_iter)

    if w0 is not None:
        W = np.where(A, np.asarray(w0, dtype=float).T, 0.0)
        finite = np.isfinite(W).all(axis=1)
        W[~finite] = 0.0
        cold = ~(
            finite
            & (W.min(axis=1) >= -1e-12)
            & (np.abs(W.sum(axis=1) - 1.0) <= 1e-6)
        )
        W[cold] = 0.0
        np.clip(W, 0.0, None, out=W)
        # a sequential sum, unlike numpy's pairwise one, does not depend on
        # where a row's zeros sit, so a gathered block gives the same bytes
        total = np.cumsum(W, axis=1)[:, -1]
        total[cold] = 1.0
        W /= total[:, None]
    else:
        W = np.zeros((m, n))
        cold = np.ones(m, dtype=bool)
    if cold.any():
        score = np.where(A[cold], np.diagonal(H) + C[cold], np.inf)
        W[np.flatnonzero(cold), np.argmin(score, axis=1)] = 1.0
    done = counts == 1
    W[done] = A[done]
    support = W > 0.0
    stuck = np.zeros(m, dtype=bool)
    steps = np.zeros(m, dtype=int)

    while True:
        stuck |= ~done & (steps >= budget)
        rows = np.flatnonzero(~done & ~stuck)
        if rows.size == 0:
            break
        sizes = support[rows].sum(axis=1)
        for s in np.unique(sizes):
            group = rows[sizes == s]
            atoms = np.nonzero(support[group])[1].reshape(group.size, s)
            face = _face_optima(H, atoms, C[group[:, None], atoms])
            bad = ~np.isfinite(face).all(axis=1)
            stuck[group[bad]] = True
            neg = ~bad & (face < -1e-12).any(axis=1)
            ok = ~bad & ~neg
            if ok.any():
                _take_face(H, C, A, W, support, done, group[ok], atoms[ok], face[ok])
            if neg.any():
                _drop_blocker(W, support, stuck, group[neg], atoms[neg], face[neg])
        steps[rows] += 1

    # projected gradient on each stuck row's gathered block (all allowed)
    for f in np.flatnonzero(stuck):
        idx = np.flatnonzero(A[f])
        block = H[np.ix_(idx, idx)]
        L = max(2.0 * np.linalg.eigvalsh(0.5 * (block + block.T))[-1], 1e-12)
        M = np.eye(idx.size) - (2.0 / L) * block

        def step(Wc, out):
            np.matmul(M, Wc, out=out)

        W[f, idx] = _projected_gradient(
            step, W[f, idx][:, None], C[f, idx][:, None], A[f, idx][:, None], L
        )[0][:, 0]
    return W[0] if vector else np.ascontiguousarray(W.T)


def _face_optima(H, atoms, c_face):
    # equality-constrained optimum on each row's support, as one stack:
    # [2 H_AA  1; 1^T  0] [w_A; mu] = [-c_A; 1]; a singular face (duplicate
    # atoms) takes least squares, whose least-norm optimum splits the
    # weight evenly
    g, s = atoms.shape
    kkt = np.zeros((g, s + 1, s + 1))
    kkt[:, :s, :s] = 2.0 * H[atoms[:, :, None], atoms[:, None, :]]
    kkt[:, :s, s] = 1.0
    kkt[:, s, :s] = 1.0
    rhs = np.empty((g, s + 1, 1))
    rhs[:, :s, 0] = -c_face
    rhs[:, s, 0] = 1.0
    return _solve_stack(kkt, rhs)[0][:, :s, 0]


def _take_face(H, C, A, W, support, done, rows, atoms, face):
    # a feasible face optimum becomes the iterate; the row is done when no
    # allowed atom off the support (if any) has a gradient below the
    # support's level, else the lowest such atom joins the support
    s = atoms.shape[1]
    w = np.clip(face, 0.0, None)
    w /= w.sum(axis=1)[:, None]
    W[rows[:, None], atoms] = w
    # gradient 2 H w + c, one support atom at a time (H is symmetric, so
    # its rows serve as its columns); updated in place, as the rows of a
    # warm pass span the whole F x F block
    g = H[atoms[:, 0]]
    g *= w[:, :1]
    for t in range(1, s):
        g += H[atoms[:, t]] * w[:, t, None]
    g *= 2.0
    g += C[rows]
    off = ~A[rows]
    at = np.arange(rows.size)
    # the face optimum pins the gradient to one level on the support
    level = g[at[:, None], atoms].mean(axis=1)
    gap = g - level[:, None]
    gap[off] = np.inf
    gap[at[:, None], atoms] = np.inf
    j_in = np.argmin(gap, axis=1)
    np.abs(g, out=g)
    g[off] = 0.0
    tol = 1e-10 * (1.0 + g.max(axis=1))
    closed = gap[at, j_in] >= -tol
    done[rows[closed]] = True
    support[rows[~closed], j_in[~closed]] = True


def _drop_blocker(W, support, stuck, rows, atoms, face):
    # an infeasible face optimum: step toward it until the first weight
    # reaches zero and drop that atom, the smallest index among ties
    cur = W[rows[:, None], atoms]
    d = face - cur
    shrink = d < -1e-15
    moves = shrink.any(axis=1)
    stuck[rows[~moves]] = True
    rows, atoms, cur, d, shrink = (
        a[moves] for a in (rows, atoms, cur, d, shrink)
    )
    ratios = np.divide(cur, -d, out=np.full(d.shape, np.inf), where=shrink)
    low = ratios.min(axis=1)
    drop = np.argmax(shrink & (ratios <= low[:, None] + 1e-15), axis=1)
    new = np.clip(cur + np.clip(low, 0.0, 1.0)[:, None] * d, 0.0, None)
    at = np.arange(rows.size)
    new[at, drop] = 0.0
    total = new.sum(axis=1)
    empty = total <= 0.0
    stuck[rows[empty]] = True
    new[~empty] /= total[~empty, None]
    W[rows[:, None], atoms] = new
    support[rows[~empty], atoms[at, drop][~empty]] = False


def simplex_code(target, dictionary, allowed):
    """Code one target over the masked simplex of dictionary columns.

    Parameters
    ----------
    target : (m,) array
        Vector to represent (one shape column).
    dictionary : (m, F) array
        Atom columns, typically the structure matrix itself.
    allowed : (F,) boolean array
        Atoms permitted to carry weight.

    Returns
    -------
    (F,) array
        Nonnegative weights summing to 1 with exact zeros off ``allowed``.
    """
    dictionary = np.asarray(dictionary, dtype=float)
    target = np.asarray(target, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    if dictionary.ndim != 2 or target.shape != (dictionary.shape[0],):
        raise InputError(
            f"target {target.shape} incompatible with dictionary {dictionary.shape}"
        )
    if allowed.shape != (dictionary.shape[1],):
        raise InputError("allowed mask length must match dictionary columns")
    if not allowed.any():
        raise InfeasibleError("empty allowed set")
    if not (np.isfinite(target).all() and np.isfinite(dictionary).all()):
        raise InputError("non-finite entries in coding input")
    idx = np.flatnonzero(allowed)
    D = dictionary[:, idx]
    H = D.T @ D
    c = -2.0 * (D.T @ target)
    w = np.zeros(allowed.size)
    w[idx] = minimize_on_simplex(H, c)
    return w


def self_express(dictionary, mask, warm_start=None):
    """Code every column of the dictionary over the others.

    Column f of the result is ``simplex_code`` of column f against the mask's
    f-th column.  All F columns are coded by one ``minimize_on_simplex`` call
    on the shared Gram matrix G = D^T D, with linear terms -2 G and the
    mask as the allowed atoms.  ``warm_start`` (the F x F weights of an
    earlier pass) seeds each column's active set; an invalid warm column
    (negative, non-finite, not summing to 1 over the allowed atoms) starts
    cold.

    Returns the F x F weight matrix.
    """
    dictionary = np.asarray(dictionary, dtype=float)
    F = dictionary.shape[1]
    validate_mask(mask, min_allowed=1)
    if mask.allowed.shape != (F, F):
        raise InputError(
            f"mask shape {mask.allowed.shape} does not match F={F}"
        )
    if not np.isfinite(dictionary).all():
        raise InputError("non-finite dictionary")
    G = dictionary.T @ dictionary
    return minimize_on_simplex(G, -2.0 * G, w0=warm_start, allowed=mask.allowed)


def sparsity_profile(weights, eps):
    """Count entries above ``eps`` in each column of a weight matrix."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    weights = np.asarray(weights, dtype=float)
    return (weights > eps).sum(axis=0)


def coding_kkt(target, dictionary, weights, allowed):
    """Optimality diagnostics for one coded column.

    Returns (gradient, mu, worst_gap): the gradient 2 D^T (D w - t) over
    allowed atoms, the multiplier estimate mu (mean gradient over active
    atoms), and the most negative value of g_j - mu over inactive allowed
    atoms (0 when none exist).  At an optimum worst_gap >= -1e-6.
    """
    D = np.asarray(dictionary, dtype=float)
    w = np.asarray(weights, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    g = 2.0 * (D.T @ (D @ w - np.asarray(target, dtype=float)))
    active = allowed & (w > 1e-12)
    if not active.any():
        raise InputError("no active atoms in coded column")
    mu = g[active].mean()
    inactive = allowed & ~active
    worst = float((g[inactive] - mu).min()) if inactive.any() else 0.0
    return g, mu, worst
