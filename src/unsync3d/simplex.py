"""Simplex-constrained least-squares coding over a masked dictionary.

Each column f of the weight matrix W solves

    min_w ||t - D w||^2   s.t.  w >= 0,  sum(w) = 1,  w_j = 0 off the mask

where the dictionary D is the structure matrix itself and the mask forbids at
least the diagonal (a shape never represents itself) and optionally all atoms
from the same video.  The constraint set is a masked probability simplex; it
induces sparsity without any explicit l1 term.

The workhorse is an active-set solver on the quadratic form
phi(w) = w^T H w + c^T w with H = D^T D and c = -2 D^T t, so the gradient
2 H w + c matches the optimality conditions used in the tests.  Masked atoms
are excluded from the linear algebra entirely rather than pinned with
penalties, which keeps systems small and off-mask zeros exact.  The solver
indexes into one shared Gram matrix: a column passes the list of its allowed
atoms, and each step reads only the diagonal of those atoms, the support
block for the KKT system and the support columns for the gradient, so no
k x k copy is made per column.  A projected-gradient loop is the fallback if
the active set fails to settle within its iteration budget; only then is the
column's full block gathered.

``self_express`` with a warm start takes the active set's first step for all
warm-started columns at once: between warm-up passes most columns keep their
support, and that step (one KKT solve on the warm support, then the gradient
gap test) already accepts them.  Columns are grouped by support size, and each
group's KKT systems are solved as one stack.  Every column the batch cannot
settle goes through ``minimize_on_simplex``, which stays the exact finisher,
so the result has the same bytes as coding every column on its own.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError

__all__ = [
    "SupportMask",
    "support_mask",
    "validate_mask",
    "project_to_simplex",
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


def project_to_simplex(v):
    """Euclidean projection of a vector onto the probability simplex."""
    column = np.asarray(v, dtype=float)[:, None]
    return project_to_masked_simplex(column, np.ones(column.shape, dtype=bool))[:, 0]


def _phi(H, c, w):
    return float(w @ H @ w + c @ w)


def _kkt_solve(H, c, index, support):
    # equality-constrained optimum on the current support:
    # [2 H_AA  1; 1^T  0] [w_A; mu] = [-c_A; 1], H_AA read through index
    k = support.size
    atoms = index[support]
    kkt = np.empty((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * H[np.ix_(atoms, atoms)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    kkt[k, k] = 0.0
    rhs = np.empty(k + 1)
    rhs[:k] = -c[support]
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
        resid = np.abs(kkt @ sol - rhs).max()
        if not np.isfinite(sol).all() or resid > 1e-8 * (1.0 + np.abs(rhs).max()):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # singular face (duplicate atoms); least-norm splits weight evenly
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:k], sol[k]


def _projected_gradient(H, c, w0, max_iter=2000):
    # guaranteed-progress fallback; fixed step 1/L with L the curvature bound
    evals = np.linalg.eigvalsh(0.5 * (H + H.T))
    L = max(2.0 * evals[-1], 1e-12)
    w = project_to_simplex(w0)
    best = w.copy()
    best_val = _phi(H, c, w)
    for _ in range(max_iter):
        g = 2.0 * (H @ w) + c
        w_new = project_to_simplex(w - g / L)
        val = _phi(H, c, w_new)
        if val < best_val:
            best_val = val
            best = w_new.copy()
        if np.abs(w_new - w).max() < 1e-14:
            break
        w = w_new
    return best


def minimize_on_simplex(H, c, w0=None, max_iter=None, index=None):
    """Minimize w^T H w + c^T w over the probability simplex.

    Parameters
    ----------
    H : (n, n) array
        Symmetric positive semidefinite quadratic form; with ``index`` the
        problem's form is the block ``H[index][:, index]``, read in place.
    c : (k,) array
        Linear term; the gradient is 2 H w + c.
    w0 : (k,) array, optional
        Feasible warm start; ignored when infeasible.
    max_iter : int, optional
        Active-set budget before the projected-gradient fallback, default
        10 k + 20.
    index : (k,) int array, optional
        Rows and columns of ``H`` that make up the problem, default
        ``arange(k)``.  Indexing a shared Gram matrix gives the same result
        as passing the gathered block.

    Returns
    -------
    (k,) array
        Feasible minimizer with exact zeros off its active set.  With
        multiple optima (duplicate atoms) ties break toward the smallest
        atom index.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    k = c.size
    if k == 1:
        return np.ones(1)
    if max_iter is None:
        max_iter = 10 * k + 20
    index = np.arange(k) if index is None else np.asarray(index)

    w = None
    if w0 is not None:
        w0 = np.asarray(w0, dtype=float)
        if (
            w0.shape == (k,)
            and np.isfinite(w0).all()
            and w0.min() >= -1e-12
            and abs(w0.sum() - 1.0) <= 1e-6
        ):
            w = np.clip(w0, 0.0, None)
            w /= w.sum()
    if w is None or not (w > 0).any():
        j0 = int(np.argmin(np.diagonal(H)[index] + c))
        w = np.zeros(k)
        w[j0] = 1.0
    support = np.flatnonzero(w > 0.0)

    for _ in range(max_iter):
        wA, _ = _kkt_solve(H, c, index, support)
        if not np.isfinite(wA).all():
            break
        neg = wA < -1e-12
        if not neg.any():
            w = np.zeros(k)
            w[support] = np.clip(wA, 0.0, None)
            w /= w.sum()
            if support.size == k:
                return w
            # H is symmetric, so the support's rows, transposed, are its
            # columns (laid out as a column slice of the gathered block is)
            cols = H[np.ix_(index[support], index)].T
            g = 2.0 * (cols @ w[support]) + c
            # the face optimum pins the gradient to one level on the
            # support; atoms below that level improve the objective
            level = float(g[support].mean())
            gap = g - level
            gap[support] = np.inf
            j_in = int(np.argmin(gap))
            tol = 1e-10 * (1.0 + np.abs(g).max())
            if gap[j_in] >= -tol:
                return w
            support = np.sort(np.append(support, j_in))
        else:
            # partial step toward the face optimum, drop the first blocker
            cur = w[support]
            d = wA - cur
            shrink = d < -1e-15
            if not shrink.any():
                break
            ratios = cur[shrink] / -d[shrink]
            alpha = min(1.0, max(0.0, ratios.min()))
            blockers = support[shrink][ratios <= ratios.min() + 1e-15]
            drop = blockers.min()
            w = np.zeros(k)
            w[support] = np.clip(cur + alpha * d, 0.0, None)
            w[drop] = 0.0
            total = w.sum()
            if total <= 0.0:
                break
            w /= total
            support = support[support != drop]
            if support.size == 0:
                break
    return _projected_gradient(H[np.ix_(index, index)], c, w)


def simplex_code(target, dictionary, allowed, warm_start=None):
    """Code one target over the masked simplex of dictionary columns.

    Parameters
    ----------
    target : (m,) array
        Vector to represent (one shape column).
    dictionary : (m, F) array
        Atom columns, typically the structure matrix itself.
    allowed : (F,) boolean array
        Atoms permitted to carry weight.
    warm_start : (F,) array, optional
        Previous solution used to seed the active set.

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
    w0 = warm_start[idx] if warm_start is not None else None
    w = np.zeros(allowed.size)
    w[idx] = minimize_on_simplex(H, c, w0=w0)
    return w


def _warm_first_step(G, allowed, warm, W):
    """Code, in one batch, the warm columns that the active set's first step settles.

    Mirrors the first iteration of ``minimize_on_simplex`` started from each
    column's warm weights: the validity test, the KKT solve on the warm
    support, the residual and negativity tests, the gradient gap test and
    the normalisation.  Columns are grouped by support size s, and each
    group's KKT systems are solved as one stack, which gives the coder's
    bytes.  The batch's sum, residual and gradient may differ from the
    coder's in the last bits, so those tests use half the coder's tolerance
    and never accept a column the coder would reject.  The written weights
    are normalised by a sum over the column's allowed slots in the coder's
    order, so they have the coder's bytes.  Accepted columns are written to
    W; returns the boolean mask of written columns.
    """
    F = G.shape[0]
    counts = allowed.sum(axis=0)
    inside = np.where(allowed, warm, 0.0)
    with np.errstate(invalid="ignore"):
        valid = (
            np.isfinite(inside).all(axis=0)
            & (inside.min(axis=0) >= -1e-12)
            & (np.abs(inside.sum(axis=0) - 1.0) <= 0.5e-6)
        )
    on = allowed & (inside > 0.0)
    sizes = on.sum(axis=0)
    done = np.zeros(F, dtype=bool)
    if not valid.any():
        return done
    # accepted columns, their support atoms and clipped face weights, padded
    # to the largest support by repeating the first entry
    width = sizes[valid].max()
    found = []
    for s in np.unique(sizes[valid]):
        cols = np.flatnonzero(valid & (sizes == s))
        atoms = np.nonzero(on[:, cols].T)[1].reshape(cols.size, s)
        cols, atoms, face = _face_step(G, allowed, cols, atoms)
        pad = np.where(np.arange(width) < s, np.arange(width), 0)
        found.append((cols, atoms[:, pad], face[:, pad]))
    cols, atoms, face = (np.concatenate(parts) for parts in zip(*found))
    slots = np.cumsum(allowed, axis=0)[atoms, cols[:, None]] - 1
    for k in np.unique(counts[cols]):
        rows = np.flatnonzero(counts[cols] == k)
        dense = np.zeros((rows.size, k))
        dense[np.arange(rows.size)[:, None], slots[rows]] = face[rows]
        W[atoms[rows], cols[rows, None]] = face[rows] / dense.sum(axis=1)[:, None]
    done[cols] = True
    return done


def _face_step(G, allowed, cols, atoms):
    # cols (n,) columns whose warm supports atoms (n, s) share one size;
    # returns the columns the first step accepts, their atoms and their
    # clipped face weights (not yet normalised)
    n, s = atoms.shape
    kkt = np.empty((n, s + 1, s + 1))
    kkt[:, :s, :s] = 2.0 * G[atoms[:, :, None], atoms[:, None, :]]
    kkt[:, :s, s] = 1.0
    kkt[:, s, :s] = 1.0
    kkt[:, s, s] = 0.0
    rhs = np.empty((n, s + 1, 1))
    rhs[:, :s, 0] = 2.0 * G[atoms, cols[:, None]]  # -c on the support
    rhs[:, s, 0] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return cols[:0], atoms[:0], np.empty((0, s))
    with np.errstate(invalid="ignore", over="ignore"):
        resid = np.abs(kkt @ sol - rhs).max(axis=(1, 2))
        ok = np.isfinite(sol).all(axis=(1, 2)) & (
            resid <= 0.5e-8 * (1.0 + np.abs(rhs).max(axis=(1, 2)))
        )
    wA = sol[ok, :s, 0]
    face = np.clip(wA, 0.0, None)
    keep = ~(wA < -1e-12).any(axis=1) & (face.sum(axis=1) > 0.0)
    cols, atoms, face = cols[ok][keep], atoms[ok][keep], face[keep]
    # gradient 2 H w + c over all atoms, one support atom at a time (G is
    # symmetric, so its rows serve as its columns)
    w = face / face.sum(axis=1)[:, None]
    g = -2.0 * G[cols]
    for t in range(s):
        g += (2.0 * w[:, t, None]) * G[atoms[:, t]]
    rows = np.arange(cols.size)[:, None]
    own = allowed[:, cols].T
    gap = np.where(own, g - g[rows, atoms].mean(axis=1)[:, None], np.inf)
    gap[rows, atoms] = np.inf
    tol = 1e-10 * (1.0 + np.where(own, np.abs(g), 0.0).max(axis=1))
    ok = gap.min(axis=1) >= -0.5 * tol
    return cols[ok], atoms[ok], face[ok]


def self_express(dictionary, mask, warm_start=None):
    """Code every column of the dictionary over the others.

    Column f of the result is ``simplex_code`` of column f against the mask's
    f-th column.  Columns are independent; every column's coder indexes the
    one shared Gram matrix by its allowed atoms.  With ``warm_start`` (the
    F x F weights of an earlier pass) the active set's first step is taken
    for all warm columns at once, and columns it settles are written
    directly; the rest, cold columns and invalid warm columns (negative,
    non-finite, not summing to 1 over the allowed atoms) included, go
    through ``minimize_on_simplex``, the exact finisher.  The result has
    the same bytes either way.

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
    W = np.zeros((F, F))
    done = np.zeros(F, dtype=bool)
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (F, F):
            raise InputError(
                f"warm start shape {warm_start.shape} does not match F={F}"
            )
        done = _warm_first_step(G, mask.allowed, warm_start, W)
    for f in np.flatnonzero(~done):
        idx = mask.column(f)
        c = -2.0 * G[idx, f]
        w0 = warm_start[idx, f] if warm_start is not None else None
        W[idx, f] = minimize_on_simplex(G, c, w0=w0, index=idx)
    return W


def sparsity_profile(weights, eps):
    """Count entries above ``eps`` in each column of a weight matrix."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    weights = np.asarray(weights, dtype=float)
    return (weights > eps).sum(axis=0)


def coding_kkt(target, dictionary, weights, allowed, active_tol=1e-12):
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
    active = allowed & (w > active_tol)
    if not active.any():
        raise InputError("no active atoms in coded column")
    mu = g[active].mean()
    inactive = allowed & ~active
    worst = float((g[inactive] - mu).min()) if inactive.any() else 0.0
    return g, mu, worst
