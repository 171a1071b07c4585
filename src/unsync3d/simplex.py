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
shared H at once, in one active-set round for all unfinished columns at a
time.  Its engine (``_code_rows``) holds each problem as one contiguous
row of row-major arrays (the iterate, its support, the allowed atoms, the
linear term).  The round sorts the rows by support size and solves their
KKT faces one stack per size, since LAPACK's bytes depend on the system
size; the gradient, the optimality test, the atom entry and the blocker
drop are then one set of array operations over every row, its support
padded to the largest.  Masked atoms never enter the linear algebra, which
keeps off-mask zeros exact, and each row only ever reduces along itself,
in order, so its result has the same bytes however many rows share the
call.  ``self_express`` (the warm-up's coder) is one run of that engine.
A solve's warm-up codes with a ``_Coder``, a support mask that keeps the
mask's row layout, built once, and the last code, which the next pass
takes back as its warm start without validating or transposing it again.
The one projected-gradient loop, ``_projected_gradient``, solves the
proximal W-step of ``solver.admm_w_step``, and is the engine's fallback
for a row that exhausts its iteration budget.  Sorted projections, cold
starts and in-order row sums work ``_BLOCK`` columns or rows at a time, so
their temporaries stay small beside the F x F arrays.

Every stack of small linear systems in the package goes through one
guarded solve, ``_solve_stack``: these KKT faces, and the structure step's
eliminations and depth systems (``solver``), which the reconstructability
analysis reads too.  It has one residual test; a member that fails it is
solved again alone, then by least squares, so a singular face (duplicate
atoms) gets its least-norm optimum.
"""

import math
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


def support_mask(video_ids, exclude_same_video=True):
    """Build the support mask for a frame list.

    The diagonal is always forbidden.  With ``exclude_same_video`` every atom
    from the represented frame's own video is forbidden too, which removes
    near-duplicate captures from the dictionary.

    Raises InfeasibleError if any column ends up with no allowed atom.
    """
    ids = np.asarray(video_ids, dtype=int)
    F = ids.size
    allowed = ~np.eye(F, dtype=bool)
    if exclude_same_video:
        allowed &= ids[:, None] != ids[None, :]
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


# columns one sorted projection, and rows one cold start or in-order row
# sum, work at a time: their temporaries stay this many columns or rows
_BLOCK = 16


def project_to_masked_simplex(V, allowed):
    """Column-wise Euclidean projection onto the masked probability simplex.

    Sort based (Duchi et al. 2008).  Forbidden entries are sunk below any
    reachable threshold so the sorted prefix never selects them, and they
    come out exactly 0.  The columns are worked ``_BLOCK`` at a time, each
    independently, so the sort's temporaries stay F x ``_BLOCK``.
    """
    V = np.asarray(V, dtype=float)
    allowed = np.asarray(allowed)
    W = np.empty_like(V)
    for lo in range(0, V.shape[1], _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        W[:, cols] = _project_block(V[:, cols], allowed[:, cols])
    return W


def _project_block(V, allowed):
    # project_to_masked_simplex on a few columns
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


def _project_near(V, allowed, support, count):
    """``project_to_masked_simplex`` of V, in place, given its likely supports.

    A column whose threshold theta = (sum of V over its support - 1) / |support|
    is exceeded by V on exactly its support, among its allowed atoms,
    projects to max(V - theta, 0) on that support, with no sort.  The other
    columns go through ``project_to_masked_simplex``, ``_BLOCK`` at a time
    (a projection onto the simplex ignores a shift of its input by a
    constant).  Entries off the support come out +0.0.  ``support`` and
    ``count`` (its column sums as floats) are updated in place to the
    supports of the result, so a loop can pass them on to its next
    projection.
    """
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
    # one test over all entries first: most calls miss no column
    if above.any() or not count.all():
        missed = above.any(axis=0)
        missed |= count == 0
        del above
        # the missed columns are sorted a block at a time, straight into V
        # and their supports; the multiply below keeps them, as they are
        # +0.0 off their new supports
        missed = np.flatnonzero(missed)
        for lo in range(0, missed.size, _BLOCK):
            cols = missed[lo : lo + _BLOCK]
            fixed = project_to_masked_simplex(V[:, cols], allowed[:, cols])
            V[:, cols] = fixed
            support[:, cols] = on = fixed > 0.0
            count[cols] = on.sum(axis=0)
    # zero the rest by a multiply, four times cheaper than a masked write;
    # adding +0.0 turns the -0.0 of negative entries into +0.0
    V *= support
    V += 0.0
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
    taken, whether it stopped before the cap).  Overwrites W and const,
    which becomes the step's shift const / L.
    """
    shift = const
    shift /= L
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
    # solution is finite and max |H x - b| <= 1e-8 (1 + max |b|).  No bound
    # is below 1e-8, and a non-finite x leaves a non-finite residual, so a
    # stack whose residuals are all within 1e-8 passes whole, without the
    # per-member reductions
    with np.errstate(invalid="ignore", over="ignore"):
        resid = H @ sol
        resid -= rhs
    np.abs(resid, out=resid)
    if (resid <= 1e-8).all():
        return np.ones(rhs.shape[:-2], dtype=bool)
    resid = resid.max(axis=(-2, -1))
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
    # problems are rows from here on, each one contiguous row of a
    # row-major array, so every float reduction runs along one row and a
    # row's bytes do not depend on the other rows
    C = np.ascontiguousarray(c.T)
    if allowed is None:
        A = np.ones(C.shape, dtype=bool)
    else:
        A = np.ascontiguousarray(np.asarray(allowed, dtype=bool).T)
    rules = _rules(A, max_iter)
    W = _code_rows(H, C, rules, *_start_rows(w0, A))
    return W[0] if vector else np.ascontiguousarray(W.T)


def _rules(A, max_iter=None):
    # a mask's row layout: its allowed atoms, one contiguous row per
    # problem, their counts and each row's active-set budget
    counts = A.sum(axis=1)
    if (counts == 0).any():
        raise InfeasibleError("a coding problem has no allowed atom")
    budget = 10 * counts + 20
    if max_iter is not None:
        budget = np.full(counts.size, max_iter)
    return A, counts, budget


def _start_rows(w0, A):
    # the warm start w0 (problems as columns) as rows, and the rows that
    # start cold: not finite, negative (below -1e-12) or not summing to 1
    # (to 1e-6) over their allowed atoms; entries off the mask are ignored
    if w0 is None:
        return np.zeros(A.shape), np.ones(A.shape[0], dtype=bool)
    W = np.zeros(A.shape)
    np.copyto(W, np.asarray(w0, dtype=float).T, where=A)
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
    # where a row's zeros sit, so a gathered block gives the same bytes; it
    # runs a block of rows at a time, as its running sums fill a block
    total = np.empty(W.shape[0])
    for lo in range(0, W.shape[0], _BLOCK):
        total[lo : lo + _BLOCK] = np.cumsum(W[lo : lo + _BLOCK], axis=1)[:, -1]
    total[cold] = 1.0
    W /= total[:, None]
    return W, cold


def _code_rows(H, C, rules, W, cold, scale=1.0):
    # the active-set engine on the problems whose linear terms are the rows
    # of C times ``scale``, started at W (overwritten and returned); cold
    # rows start at their best vertex, a block of rows at a time.  Every
    # array is row-major, so each row's float reductions run along one
    # contiguous row in order, and a row's bytes do not depend on the other
    # rows.  ``scratch``, two blocks shaped like C, holds the gradient of a
    # round for the length of the call
    A, counts, budget = rules
    m, n = C.shape
    scratch = np.empty((2, m, n))
    cold = np.flatnonzero(cold)
    for lo in range(0, cold.size, _BLOCK):
        rows = cold[lo : lo + _BLOCK]
        score = np.where(A[rows], np.diagonal(H) + scale * C[rows], np.inf)
        W[rows, np.argmin(score, axis=1)] = 1.0
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
        # one round for every unfinished row, largest support first, so the
        # rows whose support has more than t atoms are a prefix; each row's
        # atoms in ascending order, padded with its first atom
        flat = np.flatnonzero(support[rows])
        sizes = np.bincount(flat // n, minlength=rows.size)
        valid = np.arange(sizes.max()) < sizes[:, None]
        atoms = np.zeros(valid.shape, dtype=np.intp)
        atoms[valid] = flat % n
        order = np.argsort(-sizes, kind="stable")
        rows, sizes, valid = rows[order], sizes[order], valid[order]
        atoms = np.where(valid, atoms[order], atoms[order, :1])
        face = np.zeros(valid.shape)
        # the face LU stays per support size, on each size's run of rows:
        # LAPACK's bytes depend on the system size, so a padded face would
        # tie a row's bytes to the sizes it shares a call with
        cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1), rows.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            block = atoms[lo:hi, : sizes[lo]]
            face[lo:hi, : sizes[lo]] = _face_optima(
                H, block, scale * C[rows[lo:hi, None], block]
            )
        bad = ~np.isfinite(face).all(axis=1)
        stuck[rows[bad]] = True
        neg = ~bad & (face < -1e-12).any(axis=1)
        ok = ~bad & ~neg
        if ok.any():
            _take_face(
                H,
                C,
                A,
                W,
                support,
                done,
                rows[ok],
                atoms[ok],
                valid[ok],
                face[ok],
                scratch,
                scale,
            )
        if neg.any():
            _drop_blocker(
                W, support, stuck, rows[neg], atoms[neg], valid[neg], face[neg]
            )
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
            step,
            W[f, idx][:, None],
            scale * C[f, idx][:, None],
            A[f, idx][:, None],
            L,
        )[0][:, 0]
    return W


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


def _row_sums(V, sizes):
    # each row's sum over its leading ``sizes`` entries, added in order: a
    # sequential sum, unlike numpy's pairwise one, does not depend on the
    # padding after them
    return np.cumsum(V, axis=1)[np.arange(V.shape[0]), sizes - 1]


def _scatter(W, rows, atoms, valid, values):
    # W[row, atom] = value on the valid (unpadded) entries
    np.put(W, (rows[:, None] * W.shape[1] + atoms)[valid], values[valid])


def _take_face(
    H, C, A, W, support, done, rows, atoms, valid, face, scratch, scale
):
    # a feasible face optimum becomes the iterate; the row is done when no
    # allowed atom off the support (if any) has a gradient below the
    # support's level, else the lowest such atom joins the support.  Rows
    # come largest support first, padded (``valid``) with their first atom
    # and a zero face entry
    sizes = valid.sum(axis=1)
    w = np.clip(face, 0.0, None)
    w /= _row_sums(w, sizes)[:, None]
    _scatter(W, rows, atoms, valid, w)
    # gradient 2 H w + c, one support atom at a time over the prefix of rows
    # whose support has that many atoms (H is symmetric, so its rows serve
    # as its columns).  The rows of a warm pass span the whole F x F block,
    # so it is worked in place in the two blocks of ``scratch``, which
    # ``_code_rows`` allocates once per call: a fresh block of that size
    # costs its page faults each round
    g, buf = scratch[:, : rows.size]
    H.take(atoms[:, 0], axis=0, out=g, mode="clip")
    g *= w[:, :1]
    for t, k in enumerate(valid.sum(axis=0)[1:], start=1):
        term = H.take(atoms[:k, t], axis=0, out=buf[:k], mode="clip")
        term *= w[:k, t, None]
        g[:k] += term
    g *= 2.0
    c = C.take(rows, axis=0, out=buf, mode="clip")
    c *= scale
    g += c
    off = ~A[rows]
    at = np.arange(rows.size)
    # the test's scale, max |g| over the allowed atoms (0 if larger)
    scale = np.abs(g, out=buf)
    scale[off] = 0.0
    scale = scale.max(axis=1)
    # the face optimum pins the gradient to one level on the support; g
    # becomes the gap to it, in place
    g -= (_row_sums(g[at[:, None], atoms], sizes) / sizes)[:, None]
    g[off] = np.inf
    g[at[:, None], atoms] = np.inf
    j_in = np.argmin(g, axis=1)
    closed = g[at, j_in] >= -1e-10 * (1.0 + scale)
    done[rows[closed]] = True
    support[rows[~closed], j_in[~closed]] = True


def _drop_blocker(W, support, stuck, rows, atoms, valid, face):
    # an infeasible face optimum: step toward it until the first weight
    # reaches zero and drop that atom, the smallest index among ties; every
    # row shrinks somewhere, as its face optimum has an entry below -1e-12
    # where its weight is >= 0.  Padding (``valid``) never moves
    cur = np.where(valid, W[rows[:, None], atoms], 0.0)
    d = face - cur
    shrink = valid & (d < -1e-15)
    ratios = np.divide(cur, -d, out=np.full(d.shape, np.inf), where=shrink)
    low = ratios.min(axis=1)
    drop = np.argmax(shrink & (ratios <= low[:, None] + 1e-15), axis=1)
    new = np.clip(cur + np.clip(low, 0.0, 1.0)[:, None] * d, 0.0, None)
    at = np.arange(rows.size)
    new[at, drop] = 0.0
    total = _row_sums(new, valid.sum(axis=1))
    empty = total <= 0.0
    stuck[rows[empty]] = True
    new[~empty] /= total[~empty, None]
    _scatter(W, rows, atoms, valid, new)
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


def _gram(X, name):
    """X^T X for a finite X, or InputError naming the argument ``name``.

    Every entry of G = X^T X, and of the coder's and the W-step's
    gradients built from it, is at most a few times tr G = ||X||_F^2, so X
    is refused when 4 tr G overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X
        if math.isfinite(4.0 * float(G.trace())):
            return G
    raise InputError(f"{name} is too large: its Gram matrix overflows")


def self_express(dictionary, mask, warm_start=None):
    """Code every column of the dictionary over the others.

    Column f of the result is ``simplex_code`` of column f against the mask's
    f-th column.  All F columns are coded by one run of the active-set
    engine of ``minimize_on_simplex`` on the shared Gram matrix G = D^T D,
    with linear terms -2 G and the mask as the allowed atoms.  The engine
    reads the linear terms' rows as G's rows times -2, with no copy of
    -2 G: ``_gram`` gives a bitwise symmetric G, so its rows are its
    columns.  ``warm_start`` (the F x F weights of an earlier pass) seeds
    each column's active set; an invalid warm column (negative, non-finite,
    not summing to 1 over the allowed atoms) starts cold.

    A ``_Coder`` mask (a solve's warm-up) keeps the mask's row layout,
    built and checked once, and the last code returned.  A warm start that
    is that code, unmodified, is taken back from the engine's own rows
    instead of being validated and transposed again, with the bytes
    validation would give it; any other warm start is validated.  So the
    state changes no result.

    Returns the F x F weight matrix.  Raises InputError for a mask that is
    not F x F, a ``warm_start`` of another shape, or a ``dictionary`` that
    is not finite or whose Gram matrix overflows.
    """
    dictionary = np.asarray(dictionary, dtype=float)
    F = dictionary.shape[1]
    if mask.allowed.shape != (F, F):
        raise InputError(
            f"mask shape {mask.allowed.shape} does not match F={F}"
        )
    if not np.isfinite(dictionary).all():
        raise InputError("non-finite dictionary")
    if warm_start is not None and np.shape(warm_start) != (F, F):
        raise InputError(
            f"warm_start shape {np.shape(warm_start)} is not {F} x {F}"
        )
    G = _gram(dictionary, "dictionary")
    # any other mask gets a coder state for this call alone
    coder = mask if isinstance(mask, _Coder) else _Coder(mask)
    W, cold = coder.start(warm_start)
    coder.rows = _code_rows(G, G, coder.rules, W, cold, -2.0)
    coder.code = np.ascontiguousarray(coder.rows.T)
    return coder.code


class _Coder(SupportMask):
    """A support mask with the coder state of a solve's warm-up.

    ``rules`` is the mask's row layout (``_rules``); ``code`` is the last
    code ``self_express`` returned and ``rows`` the engine's row-major
    array it was copied from.  The engine's gradient blocks are not kept:
    they live for one call, so the X-step between two calls does not hold
    them.
    """

    def __init__(self, mask):
        validate_mask(mask, min_allowed=1)
        super().__init__(mask.allowed)
        self.rules = _rules(np.ascontiguousarray(mask.allowed.T))
        self.code = self.rows = None

    def start(self, warm_start):
        # (W, cold) as ``_start_rows`` gives them.  The last code and its
        # rows are let go first, so a validated warm start (after a
        # discarded pass) is not built beside them
        rows = self._take_back(warm_start)
        if rows is None:
            return _start_rows(warm_start, self.rules[0])
        return rows, np.zeros(rows.shape[0], dtype=bool)

    def _take_back(self, warm_start):
        # the rows of the last code when ``warm_start`` is that code,
        # unchanged bit for bit, else None.  They are finite, nonnegative
        # and zero off the mask, and each sums to 1 to rounding over its
        # positive entries, so validation would only divide each row by its
        # in-order sum, which over those entries alone has the same bytes
        code, rows = self.code, self.rows
        self.code = self.rows = None
        if (
            warm_start is None
            or warm_start is not code
            or not np.array_equal(code.view(np.int64), rows.T.view(np.int64))
        ):
            return None
        m, n = rows.shape
        flat = np.flatnonzero(rows > 0.0)
        sizes = np.bincount(flat // n, minlength=m)
        if not sizes.all():
            return None
        valid = np.arange(sizes.max()) < sizes[:, None]
        values = np.zeros(valid.shape)
        values[valid] = rows.ravel()[flat]
        values /= _row_sums(values, sizes)[:, None]
        np.put(rows, flat, values[valid])
        return rows


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
