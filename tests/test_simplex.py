"""Masked simplex coding: projection, QP solver, and column coding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unsync3d import simplex
from unsync3d.errors import InfeasibleError, InputError
from unsync3d.simplex import (
    SupportMask,
    coding_kkt,
    minimize_on_simplex,
    project_to_masked_simplex,
    self_express,
    simplex_code,
    sparsity_profile,
    support_mask,
    validate_mask,
)


def project_to_simplex(v):
    """``project_to_masked_simplex`` of one vector, every entry allowed."""
    column = np.asarray(v, dtype=float)[:, None]
    return project_to_masked_simplex(column, np.ones(column.shape, dtype=bool))[:, 0]


def grid_minimum(H, c, steps):
    """Exhaustive simplex grid search, the brute-force oracle."""
    k = c.size
    best = np.inf
    for combo in itertools.product(range(steps + 1), repeat=k - 1):
        s = sum(combo)
        if s > steps:
            continue
        w = np.array(list(combo) + [steps - s], dtype=float) / steps
        best = min(best, float(w @ H @ w + c @ w))
    return best


def test_project_to_simplex_known_cases():
    assert np.allclose(project_to_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0])
    # symmetric pull toward the uniform point
    out = project_to_simplex([1.0, 1.0, 1.0])
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])


def test_project_to_simplex_feasible_and_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(scale=rng.uniform(0.1, 10.0), size=rng.integers(1, 9))
        w = project_to_simplex(v)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(project_to_simplex(w), w, atol=1e-12)


def test_project_to_simplex_is_nearest_point():
    # compare against a fine grid on the 2-simplex
    rng = np.random.default_rng(4)
    steps = 400
    grid = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            grid.append((i / steps, j / steps, 1.0 - (i + j) / steps))
    grid = np.array(grid)
    for _ in range(20):
        v = rng.normal(scale=2.0, size=3)
        w = project_to_simplex(v)
        d_grid = np.min(np.sum((grid - v) ** 2, axis=1))
        assert np.sum((w - v) ** 2) <= d_grid + 1e-9

    # masked: a 5-vector with two forbidden entries projects like its three
    # allowed entries, with exact zeros off the mask
    allowed = np.array([True, False, True, True, False])
    for _ in range(20):
        v = rng.normal(scale=2.0, size=5)
        w = project_to_masked_simplex(v[:, None], allowed[:, None])[:, 0]
        assert np.all(w[~allowed] == 0.0)
        d_grid = np.min(np.sum((grid - v[allowed]) ** 2, axis=1))
        assert np.sum((w[allowed] - v[allowed]) ** 2) <= d_grid + 1e-9
        assert abs(w.sum() - 1.0) < 1e-12


def test_minimize_on_simplex_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 4))
        D = rng.normal(size=(rng.integers(2, 7), k))
        t = rng.normal(size=D.shape[0])
        H = D.T @ D
        c = -2.0 * D.T @ t
        w = minimize_on_simplex(H, c)
        obj = float(w @ H @ w + c @ w)
        assert obj <= grid_minimum(H, c, 60) + 1e-3


def test_minimize_on_simplex_exact_zeros_and_feasibility():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        D = rng.normal(size=(5, k))
        t = rng.normal(size=5)
        w = minimize_on_simplex(D.T @ D, -2.0 * D.T @ t)
        assert w.shape == (k,)
        assert abs(w.sum() - 1.0) < 1e-9
        assert w.min() >= 0.0
        # inactive atoms are exactly zero, not epsilon
        assert ((w == 0.0) | (w > 1e-12)).all()


def test_minimize_on_simplex_duplicate_atoms_tie_break():
    # two identical atoms: weight goes to the smaller index
    D = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    t = np.array([1.0, 0.0])
    w = minimize_on_simplex(D.T @ D, -2.0 * D.T @ t)
    assert w[0] > 0.99
    assert w[1] == 0.0


def test_minimize_on_simplex_interior_optimum_gradient_level():
    # optimum strictly inside a face: gradient equal on active atoms
    rng = np.random.default_rng(7)
    D = rng.normal(size=(6, 4))
    t = D @ np.array([0.4, 0.3, 0.2, 0.1])  # interior combination
    H = D.T @ D
    c = -2.0 * D.T @ t
    w = minimize_on_simplex(H, c)
    g = 2.0 * H @ w + c
    active = w > 1e-9
    assert active.sum() >= 2
    levels = g[active]
    assert np.abs(levels - levels.mean()).max() < 1e-7


def test_minimize_on_simplex_beats_every_vertex_and_pair():
    """Regression: a sign error in the multiplier once accepted vertices as
    optimal while a pair mixture was strictly better."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        D = rng.normal(size=(6, k)) * rng.uniform(0.5, 50.0)
        t = rng.normal(size=6) * rng.uniform(0.5, 50.0)
        H = D.T @ D
        c = -2.0 * D.T @ t
        w = minimize_on_simplex(H, c)
        obj = float(w @ H @ w + c @ w)
        for i in range(k):
            assert obj <= H[i, i] + c[i] + 1e-8 * (1 + abs(c[i]))
            for j in range(i + 1, k):
                # closed-form optimum on the (i, j) edge
                a = H[i, i] + H[j, j] - 2 * H[i, j]
                b = 2 * H[j, i] - 2 * H[j, j] + c[i] - c[j]
                s = 0.5 if a <= 1e-15 else np.clip(-b / (2 * a), 0.0, 1.0)
                we = np.zeros(k)
                we[i], we[j] = s, 1.0 - s
                pair = float(we @ H @ we + c @ we)
                assert obj <= pair + 1e-7 * (1 + abs(pair))


def test_minimize_on_simplex_warm_start_agrees_with_cold():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        D = rng.normal(size=(5, k))
        t = rng.normal(size=5)
        H = D.T @ D
        c = -2.0 * D.T @ t
        cold = minimize_on_simplex(H, c)
        seed = rng.dirichlet(np.ones(k))
        warm = minimize_on_simplex(H, c, w0=seed)
        o1 = float(cold @ H @ cold + c @ cold)
        o2 = float(warm @ H @ warm + c @ warm)
        assert abs(o1 - o2) < 1e-8 * (1 + abs(o1))


def _count_fallbacks(monkeypatch):
    # one entry per call of the projected-gradient fallback
    calls = []
    original = simplex._projected_gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simplex, "_projected_gradient", counting)
    return calls


def test_minimize_on_simplex_indexed_gram_matches_gathered_block(monkeypatch):
    # coding through allowed= on a shared rank-3 Gram must give the bytes of
    # coding against the gathered block of the allowed atoms (in sorted
    # order), also on the fallback path; entries off the mask are ignored
    fallbacks = _count_fallbacks(monkeypatch)
    rng = np.random.default_rng(21)
    for _ in range(16):
        n = int(rng.integers(40, 90))
        D = rng.normal(size=(3, n))
        G = D.T @ D
        k = int(rng.integers(30, n))
        idx = np.sort(rng.choice(n, size=k, replace=False))
        allowed = np.zeros((n, 1), dtype=bool)
        allowed[idx] = True
        c = rng.normal(size=(n, 1))  # off-mask entries are noise
        c[idx, 0] = -2.0 * (D[:, idx].T @ rng.normal(size=3))
        block = G[np.ix_(idx, idx)]
        for w0 in (None, rng.dirichlet(np.ones(k))):
            full = None
            if w0 is not None:
                full = np.full((n, 1), np.nan)
                full[idx, 0] = w0
            for max_iter in (None, 1):
                shared = minimize_on_simplex(
                    G, c, w0=full, max_iter=max_iter, allowed=allowed
                )
                gathered = minimize_on_simplex(
                    block, c[idx, 0], w0=w0, max_iter=max_iter
                )
                assert shared[idx, 0].tobytes() == gathered.tobytes()
                assert not shared[~allowed[:, 0], 0].any()
    assert fallbacks


def test_minimize_on_simplex_fallback_solves_full_rank_problems(monkeypatch):
    # one active-set step sends the unfinished rows to the projected-gradient
    # fallback, which must still reach the optimum of a full-rank problem
    # and, taking steps of 1/L, never end above its warm start
    fallbacks = _count_fallbacks(monkeypatch)
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(1, 5))
        D = rng.normal(size=(n + 4, n))
        T = rng.normal(size=(n + 4, m))
        H = D.T @ D
        c = -2.0 * (D.T @ T)
        allowed = rng.random((n, m)) < 0.7
        allowed[rng.integers(n, size=m), np.arange(m)] = True
        w0 = rng.dirichlet(np.ones(n), size=m).T
        W = minimize_on_simplex(H, c, w0=w0, max_iter=1, allowed=allowed)
        cold = minimize_on_simplex(H, c, allowed=allowed)
        start = np.where(allowed, w0, 0.0)
        start /= start.sum(axis=0)
        for f in range(m):

            def phi(w):
                return float(w @ H @ w + c[:, f] @ w)

            best = phi(cold[:, f])
            assert abs(phi(W[:, f]) - best) <= 1e-9 * (1.0 + abs(best))
            assert phi(W[:, f]) <= phi(start[:, f])
            assert W[:, f].min() >= 0.0
            assert not W[~allowed[:, f], f].any()
            assert abs(W[:, f].sum() - 1.0) <= 1e-12
            _, _, worst = coding_kkt(T[:, f], D, W[:, f], allowed[:, f])
            assert worst >= -1e-6
    assert fallbacks


@st.composite
def coding_problems(draw):
    """Random PSD Gram D^T D, targets, masks and (often invalid) warm starts.

    D may have full column rank, and some targets are convex combinations
    of their column's allowed atoms, which such a D codes on every atom of
    the mix: one call so mixes supports of different sizes, up to 16 atoms.
    """
    n = draw(st.integers(2, 16))
    m = draw(st.integers(1, 6))
    r = draw(st.integers(1, 18))
    values = st.floats(-10.0, 10.0, allow_subnormal=False)
    D = draw(hnp.arrays(float, (r, n), elements=values))
    T = draw(hnp.arrays(float, (r, m), elements=values))
    allowed = draw(hnp.arrays(bool, (n, m)))
    keep = draw(hnp.arrays(int, m, elements=st.integers(0, n - 1)))
    allowed[keep, np.arange(m)] = True
    mix = draw(
        hnp.arrays(float, (n, m), elements=st.floats(0.0, 1.0, allow_subnormal=False))
    )
    mix[~allowed] = 0.0
    inside = draw(hnp.arrays(bool, m)) & (mix.sum(axis=0) > 0.0)
    T[:, inside] = D @ (mix[:, inside] / mix[:, inside].sum(axis=0))
    warm = draw(
        st.none()
        | hnp.arrays(
            float, (n, m), elements=st.floats(-0.1, 1.0, allow_subnormal=False)
        )
    )
    if warm is not None:
        # columns with a positive mass on the mask become valid starts, unless
        # they carry a negative entry
        mass = np.where(allowed, warm, 0.0).sum(axis=0)
        warm[:, mass > 0] /= mass[mass > 0]
    return D, T, allowed, warm


@settings(max_examples=150, deadline=None)
@given(coding_problems())
def test_minimize_on_simplex_properties(problem):
    D, T, allowed, warm = problem
    H = D.T @ D
    c = -2.0 * (D.T @ T)
    W = minimize_on_simplex(H, c, w0=warm, allowed=allowed)
    assert W.shape == allowed.shape
    assert W.min() >= 0.0
    assert not W[~allowed].any()
    assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-9
    for f in range(T.shape[1]):
        _, _, worst = coding_kkt(T[:, f], D, W[:, f], allowed[:, f])
        assert worst >= -1e-6
        alone = minimize_on_simplex(
            H,
            c[:, [f]],
            w0=None if warm is None else warm[:, [f]],
            allowed=allowed[:, [f]],
        )
        assert alone[:, 0].tobytes() == W[:, f].tobytes()


@pytest.mark.parametrize(
    "case",
    ["w0 shape", "allowed shape", "H shape", "H not finite", "c not finite"],
)
def test_minimize_on_simplex_rejects_bad_input(case):
    rng = np.random.default_rng(31)
    D = rng.normal(size=(4, 5))
    H = D.T @ D
    c = -2.0 * (D.T @ rng.normal(size=(4, 3)))
    # a vector problem takes a w0 and an allowed mask shaped like it
    w = minimize_on_simplex(H, c[:, 0], w0=np.full(5, 0.2), allowed=np.ones(5, bool))
    assert w.shape == (5,) and abs(w.sum() - 1.0) <= 1e-12
    kwargs = {}
    if case == "w0 shape":
        kwargs["w0"] = np.full((5, 2), 0.2)
    elif case == "allowed shape":
        kwargs["allowed"] = np.ones((5, 2), dtype=bool)
    elif case == "H shape":
        c = np.vstack([c, c[:1]])
    elif case == "H not finite":
        H[1, 2] = np.inf
    else:
        c[3, 1] = np.nan
    with pytest.raises(InputError):
        minimize_on_simplex(H, c, **kwargs)


@st.composite
def padded_stacks(draw):
    """Stacks of identity-padded systems, some members exactly singular.

    A singular member's leading block has a zero row and column, with a
    zero right-hand side there: its column stays exactly zero through any
    LU elimination, so every LAPACK reports the zero pivot.
    """
    N = draw(st.integers(2, 6))
    K = draw(st.integers(1, 3))
    S = draw(st.integers(1, 5))
    sizes = draw(hnp.arrays(int, S, elements=st.integers(0, N)))
    singular = draw(hnp.arrays(bool, S)) & (sizes >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = np.tile(np.eye(N), (S, 1, 1))
    rhs = np.zeros((S, N, K))
    for m, n in enumerate(sizes):
        G = rng.normal(size=(n, n))
        A = G @ G.T + n * np.eye(n)
        b = rng.normal(size=(n, K))
        if singular[m]:
            i = rng.integers(n)
            A[i] = A[:, i] = b[i] = 0.0
        H[m, :n, :n] = A
        rhs[m, :n] = b
    return H, rhs, sizes, singular


@settings(max_examples=100, deadline=None)
@given(padded_stacks())
def test_solve_stack_direct_members_and_least_squares_fallback(stack):
    H, rhs, sizes, singular = stack
    sol, fell_back = simplex._solve_stack(H, rhs, sizes)
    assert sorted(fell_back) == np.flatnonzero(singular).tolist()
    for m, n in enumerate(sizes):
        if singular[m]:
            A, b = H[m, :n, :n], rhs[m, :n]
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            assert np.abs(sol[m, :n] - ref).max() <= 1e-12 * np.abs(ref).max()
            assert not sol[m, n:].any()
        else:
            assert sol[m].tobytes() == np.linalg.solve(H[m], rhs[m]).tobytes()
    # a singular member leaves the others' bytes unchanged
    regular = np.flatnonzero(~singular)
    alone, _ = simplex._solve_stack(H[regular], rhs[regular], sizes[regular])
    assert alone.tobytes() == sol[regular].tobytes()


def test_solve_stack_replaces_a_huge_direct_solve_of_a_singular_face():
    # a KKT face of duplicated atoms 0 and 2 on which LU returns a
    # "solution" with entries above 1e6 instead of raising: its residual is
    # small against |x|, so a test scaled by ||x|| accepts it, but it fails
    # max |H x - b| <= 1e-8 (1 + max |b|), and the face takes least squares
    D = np.array(
        [
            [-0.060879893177886564, 0.32036108433157906, -0.060879893177886564],
            [0.5283223373819336, -1.7570776392083791, 0.5283223373819336],
        ]
    )
    t = np.array([0.12526778470954586, -1.959356631764136])
    kkt = np.zeros((4, 4))
    kkt[:3, :3] = 2.0 * (D.T @ D)
    kkt[:3, 3] = kkt[3, :3] = 1.0
    rhs = np.append(2.0 * (D.T @ t), 1.0)[:, None]
    direct = np.linalg.solve(kkt, rhs)
    assert np.abs(direct).max() > 1e6
    resid = np.linalg.norm(kkt @ direct - rhs)
    scale = np.trace(kkt) / 4
    bound = 1e-8 * (1.0 + np.linalg.norm(rhs) + scale * np.linalg.norm(direct))
    assert resid <= bound
    sol, fell_back = simplex._solve_stack(kkt[None], rhs[None])
    assert fell_back == [0]
    ref = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    assert np.array_equal(sol[0], ref)
    # the least-norm face optimum splits the duplicated atom's weight evenly
    assert abs(sol[0, 0, 0] - sol[0, 2, 0]) <= 1e-12
    assert np.abs(kkt @ ref - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


def test_support_mask_diagonal_and_exclusion():
    ids = [0, 0, 1, 1, 2]
    mask = support_mask(ids, exclude_same_video=True)
    assert not mask.allowed.diagonal().any()
    assert not mask.allowed[0, 1] and not mask.allowed[1, 0]
    assert mask.allowed[2, 0] and mask.allowed[4, 3]
    assert np.flatnonzero(mask.allowed[:, 0]).tolist() == [2, 3, 4]

    loose = support_mask(ids, exclude_same_video=False)
    assert loose.allowed[0, 1] and not loose.allowed[1, 1]


def test_support_mask_single_video_with_exclusion_infeasible():
    with pytest.raises(InfeasibleError):
        support_mask([0, 0, 0], exclude_same_video=True)


def test_validate_mask_rejects_diagonal_and_empty_columns():
    with pytest.raises(InputError):
        validate_mask(SupportMask(allowed=np.eye(3, dtype=bool)))
    empty = np.zeros((3, 3), dtype=bool)
    empty[0, 1] = empty[1, 0] = True
    with pytest.raises(InfeasibleError):
        validate_mask(SupportMask(allowed=empty))


def test_simplex_code_respects_mask_and_recovers_combination():
    rng = np.random.default_rng(10)
    D = rng.normal(size=(9, 6))
    truth = np.array([0.0, 0.6, 0.4, 0.0, 0.0, 0.0])
    t = D @ truth
    allowed = np.array([False, True, True, True, True, False])
    w = simplex_code(t, D, allowed)
    assert np.allclose(w, truth, atol=1e-8)
    assert w[~allowed].max() == 0.0


def test_simplex_code_input_validation():
    D = np.zeros((4, 3))
    with pytest.raises(InputError):
        simplex_code(np.zeros(5), D, np.ones(3, dtype=bool))
    with pytest.raises(InfeasibleError):
        simplex_code(np.zeros(4), D, np.zeros(3, dtype=bool))
    bad = D.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InputError):
        simplex_code(np.zeros(4), bad, np.ones(3, dtype=bool))


def test_self_express_columns_feasible_and_kkt_optimal():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(9, 12))
    ids = np.repeat([0, 1, 2], 4)
    mask = support_mask(ids, exclude_same_video=True)
    W = self_express(X, mask)
    for f in range(12):
        col = W[:, f]
        assert abs(col.sum() - 1.0) < 1e-9
        assert col.min() >= 0.0
        assert col[~mask.allowed[:, f]].max() == 0.0
        _, _, worst = coding_kkt(X[:, f], X, col, mask.allowed[:, f])
        assert worst >= -1e-6


def test_self_express_warm_start_changes_nothing():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(6, 8))
    mask = support_mask(np.arange(8) % 2, exclude_same_video=True)
    W1 = self_express(X, mask)
    W2 = self_express(X, mask, warm_start=W1)
    r1 = np.sum((X - X @ W1) ** 2)
    r2 = np.sum((X - X @ W2) ** 2)
    assert abs(r1 - r2) < 1e-10 * (1 + r1)


def _code_each_column(X, mask, warm=None):
    # every column coded alone, the batch's byte reference
    G = X.T @ X
    F = X.shape[1]
    W = np.zeros((F, F))
    for f in range(F):
        W[:, [f]] = minimize_on_simplex(
            G,
            -2.0 * G[:, [f]],
            w0=None if warm is None else warm[:, [f]],
            allowed=mask.allowed[:, [f]],
        )
    return W


def _noisy_curve(rng, F):
    s = np.linspace(0.0, 2.0, F)
    X = np.stack([np.cos(s), np.sin(s), s**2, np.cos(3 * s)]) * 40.0
    return X + rng.normal(scale=0.5, size=X.shape)


def test_self_express_warm_batch_matches_per_column_coder():
    rng = np.random.default_rng(21)
    F = 36
    for ids in (np.arange(F) % 3, np.repeat([0, 1, 2], [5, 11, 20])):
        mask = support_mask(ids, exclude_same_video=True)
        X = _noisy_curve(rng, F)
        X[:, 9] = X[:, 4]  # duplicate atoms
        W = _code_each_column(X, mask)
        # vertex warm starts, support size 1
        vertex = np.zeros((F, F))
        for f in range(F):
            vertex[rng.choice(np.flatnonzero(mask.allowed[:, f])), f] = 1.0
        # a duplicate pair in one support makes its stack of KKT systems
        # singular
        dup = W.copy()
        for f in range(F):
            if mask.allowed[[4, 9], f].all():
                dup[:, f] = 0.0
                dup[[4, 9], f] = 0.5
        # invalid columns start cold: negative, off the mask, sum != 1, NaN
        bad = W.copy()
        bad[np.flatnonzero(mask.allowed[:, 0])[:2], 0] = [1.5, -0.5]
        bad[:, 1] = 0.0
        bad[1, 1] = 0.5
        bad[np.flatnonzero(mask.allowed[:, 1])[0], 1] = 0.5
        bad[:, 2] *= 1.1
        bad[np.flatnonzero(mask.allowed[:, 3])[0], 3] = np.nan
        cases = [
            ("converged", X, W),
            # W on a perturbed dictionary, so supports must move
            ("perturbed", X + rng.normal(scale=2.0, size=X.shape), W),
            ("vertex", X, vertex),
            ("duplicate", X, dup),
            ("invalid", X, bad),
        ]
        for name, D, warm in cases:
            ref = _code_each_column(D, mask, warm)
            assert np.array_equal(self_express(D, mask, warm_start=warm), ref), name


def test_self_express_warm_recode_skips_the_active_set(monkeypatch):
    # a converged W re-codes in the active set's first step: one step per
    # column is enough, and no column falls back to projected gradient
    rng = np.random.default_rng(22)
    F = 60
    X = _noisy_curve(rng, F)
    mask = support_mask(np.arange(F) % 4, exclude_same_video=True)
    W = self_express(X, mask)
    fallbacks = _count_fallbacks(monkeypatch)
    G = X.T @ X
    again = minimize_on_simplex(G, -2.0 * G, w0=W, max_iter=1, allowed=mask.allowed)
    assert not fallbacks
    assert np.array_equal(again, self_express(X, mask, warm_start=W))
    assert np.abs(again - W).max() < 1e-12


@pytest.mark.parametrize("rank", [4, 12])
def test_self_express_warm_recode_is_one_round_one_lu_per_support_size(
    monkeypatch, rank
):
    # a converged W re-codes in one active-set round for all F columns: one
    # stack of KKT faces per distinct support size, then one accept step
    # for every column of every size
    rng = np.random.default_rng(24)
    F = 60
    X = _noisy_curve(rng, F)
    X = np.vstack([X, rng.normal(scale=20.0, size=(rank - 4, F))])
    mask = support_mask(np.arange(F) % 4, exclude_same_video=True)
    W = self_express(X, mask)
    stacks, accepted = [], []
    solve_stack, take_face = simplex._solve_stack, simplex._take_face

    def counting_stack(H, rhs, sizes=None):
        stacks.append(H.shape[:2])
        return solve_stack(H, rhs, sizes)

    def counting_take(*args):
        accepted.append(args[5].size)
        return take_face(*args)

    monkeypatch.setattr(simplex, "_solve_stack", counting_stack)
    monkeypatch.setattr(simplex, "_take_face", counting_take)
    again = self_express(X, mask, warm_start=W)
    assert np.abs(again - W).max() < 1e-12
    supports = np.unique((W > 0.0).sum(axis=0))
    assert supports.size >= 3 and (rank < 8 or supports.max() >= 8)
    # members per stack sum to F: every column's face once, so one round
    assert sum(members for members, _ in stacks) == F
    assert sorted(size - 1 for _, size in stacks) == supports.tolist()
    assert accepted == [F]


def test_self_express_warm_start_validation():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(6, 8))
    mask = support_mask(np.arange(8) % 2, exclude_same_video=True)
    cold = self_express(X, mask)
    for shape in ((8, 7), (8,), (9, 9)):
        with pytest.raises(InputError):
            self_express(X, mask, warm_start=np.zeros(shape))
    # a non-finite or infeasible warm column falls back to a cold start
    warm = cold.copy()
    warm[np.flatnonzero(mask.allowed[:, 2])[0], 2] = np.inf
    warm[:, 5] = 0.0
    out = self_express(X, mask, warm_start=warm)
    assert np.array_equal(out[:, [2, 5]], cold[:, [2, 5]])


def test_self_express_rejects_bad_input_by_its_own_names(monkeypatch):
    # the errors name self_express's arguments, and a rejected call builds
    # no coder state (its F x F scratch blocks); RuntimeWarnings are errors
    # here, so the overflowing Gram matrix must not warn either
    rng = np.random.default_rng(29)
    X = rng.normal(size=(6, 6))
    mask = support_mask(np.arange(6) % 2, exclude_same_video=True)
    expected = self_express(X, mask)

    def no_coder(mask):
        raise AssertionError("a rejected call built a coder state")

    monkeypatch.setattr(simplex, "_Coder", no_coder)
    # X^T X overflows at 1e160; at the second scale it is finite, with its
    # trace at half the float range, but four times that trace overflows
    edge = np.sqrt(np.finfo(float).max / (2.0 * np.square(X).sum()))
    for scale in (1e160, edge):
        with pytest.raises(InputError, match="dictionary is too large"):
            self_express(X * scale, mask)
    with pytest.raises(InputError, match="warm_start shape"):
        self_express(X, mask, warm_start=np.zeros((6, 5)))
    monkeypatch.undo()
    # coding is scale-free, and a large dictionary whose Gram matrix fits
    # is coded
    big = self_express(X * 1e150, mask)
    assert np.allclose(big, expected, atol=1e-9)


def test_self_express_smooth_curve_picks_temporal_neighbors():
    # points on a smooth 3D curve: column f should lean on f-1 and f+1
    s = np.linspace(0.0, 2.0, 30)
    X = np.stack([np.cos(s), np.sin(s), s**2]) * 40.0
    mask = support_mask(np.arange(30) % 3, exclude_same_video=False)
    W = self_express(X, mask)
    hits = 0
    for f in range(1, 29):
        top2 = set(np.argsort(-W[:, f])[:2].tolist())
        hits += top2 == {f - 1, f + 1}
    assert hits >= 26


def test_sparsity_profile_counts_and_validates():
    W = np.array([[0.0, 0.5], [1.0, 0.5]])
    assert sparsity_profile(W, 1e-3).tolist() == [1, 2]
    with pytest.raises(InputError):
        sparsity_profile(W, 0.0)


def test_coding_kkt_flags_suboptimal_column():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 5))
    mask = support_mask(np.arange(5), exclude_same_video=False)
    W = self_express(X, mask)
    f = 0
    good = W[:, f]
    _, _, worst_good = coding_kkt(X[:, f], X, good, mask.allowed[:, f])
    assert worst_good >= -1e-6
    # move mass onto a wrong atom: the gap test must notice
    bad = np.zeros(5)
    bad[np.argmin(good + (~mask.allowed[:, f]) * 10.0)] = 1.0
    if not np.allclose(bad, good):
        _, _, worst_bad = coding_kkt(X[:, f], X, bad, mask.allowed[:, f])
        assert worst_bad < worst_good + 1e-9


def _reference_solved(H, rhs, sol):
    # the residual test's formula, member by member over the whole stack
    with np.errstate(invalid="ignore", over="ignore"):
        resid = np.abs(H @ sol - rhs).max(axis=(-2, -1))
        bound = 1e-8 * (1.0 + np.abs(rhs).max(axis=(-2, -1)))
    return np.isfinite(sol).all(axis=(-2, -1)) & (resid <= bound)


@st.composite
def residual_stacks(draw):
    """Stacks with singular, non-finite and near-bound members.

    A near-bound member's solution is moved off the exact one so that its
    residual sits within a few ulps of 1e-8 (1 + max |b|), on either side.
    """
    S = draw(st.integers(1, 6))
    N = draw(st.integers(1, 5))
    K = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(size=(S, N, N)) * 10.0 ** rng.integers(-3, 4, size=(S, 1, 1))
    rhs = rng.normal(size=(S, N, K)) * 10.0 ** rng.integers(-9, 9, size=(S, 1, 1))
    sol = np.linalg.lstsq(H[0], rhs[0], rcond=None)[0][None].repeat(S, 0)
    for m in range(S):
        kind = draw(st.sampled_from(["exact", "singular", "nonfinite", "near"]))
        if kind == "singular":
            H[m, :, 0] = 0.0
        sol[m] = np.linalg.lstsq(H[m], rhs[m], rcond=None)[0]
        if kind == "nonfinite":
            where = draw(st.sampled_from(["sol", "rhs", "H"]))
            value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            {"sol": sol, "rhs": rhs, "H": H}[where][m].flat[0] = value
        elif kind == "near":
            bound = 1e-8 * (1.0 + np.abs(rhs[m]).max())
            scale = draw(st.sampled_from([1.0 - 1e-15, 1.0, 1.0 + 1e-15, 0.5, 2.0]))
            col = np.abs(H[m]).max(axis=0).argmax()
            step = bound * scale / max(np.abs(H[m][:, col]).max(), 1e-300)
            sol[m, col] += step
    return H, rhs, sol


@settings(max_examples=300, deadline=None)
@given(residual_stacks())
def test_residual_test_keeps_every_members_decision(stack):
    H, rhs, sol = stack
    assert np.array_equal(simplex._solved(H, rhs, sol), _reference_solved(H, rhs, sol))
    for m in range(H.shape[0]):
        alone = simplex._solved(H[m], rhs[m], sol[m])
        assert alone.shape == () and bool(alone) == _reference_solved(
            H[m], rhs[m], sol[m]
        )


def _warm_up_codes(F=40, passes=6, seed=41):
    # a drifting dictionary coded pass after pass, each pass warm started
    # from the last code: the warm-up's pattern of calls
    rng = np.random.default_rng(seed)
    X = _noisy_curve(rng, F)
    mask = support_mask(np.arange(F) % 4, exclude_same_video=True)
    steps = [X + rng.normal(scale=0.3, size=X.shape) for _ in range(passes)]
    return mask, steps


def test_self_express_takes_back_its_own_last_code_with_the_same_bytes():
    mask, steps = _warm_up_codes()
    plain, kept = [], []
    warm = None
    for X in steps:
        warm = self_express(X, mask, warm_start=warm)
        plain.append(warm)
    with simplex._coding_state(mask):
        coder = mask._coder
        warm = None
        for X in steps:
            warm = self_express(X, mask, warm_start=warm)
            assert coder.code is warm
            kept.append(warm)
        # rows whose in-order sums miss 1 by an ulp, as a code may: taking
        # them back divides them as validation would
        rows = np.zeros(mask.allowed.T.shape)
        for f in range(rows.shape[0]):
            rows[f, np.flatnonzero(mask.allowed[:, f])[:10]] = 0.1
        assert (np.cumsum(rows, axis=1)[:, -1] != 1.0).all()
        coder.rows, coder.code = rows, np.ascontiguousarray(rows.T)
        expected = simplex._start_rows(coder.code, coder.rules[0])
        W, cold = coder.start(coder.code)
        assert W.tobytes() == expected[0].tobytes() and not cold.any()
    # the state lives only inside the block
    assert not hasattr(mask, "_coder")
    for a, b in zip(plain, kept):
        assert a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous and b.flags.c_contiguous


def test_self_express_validates_an_edited_or_foreign_warm_start(monkeypatch):
    # only the coder's own last code, bit for bit unchanged, skips validation
    mask, steps = _warm_up_codes()
    validated = []
    start_rows = simplex._start_rows

    def counting(w0, A):
        validated.append(w0)
        return start_rows(w0, A)

    monkeypatch.setattr(simplex, "_start_rows", counting)
    with simplex._coding_state(mask):
        first = self_express(steps[0], mask)
        again = self_express(steps[1], mask, warm_start=first)
        assert validated == [None]
        # edited in place after the coder returned it: a column made invalid
        # (it must start cold) and a zero entry flipped to -0.0
        edited = self_express(steps[2], mask, warm_start=again)
        f = 3
        edited[:, f] = 0.0
        edited[np.flatnonzero(mask.allowed[:, f])[0], f] = 2.0
        zero = np.argwhere((edited == 0.0) & mask.allowed)[0]
        edited[tuple(zero)] = -0.0
        reference = edited.copy()
        out = self_express(steps[3], mask, warm_start=edited)
        assert validated[-1] is edited
        # a copy of the last code is not the code itself
        copied = self_express(steps[4], mask, warm_start=out.copy())
        assert validated[-1] is not out and np.array_equal(validated[-1], out)
    monkeypatch.undo()
    assert out.tobytes() == self_express(steps[3], mask, warm_start=reference).tobytes()
    assert copied.tobytes() == self_express(steps[4], mask, warm_start=out).tobytes()
