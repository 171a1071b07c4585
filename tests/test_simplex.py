"""Masked simplex coding: projection, QP solver, and column coding."""

import itertools

import numpy as np
import pytest

from unsync3d import simplex
from unsync3d.errors import InfeasibleError, InputError
from unsync3d.simplex import (
    SupportMask,
    coding_kkt,
    minimize_on_simplex,
    project_to_masked_simplex,
    project_to_simplex,
    self_express,
    simplex_code,
    sparsity_profile,
    support_mask,
    validate_mask,
)


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


def test_minimize_on_simplex_indexed_gram_matches_gathered_block(monkeypatch):
    # reading a shared rank-3 Gram through an index must give the bytes of
    # coding against the gathered block, also on the fallback path
    fallbacks = []
    original = simplex._projected_gradient

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simplex, "_projected_gradient", counting)
    rng = np.random.default_rng(21)
    for trial in range(16):
        n = int(rng.integers(40, 90))
        D = rng.normal(size=(3, n))
        G = D.T @ D
        k = int(rng.integers(30, n))
        idx = rng.choice(n, size=k, replace=False)
        if trial % 2:
            idx = np.sort(idx)
        c = -2.0 * (D[:, idx].T @ rng.normal(size=3))
        block = G[np.ix_(idx, idx)]
        for w0 in (None, rng.dirichlet(np.ones(k))):
            for max_iter in (None, 1):
                indexed = minimize_on_simplex(
                    G, c, w0=w0, max_iter=max_iter, index=idx
                )
                gathered = minimize_on_simplex(block, c, w0=w0, max_iter=max_iter)
                assert indexed.tobytes() == gathered.tobytes()
    assert fallbacks


def test_support_mask_diagonal_and_exclusion():
    ids = [0, 0, 1, 1, 2]
    mask = support_mask(ids, exclude_same_video=True)
    assert not mask.allowed.diagonal().any()
    assert not mask.allowed[0, 1] and not mask.allowed[1, 0]
    assert mask.allowed[2, 0] and mask.allowed[4, 3]
    assert mask.column(0).tolist() == [2, 3, 4]

    loose = support_mask(ids, exclude_same_video=False)
    assert loose.allowed[0, 1] and not loose.allowed[1, 1]


def test_support_mask_single_video_with_exclusion_infeasible():
    with pytest.raises(InfeasibleError):
        support_mask([0, 0, 0], exclude_same_video=True)


def test_support_mask_extra_forbid():
    forbid = np.zeros((4, 4), dtype=bool)
    forbid[2, 0] = True
    mask = support_mask([0, 1, 0, 1], exclude_same_video=False, forbid=forbid)
    assert not mask.allowed[2, 0]
    assert mask.allowed[2, 1]


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
