"""Reconstructability analysis: linear system, conditioning, filter view."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsync3d import solver
from unsync3d.analysis import (
    analyze_scene,
    build_system,
    error_vector,
    filter_weights,
    residual,
    system_condition,
)
from unsync3d.errors import InputError
from unsync3d.geometry import RayField, compute_rays
from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion


def random_rays(F, rng):
    R = rng.normal(size=(F, 3))
    return R / np.linalg.norm(R, axis=1, keepdims=True)


def column_stochastic(F, rng):
    W = rng.uniform(size=(F, F))
    np.fill_diagonal(W, 0.0)
    return W / W.sum(axis=0)


def test_build_system_matches_elementwise_loops():
    rng = np.random.default_rng(0)
    F = 7
    R = random_rays(F, rng)
    W = column_stochastic(F, rng)
    X = rng.normal(size=(3, F))
    A, b = build_system(R, W, X)
    Q = np.eye(F) - W
    S = Q @ Q.T
    A_ref = np.empty((F, F))
    b_ref = np.empty(F)
    for f in range(F):
        for j in range(F):
            A_ref[f, j] = S[f, j] * float(R[j] @ R[f])
        b_ref[f] = float(R[f] @ (X @ S)[:, f])
    assert np.allclose(A, A_ref)
    assert np.allclose(b, b_ref)
    assert np.allclose(A, A.T)
    # Hadamard product of PSD factors is PSD
    assert np.linalg.eigvalsh(A).min() > -1e-10


def test_build_system_without_truth_and_validation():
    rng = np.random.default_rng(1)
    R = random_rays(5, rng)
    W = column_stochastic(5, rng)
    A, b = build_system(R, W)
    assert b is None
    assert A.shape == (5, 5)
    with pytest.raises(InputError):
        build_system(R[:, :2], W)
    with pytest.raises(InputError):
        build_system(R, W[:4, :4])
    with pytest.raises(InputError):
        build_system(R, W, rng.normal(size=(3, 4)))
    bad = R.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InputError):
        build_system(bad, W)


def test_system_condition_identity_scaling_and_singular():
    assert system_condition(np.eye(4)) == 1.0
    assert system_condition(3.0 * np.eye(4)) == pytest.approx(1.0 / 3.0)
    sing = np.diag([1.0, 1.0, 0.0])
    assert system_condition(sing) == math.inf
    near = np.diag([1.0, 1.0, 1e-14])
    assert system_condition(near) == math.inf
    ok = np.diag([1.0, 1e-3])
    assert system_condition(ok) == pytest.approx(1e3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_system_condition_rejects_non_finite_matrix(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(InputError):
        system_condition(A)


def test_error_vector_rejects_non_finite_b():
    with pytest.raises(InputError):
        error_vector(np.eye(3), np.array([1.0, math.nan, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, 1e308])
def test_build_system_rejects_non_finite_or_overflowing_weights(bad):
    rng = np.random.default_rng(5)
    R = random_rays(6, rng)
    W = column_stochastic(6, rng)
    W[2, 4] = bad
    with pytest.raises(InputError):
        build_system(R, W)
    with pytest.raises(InputError):
        build_system(R, W, rng.normal(size=(3, 6)))


def test_error_vector_bound_holds_and_zero_b_gives_zero_l():
    rng = np.random.default_rng(2)
    for _ in range(100):
        F = int(rng.integers(3, 9))
        M = rng.normal(size=(F, F))
        A = M @ M.T + 0.1 * np.eye(F)
        b = rng.normal(size=F)
        sol = error_vector(A, b)
        assert np.allclose(A @ sol.l, b, atol=1e-8 * (1 + np.abs(b).max()))
        assert sol.l_norm <= sol.error_bound + 1e-9 * (1 + sol.error_bound)
        assert not sol.least_norm

    sol0 = error_vector(np.eye(4) * 2.0, np.zeros(4))
    assert sol0.l_norm == 0.0
    assert sol0.error_bound == 0.0


def test_error_vector_singular_falls_back_to_least_norm():
    A = np.diag([1.0, 1.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    sol = error_vector(A, b)
    assert sol.least_norm
    assert sol.condition == math.inf
    assert np.allclose(sol.l, [1.0, 2.0, 0.0])
    # b = 0 keeps the degenerate bound at zero rather than inf
    sol0 = error_vector(A, np.zeros(3))
    assert sol0.error_bound == 0.0


def test_residual_hand_case():
    # two points, three frames; W copies frame 0 into every column
    X = np.array(
        [
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    W = np.zeros((3, 3))
    W[0, :] = 1.0
    Q = np.eye(3) - W
    expect = np.linalg.norm(X @ Q) / (2 * 3)
    assert residual(X, W) == pytest.approx(expect)
    with pytest.raises(InputError):
        residual(X[:5], W)


def test_filter_weights_difference_taps():
    fb = filter_weights([1.0, -1.0], 6)
    assert fb.g_matrix.shape == (6, 5)
    # column c holds reversed taps at rows c, c+1
    for c in range(5):
        col = np.zeros(6)
        col[c], col[c + 1] = -1.0, 1.0
        assert np.array_equal(fb.g_matrix[:, c], col)
    W = fb.w_matrix
    assert W is not None
    assert np.array_equal(np.diag(W, k=-1), np.ones(5))
    assert W.sum() == 5.0  # boundary column stays zero
    # ||X G||^2 equals the summed squared first differences
    X = np.random.default_rng(3).normal(size=(3, 6))
    loop = sum(
        np.sum((X[:, c + 1] - X[:, c]) ** 2) for c in range(5)
    )
    assert np.sum((X @ fb.g_matrix) ** 2) == pytest.approx(loop)


def test_filter_weights_second_difference_taps():
    fb = filter_weights([-1.0, 2.0, -1.0], 7)
    assert fb.g_matrix.shape == (7, 5)
    X = np.random.default_rng(4).normal(size=(2, 7))
    loop = sum(
        np.sum((-X[:, c] + 2 * X[:, c + 1] - X[:, c + 2]) ** 2) for c in range(5)
    )
    assert np.sum((X @ fb.g_matrix) ** 2) == pytest.approx(loop)
    W = fb.w_matrix
    for c in range(1, 6):
        assert W[c - 1, c] == 0.5 and W[c + 1, c] == 0.5
    assert np.array_equal(W[:, 0], np.zeros(7))
    assert np.array_equal(W[:, 6], np.zeros(7))


def test_filter_weights_unnamed_taps_and_errors():
    fb = filter_weights([1.0, -2.0, 1.5, 0.25], 9)
    assert fb.w_matrix is None
    assert fb.g_matrix.shape == (9, 6)
    with pytest.raises(InputError):
        filter_weights([1.0], 5)
    with pytest.raises(InputError):
        filter_weights([1.0, -1.0, 0.5], 3)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError):
            filter_weights([bad, 1.0], 5)


def test_analyze_scene_one_point_with_and_without_truth():
    rng = np.random.default_rng(5)
    F = 8
    R = random_rays(F, rng)
    W = column_stochastic(F, rng)
    X = rng.normal(size=(3, F))
    rays = RayField(R[None], rng.normal(size=(F, 3)), np.ones((1, F), dtype=bool))
    (rep,) = analyze_scene(rays, W, X)
    assert rep.b_vector.shape == (F,)
    assert rep.error_vector.shape == (F,)
    assert rep.residual_per_point == pytest.approx(residual(X, W))
    (cond_only,) = analyze_scene(rays, W)
    assert cond_only.b_vector is None
    assert cond_only.error_vector is None
    assert cond_only.error_bound is None
    assert cond_only.system_condition == pytest.approx(rep.system_condition)


def test_analyze_scene_per_point_and_completeness_check():
    motion = procedural_motion(3, 18, seed=6)
    scene = generate(motion, RigSpec(camera_count=3), CorruptionSpec(seed=6))
    rays = compute_rays(scene.frames, scene.observations)
    F = len(scene.frames)
    rng = np.random.default_rng(7)
    W = column_stochastic(F, rng)
    reports = analyze_scene(rays, W, scene.truth)
    assert len(reports) == 3
    for p, rep in enumerate(reports):
        A_ref, b_ref = build_system(
            rays.directions[p], W, scene.truth[3 * p : 3 * p + 3]
        )
        assert np.allclose(rep.a_matrix, A_ref)
        assert np.allclose(rep.b_vector, b_ref)

    with pytest.raises(InputError):
        analyze_scene(rays, W, scene.truth[:5])

    # points with missing observations are analysed on their observed
    # frames
    holed = generate(
        motion, RigSpec(camera_count=3), CorruptionSpec(seed=6, miss_rate=0.3)
    )
    holed_rays = compute_rays(holed.frames, holed.observations)
    assert not holed_rays.present.all(axis=1).any()
    check_against_dense_reference(holed_rays, W, holed.truth)
    # a point needs one observation at least
    present = holed_rays.present.copy()
    present[1] = False
    directions = np.where(present[:, :, None], holed_rays.directions, np.nan)
    unseen = RayField(directions, holed_rays.centers, present)
    with pytest.raises(InputError, match=r"points \[1\] have no observations"):
        analyze_scene(unseen, W)


def dense_reference(rays, W, truth, p):
    """Point p's (A, b) from the Schur complement of Q Q^T, built densely.

    S = M_oo - M_om M_mm^-1 M_mo over the point's observed frames o and
    unobserved frames m, M = Q Q^T; then A = S o (R R^T) and
    b[f] = r_f^T (X S)[:, f] on o.
    """
    F = W.shape[0]
    Q = np.eye(F) - W
    M = Q @ Q.T
    o = rays.present[p]
    m = ~o
    S = M[np.ix_(o, o)]
    if m.any():
        S = S - M[np.ix_(o, m)] @ np.linalg.solve(M[np.ix_(m, m)], M[np.ix_(m, o)])
    R = rays.directions[p, o]
    X = truth[3 * p : 3 * p + 3, o]
    return S * (R @ R.T), np.einsum("fa,af->f", R, X @ S)


def check_against_dense_reference(rays, W, truth):
    reports = analyze_scene(rays, W, truth)
    cond_only = analyze_scene(rays, W)
    assert len(reports) == len(cond_only) == rays.present.shape[0]
    F = W.shape[0]
    Q = np.eye(F) - W
    for p, rep in enumerate(reports):
        A_ref, b_ref = dense_reference(rays, W, truth, p)
        assert rep.a_matrix.shape == A_ref.shape
        assert np.abs(rep.a_matrix - A_ref).max() <= 1e-10 * np.abs(A_ref).max()
        assert np.abs(rep.b_vector - b_ref).max() <= 1e-10 * np.abs(b_ref).max()
        assert np.array_equal(cond_only[p].a_matrix, rep.a_matrix)
        assert cond_only[p].b_vector is None
        if rays.present[p].all():
            R = rays.directions[p]
            assert np.array_equal(rep.a_matrix, (Q @ Q.T) * (R @ R.T))
    return reports


@st.composite
def masked_scenes(draw):
    """Random rays, truth and weights with each point seen in 2+ frames.

    Some points see every frame.  P F^2 above ``solver._STACK_ENTRIES``
    spreads the points over several stacks of the X-step's plan.
    """
    P = draw(st.integers(1, 10), label="points")
    F = draw(st.integers(3, 100), label="frames")
    miss = draw(st.floats(0.0, 0.9), label="miss rate")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    present = rng.uniform(size=(P, F)) >= miss
    present[rng.uniform(size=P) < 0.3] = True
    for p in range(P):
        present[p, rng.choice(F, size=2, replace=False)] = True
    directions = rng.normal(size=(P, F, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    directions[~present] = np.nan
    rays = RayField(directions, rng.normal(size=(F, 3)), present)
    return rays, column_stochastic(F, rng), rng.normal(size=(3 * P, F))


@settings(max_examples=60, deadline=None)
@given(masked_scenes())
def test_analyze_scene_matches_dense_schur_complement(scene):
    rays, W, truth = scene
    check_against_dense_reference(rays, W, truth)


def test_analyze_scene_spans_stacks_and_mixes_complete_points():
    # the masked_scenes draws this case needs: several stacks, complete and
    # holed points in one stack
    rng = np.random.default_rng(11)
    P, F = 9, 96
    present = rng.uniform(size=(P, F)) >= 0.4
    present[[0, 3, 4, 8]] = True
    directions = rng.normal(size=(P, F, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    directions[~present] = np.nan
    rays = RayField(directions, rng.normal(size=(F, 3)), present)
    plans = solver._stack_plans(rays)
    assert len(plans) == 2
    assert [plan.full for plan in plans] == [False, False]
    check_against_dense_reference(
        rays, column_stochastic(F, rng), rng.normal(size=(3 * P, F))
    )


def test_true_weights_make_reconstruction_ambiguous_when_rays_align():
    # parallel rays: A = S * (1 1^T) = S, singular because W is
    # column stochastic (Q^T has the all-ones null vector)
    rng = np.random.default_rng(8)
    F = 6
    W = column_stochastic(F, rng)
    R = np.tile([0.0, 0.0, 1.0], (F, 1))
    A, _ = build_system(R, W)
    assert system_condition(A) == math.inf
