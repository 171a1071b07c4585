"""Alternating solver: penalties, block updates, and the full pipeline."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unsync3d import sceneio, simplex, solver
from unsync3d.errors import InfeasibleError, InputError
from unsync3d.geometry import (
    CameraFrame,
    ObservationSet,
    RayField,
    assemble_structure,
    compute_rays,
    structure_to_points,
)
from unsync3d.simplex import (
    minimize_on_simplex,
    project_to_masked_simplex,
    self_express,
    support_mask,
)
from unsync3d.solver import (
    SolverConfig,
    _fill_missing,
    admm_w_step,
    coupling_matrix,
    initialize_depths,
    normalize_scale,
    objective,
    pair_distance_matrix,
    psi1,
    psi2,
    soft_ray_cost,
    solve,
    video_pairs,
    x_step,
)
from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion


def make_scene(points=3, samples=24, cameras=3, seed=0, **corr):
    motion = procedural_motion(points, samples, seed=seed)
    rig = RigSpec(camera_count=cameras)
    return generate(motion, rig, CorruptionSpec(seed=seed, **corr))


def bootstrap_structure(scene):
    """Bootstrapped, gap-filled structure and the support mask of a scene."""
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    depths, _ = initialize_depths(rays, scaled)
    X = _fill_missing(assemble_structure(depths, rays), rays.present, scaled)
    ids = np.array([f.video_id for f in scaled])
    return X, support_mask(ids, exclude_same_video=True)


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.lambda1 == 0.05
    assert cfg.lambda2 == 0.1
    assert cfg.lambda3 == math.inf
    assert cfg.rho == 0.02
    cfg.validate()
    with pytest.raises(InputError):
        replace(cfg, lambda1=-0.1).validate()
    with pytest.raises(InputError):
        replace(cfg, lambda3=0.0).validate()
    with pytest.raises(InputError):
        replace(cfg, rho=0.0).validate()
    with pytest.raises(InputError):
        replace(cfg, outer_max=0).validate()

    # non-finite numbers (lambda3 alone may be inf) and wrong types
    bad = [
        ("lambda1", math.nan),
        ("lambda1", math.inf),
        ("lambda2", math.inf),
        ("lambda2", math.nan),
        ("lambda3", math.nan),
        ("lambda3", -math.inf),
        ("rho", math.inf),
        ("lambda1", 10**400),
        ("lambda1", "abc"),
        ("lambda1", True),
        ("rho", None),
        ("outer_max", 2.5),
        ("outer_max", "3"),
        ("outer_max", True),
        ("second_stage", "no"),
        ("same_video_exclusion", 1),
    ]
    for name, value in bad:
        with pytest.raises(InputError):
            replace(cfg, **{name: value}).validate()
    # ints and numpy scalars are numbers too
    replace(cfg, lambda1=1, lambda3=np.float64(100.0), outer_max=np.int64(5)).validate()


def test_video_pairs_follow_within_video_order():
    scene = make_scene(samples=12, cameras=3)
    pairs = video_pairs(scene.frames)
    ids = np.array([f.video_id for f in scene.frames])
    pos = np.array([f.frame_in_video for f in scene.frames])
    expected = sum(np.sum(ids == v) - 1 for v in np.unique(ids))
    assert pairs.shape == (expected, 2)
    for a, b in pairs:
        assert ids[a] == ids[b]
        assert pos[b] == pos[a] + 1


def _difference_operator(pairs, F):
    """F x M operator T with one column e_a - e_b per video pair."""
    T = np.zeros((F, pairs.shape[0]))
    for m, (a, b) in enumerate(pairs):
        T[a, m] = 1.0
        T[b, m] = -1.0
    return T


def _smoothness_laplacian(pairs, F):
    """T T^T of the smoothness operator, summed pair by pair: +1 on both
    diagonal entries and -1 on both off-diagonal entries of a pair."""
    L = np.zeros((F, F))
    a, b = pairs[:, 0], pairs[:, 1]
    np.add.at(L, (a, a), 1.0)
    np.add.at(L, (b, b), 1.0)
    np.add.at(L, (a, b), -1.0)
    np.add.at(L, (b, a), -1.0)
    return L


def test_smoothness_operator_columns():
    scene = make_scene(samples=10, cameras=2)
    F = len(scene.frames)
    pairs = video_pairs(scene.frames)
    T = _difference_operator(pairs, F)
    assert T.shape == (F, pairs.shape[0])
    # X T stacks exactly the per-pair differences
    X = np.random.default_rng(0).normal(size=(6, F))
    diffs = X[:, pairs[:, 0]] - X[:, pairs[:, 1]]
    assert np.allclose(X @ T, diffs)
    # so the Laplacian's quadratic form sums the squared pair differences
    L = _smoothness_laplacian(pairs, F)
    assert np.isclose(np.trace(X @ L @ X.T), np.sum(diffs ** 2))


def test_smoothness_laplacian_is_operator_product():
    scene = make_scene(samples=10, cameras=3)
    frames = scene.frames
    F = len(frames)
    pairs = video_pairs(frames)
    T = _difference_operator(pairs, F)
    assert np.array_equal(video_pairs(frames[::-1]), pairs)
    assert np.array_equal(_smoothness_laplacian(pairs, F), T @ T.T)
    # the coupling matrix carries it bit for bit
    W = np.random.default_rng(1).dirichlet(np.ones(F), size=F).T
    cfg = SolverConfig(lambda2=0.3)
    Q = np.eye(F) - W
    expected = (Q @ Q.T) / (F * 3) + (0.3 / pairs.shape[0]) * (T @ T.T)
    assert np.array_equal(coupling_matrix(W, cfg, frames, 3), expected)


def test_psi1_plain_loop_oracle():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(7, 7))
    acc = 0.0
    for i in range(7):
        for j in range(7):
            acc += (W[i, j] - W[j, i]) ** 2
    assert np.isclose(psi1(W), acc / 7)
    assert psi1(W + W.T) == 0.0


def test_psi2_plain_loop_oracle_and_single_frame_warning():
    scene = make_scene(samples=9, cameras=3)
    X = np.random.default_rng(2).normal(size=(9, len(scene.frames)))
    pairs = video_pairs(scene.frames)
    acc = 0.0
    for a, b in pairs:
        acc += np.sum((X[:, a] - X[:, b]) ** 2)
    assert np.isclose(psi2(X, scene.frames), acc / pairs.shape[0])

    # relabel so every frame is its own single-frame video
    single = [
        replace(
            f,
            rotation=f.rotation.copy(),
            video_id=g,
            frame_in_video=0,
        )
        for g, f in enumerate(scene.frames[:3])
    ]
    with pytest.warns(UserWarning):
        assert psi2(X[:, :3], single) == 0.0


def test_objective_terms_and_normalizations():
    scene = make_scene(points=4, samples=16, cameras=2)
    F = len(scene.frames)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, F))
    W = rng.normal(size=(F, F))
    cfg = SolverConfig(lambda1=0.3, lambda2=0.7)
    total, terms = objective(X, W, cfg, scene.frames)
    assert np.isclose(terms["self_expression"], np.sum((X - X @ W) ** 2) / (F * 4))
    assert np.isclose(total, terms["self_expression"] + 0.3 * terms["psi1"] + 0.7 * terms["psi2"])
    assert terms["soft_ray"] == 0.0

    # finite lambda3 adds the raw squared ray distances, unnormalized
    rays = compute_rays(scene.frames, scene.observations)
    soft = SolverConfig(lambda1=0.3, lambda2=0.7, lambda3=100.0)
    total_soft, terms_soft = objective(X, W, soft, scene.frames, rays)
    assert np.isclose(
        total_soft, total + 100.0 * terms_soft["soft_ray"]
    )
    with pytest.raises(InputError):
        objective(X, W, soft, scene.frames)


def test_soft_ray_cost_on_ray_points_vanish():
    scene = make_scene(points=2, samples=12, cameras=3)
    rays = compute_rays(scene.frames, scene.observations)
    P, F = rays.present.shape
    depths = np.where(rays.present, 2.0, np.nan)
    pts = rays.centers[None] + depths[:, :, None] * rays.directions
    X = np.zeros((3 * P, F))
    for p in range(P):
        X[3 * p : 3 * p + 3] = pts[p].T
    assert soft_ray_cost(X, rays) < 1e-10
    X[0] += 1.0  # move point 0 off its rays by 1 unit sideways-ish
    assert soft_ray_cost(X, rays) > 1e-3


def test_soft_ray_cost_keeps_a_small_offset_far_along_its_ray():
    # a point 1e-6 off a ray at depth 1000: the distance is read from the
    # offset itself, not from the difference of two squared depths of 1e6,
    # whose rounding is as large as the squared distance
    centers = np.array([[0.3, -0.2, 0.1]])
    directions = np.array([[[2.0, 3.0, 6.0]]]) / 7.0
    side = np.array([3.0, -2.0, 0.0]) / math.sqrt(13.0)
    point = centers[0] + 1000.0 * directions[0, 0] + 1e-6 * side
    rays = RayField(directions, centers, np.ones((1, 1), dtype=bool))
    cost = soft_ray_cost(point.reshape(3, 1), rays)
    assert cost == pytest.approx(1e-12, rel=1e-6, abs=0.0)


def offdiag_weights(F, rng):
    W = rng.uniform(size=(F, F))
    np.fill_diagonal(W, 0.0)
    return W / W.sum(axis=0)


def test_x_step_hard_mode_stays_on_rays_and_is_stationary():
    for miss_rate in (0.0, 0.3):
        check_hard_x_step(miss_rate)


def check_hard_x_step(miss_rate):
    scene = make_scene(points=2, samples=18, cameras=3, seed=4, miss_rate=miss_rate)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    rng = np.random.default_rng(5)
    W = offdiag_weights(len(scaled), rng)
    cfg = SolverConfig(lambda2=0.2)
    X, depths, flags = x_step(np.zeros((6, len(scaled))), W, cfg, rays, scaled)
    # every present observation sits exactly on its ray
    pts = structure_to_points(X, 2)
    rel = pts - rays.centers[None]
    along = np.einsum("pfa,pfa->pf", rel, rays.directions)
    perp = np.einsum("pfa,pfa->pf", rel, rel) - along**2
    assert np.nanmax(np.abs(perp[rays.present])) < 1e-12
    # finite-difference stationarity along each ray direction
    base = objective(X, W, cfg, scaled, rays)[0]
    h = 1e-6
    for p, f in [(0, 0), (1, 5), (0, 11)]:
        if not rays.present[p, f]:
            continue
        Xp = X.copy()
        Xp[3 * p : 3 * p + 3, f] += h * rays.directions[p, f]
        Xm = X.copy()
        Xm[3 * p : 3 * p + 3, f] -= h * rays.directions[p, f]
        up = objective(Xp, W, cfg, scaled, rays)[0]
        dn = objective(Xm, W, cfg, scaled, rays)[0]
        assert abs(up - dn) / (2 * h) < 1e-5 * (1 + abs(base))
        assert up >= base - 1e-12 and dn >= base - 1e-12
    # a missing observation is a free 3D point: stationary in all three axes
    missing = np.argwhere(~rays.present)
    assert (missing.size > 0) == (miss_rate > 0)
    for p, f in missing[:3]:
        for a in range(3):
            Xp = X.copy()
            Xp[3 * p + a, f] += h
            Xm = X.copy()
            Xm[3 * p + a, f] -= h
            up = objective(Xp, W, cfg, scaled, rays)[0]
            dn = objective(Xm, W, cfg, scaled, rays)[0]
            assert abs(up - dn) / (2 * h) < 1e-5 * (1 + abs(base))
            assert up >= base - 1e-12 and dn >= base - 1e-12


def test_x_step_soft_mode_full_gradient_vanishes():
    for miss_rate in (0.0, 0.3):
        check_soft_x_step(miss_rate)


def check_soft_x_step(miss_rate):
    scene = make_scene(points=2, samples=14, cameras=2, seed=6, miss_rate=miss_rate)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    rng = np.random.default_rng(7)
    W = offdiag_weights(len(scaled), rng)
    cfg = SolverConfig(lambda2=0.2, lambda3=50.0)
    X, depths, flags = x_step(np.zeros((6, len(scaled))), W, cfg, rays, scaled)
    base = objective(X, W, cfg, scaled, rays)[0]
    h = 1e-6
    rng2 = np.random.default_rng(8)
    for _ in range(6):
        i = rng2.integers(X.shape[0])
        f = rng2.integers(X.shape[1])
        Xp = X.copy()
        Xp[i, f] += h
        Xm = X.copy()
        Xm[i, f] -= h
        up = objective(Xp, W, cfg, scaled, rays)[0]
        dn = objective(Xm, W, cfg, scaled, rays)[0]
        assert abs(up - dn) / (2 * h) < 1e-4 * (1 + abs(base))


def reference_point(Mc, rays, lambda3, p):
    """Dense solve of one point's structure in the per-frame basis.

    The plain per-point loop minimize_structure replaced, kept as its
    oracle: every unobserved frame is a free 3D point of the system rather
    than eliminated, and one np.linalg.solve covers the whole point.
    """
    F = Mc.shape[0]
    pres = rays.present[p]
    dirs = rays.directions[p]
    on_ray = pres if math.isinf(lambda3) else np.zeros(F, dtype=bool)
    basis = np.tile(np.eye(3), (F, 1, 1))
    basis[on_ray, 0] = dirs[on_ray]
    keep = np.ones((F, 3), dtype=bool)
    keep[on_ray, 1:] = False
    keep = keep.ravel()
    E = basis.reshape(3 * F, 3)[keep]
    own = np.repeat(np.arange(F), 3)[keep]
    offset = np.where(on_ray[:, None], rays.centers, 0.0)
    H = Mc[np.ix_(own, own)] * (E @ E.T)
    rhs = -np.einsum("ia,ia->i", E, (Mc @ offset)[own])
    if not math.isinf(lambda3):
        # every frame keeps its three identity columns
        for f in np.flatnonzero(pres):
            proj = lambda3 * (np.eye(3) - np.outer(dirs[f], dirs[f]))
            cols = 3 * f + np.arange(3)
            H[np.ix_(cols, cols)] += proj
            rhs[cols] += proj @ rays.centers[f]
    coeff = np.zeros(3 * F)
    coeff[keep] = np.linalg.solve(H, rhs)
    Xp = offset + np.einsum("fka,fk->fa", basis, coeff.reshape(F, 3))
    depths = np.full(F, np.nan)
    depths[pres] = np.einsum("fa,fa->f", Xp[pres] - rays.centers[pres], dirs[pres])
    return Xp, depths


def without(rays, p, frames):
    """The ray field with point p unobserved in ``frames``."""
    present = rays.present.copy()
    directions = rays.directions.copy()
    present[p, frames] = False
    directions[p, frames] = np.nan
    return RayField(directions=directions, centers=rays.centers, present=present)


def check_matches_reference(Mc, rays, lambda3, skip=()):
    flags = []
    X, depths = solver.minimize_structure(Mc, rays, lambda3, flags)
    P = rays.present.shape[0]
    points = structure_to_points(X, P)
    for p in sorted(set(range(P)) - set(skip)):
        Xp, dp = reference_point(Mc, rays, lambda3, p)
        tol = 1e-10 * max(1.0, np.abs(Xp).max())
        assert np.abs(points[p] - Xp).max() <= tol, p
        assert np.array_equal(np.isnan(depths[p]), np.isnan(dp)), p
        assert np.nanmax(np.abs(depths[p] - dp)) <= tol, p
    return points, depths, flags


def test_minimize_structure_matches_dense_per_point_solve(monkeypatch):
    # three points per stack, so the points span several stacks in both ray
    # modes
    monkeypatch.setattr(solver, "_STACK_ENTRIES", 3 * 24**2)
    # soft rays from a weak to a stiff ray term
    for lambda3 in (math.inf, 0.01, 1.0, 50.0, 1000.0):
        check_matches_dense_solve(lambda3, 4 if math.isinf(lambda3) else 13)


def check_matches_dense_solve(lambda3, points):
    for miss_rate in (0.0, 0.3):
        scene = make_scene(
            points=points, samples=24, cameras=3, seed=4, miss_rate=miss_rate
        )
        scaled, _ = normalize_scale(scene.frames)
        rays = compute_rays(scaled, scene.observations)
        F = len(scaled)
        assert points * F**2 > solver._STACK_ENTRIES
        W = offdiag_weights(F, np.random.default_rng(5))
        Mc = coupling_matrix(W, SolverConfig(lambda2=0.2), scaled, points)
        counts = rays.present.sum(axis=1)
        # unequal observed counts, so the stacks carry padding
        assert (np.unique(counts).size > 1) == (miss_rate > 0)
        _, _, flags = check_matches_reference(Mc, rays, lambda3)
        assert flags == []
        # a point observed in a single frame; it would slide along that ray
        # at no cost under a coupling with Mc 1 = 0, so this one is positive
        # definite
        lone = without(rays, 1, np.flatnonzero(rays.present[1])[1:])
        Mpd = Mc + np.eye(F)
        _, depths, flags = check_matches_reference(Mpd, lone, lambda3)
        assert np.isfinite(depths[1]).sum() == 1 and flags == []


@pytest.mark.parametrize("lambda3", [0.0, -1.0, math.nan, -math.inf])
def test_minimize_structure_rejects_nonpositive_lambda3(lambda3):
    scene = make_scene(points=2, samples=12, cameras=3, seed=4)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    with pytest.raises(InputError, match="lambda3"):
        solver.minimize_structure(np.eye(len(scaled)), rays, lambda3)


@pytest.mark.parametrize("miss_rate", [0.0, 0.2])
@pytest.mark.parametrize("lambda3", [math.inf, 100.0])
def test_minimize_structure_rejects_a_coupling_not_f_by_f(miss_rate, lambda3):
    # a coupling for another frame count; F * F entries in another shape
    # would ravel onto the gather indices of a partly observed stack
    scene = make_scene(points=3, samples=12, cameras=3, seed=4, miss_rate=miss_rate)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    F = len(scaled)
    for shape in ((F + 1, F + 1), (F - 1, F - 1), (F, F + 1), (F * F,)):
        with pytest.raises(InputError, match="coupling shape"):
            solver.minimize_structure(np.ones(shape), rays, lambda3)


def test_minimize_structure_ridge_retries_only_the_singular_point():
    scene = make_scene(points=3, samples=18, cameras=3, seed=4)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    F = len(scaled)
    # frames a and b code only each other and code no other frame, so
    # e_a + e_b spans a null direction of Mc restricted to {a, b}
    a, b = 3, 10
    W = offdiag_weights(F, np.random.default_rng(6))
    W[[a, b], :] = 0.0
    W[:, [a, b]] = 0.0
    W /= np.where(W.sum(axis=0) > 0, W.sum(axis=0), 1.0)
    W[b, a] = W[a, b] = 1.0
    Q = np.eye(F) - W
    Mc = Q @ Q.T
    # point 1 misses exactly {a, b}, point 2 one other frame, point 0 none
    rays = without(without(rays, 1, [a, b]), 2, [5])
    points, depths, flags = check_matches_reference(Mc, rays, math.inf, skip=[1])
    assert flags == ["ridge:point-1"]
    assert np.isfinite(points[1]).all()
    assert np.isfinite(depths[1][rays.present[1]]).all()
    with pytest.raises(np.linalg.LinAlgError):
        reference_point(Mc, rays, math.inf, 1)


@st.composite
def planned_x_steps(draw):
    """A ray field, a hard or soft lambda3 and two positive definite couplings.

    Each point sees 2 to F frames, two of them often; some draws are fully
    observed, and some have F and P large enough that ``_STACK_ENTRIES``
    splits the points into several stacks.
    """
    lambda3 = draw(st.sampled_from([math.inf, 30.0]))
    if draw(st.booleans()):
        # several stacks: 16 points per stack at F = 64
        F = 64
        step = solver._STACK_ENTRIES // F**2
        P = draw(st.integers(step + 1, 3 * step))
    else:
        F = draw(st.integers(3, 12))
        P = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = np.ones((P, F), dtype=bool)
    if not draw(st.booleans()):
        two = draw(st.floats(0.0, 1.0))
        for p in range(P):
            seen = 2 if rng.uniform() < two else rng.integers(2, F + 1)
            present[p] = False
            present[p, rng.choice(F, seen, replace=False)] = True
    directions = rng.normal(size=(P, F, 3))
    directions /= np.linalg.norm(directions, axis=2, keepdims=True)
    directions[~present] = np.nan
    rays = RayField(
        directions=directions, centers=rng.normal(size=(F, 3)), present=present
    )
    couplings = []
    for _ in range(2):
        B = rng.normal(size=(F, F))
        couplings.append(B @ B.T / F + 0.5 * np.eye(F))
    return rays, lambda3, couplings


def fresh(rays):
    return RayField(
        directions=rays.directions.copy(),
        centers=rays.centers.copy(),
        present=rays.present.copy(),
    )


@settings(max_examples=40, deadline=None)
@given(planned_x_steps())
def test_planned_minimize_structure_matches_reference_and_never_goes_stale(case):
    rays, lambda3, (Ma, Mb) = case
    # every point against the dense per-point solve
    _, _, flags = check_matches_reference(Ma, rays, lambda3)
    assert flags == []
    # the plan kept on the field for Ma also serves Mb and the other ray
    # mode: each call gives the bytes of a fresh field
    other = 30.0 if math.isinf(lambda3) else math.inf
    for Mc, lam in ((Mb, lambda3), (Ma, other), (Mb, lambda3)):
        kept = solver.minimize_structure(Mc, rays, lam)
        new = solver.minimize_structure(Mc, fresh(rays), lam)
        for a, b in zip(kept, new):
            assert a.tobytes() == b.tobytes()


def test_solve_plans_x_step_and_video_pairs_once(monkeypatch):
    """The passes of a solve reuse its X-step plan.

    ``_slots`` runs once per stack with a missing observation, however many
    passes the solve takes, in either ray mode; a ray field solved with
    hard, then soft rays keeps one plan for both.  ``video_pairs`` runs only
    in the coupled stage, the one loop with a smoothness prior: once for
    each of its X-steps and objective evaluations, 3 outer + 1 times.
    """
    scene = make_scene(points=4, samples=24, cameras=4, seed=19, miss_rate=0.2)
    present = scene.observations.present
    # two points per stack, so the solve has two stacks
    monkeypatch.setattr(solver, "_STACK_ENTRIES", 2 * 24**2)
    stacks = [present[p : p + 2] for p in (0, 2)]
    assert all(not s.all() for s in stacks)
    calls = {}

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    for name in ("_slots", "video_pairs", "x_step"):
        counted(name)
    for lambda3 in (math.inf, 30.0):
        calls.clear()
        cfg = SolverConfig(outer_max=5, lambda3=lambda3)
        state = solve(scene.observations, scene.frames, cfg)
        (warmup,) = [f for f in state.flags if f.startswith("warmup-")]
        passes = int(warmup.removeprefix("warmup-"))
        assert calls["x_step"] == passes + state.outer_iterations >= 2
        assert calls["_slots"] == len(stacks)
        assert calls["video_pairs"] == 3 * state.outer_iterations + 1

    calls.clear()
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    W = offdiag_weights(len(scaled), np.random.default_rng(19))
    Mc = coupling_matrix(W, SolverConfig(), scaled, 4)
    for lambda3 in (math.inf, 30.0):
        solver.minimize_structure(Mc, rays, lambda3)
    assert calls["_slots"] == len(stacks)


def test_soft_rays_filter_the_coupling_once_per_call(monkeypatch):
    # at F = 240 each of the five fully observed stacks holds one point;
    # they share one F x F filter (I + Mc / lambda3)^-1 per call
    scene = make_scene(points=5, samples=240, cameras=4, seed=1)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    F = len(scaled)
    assert len(solver._stack_plans(rays)) == 5
    W = offdiag_weights(F, np.random.default_rng(1))
    Mc = coupling_matrix(W, SolverConfig(), scaled, 5)
    expected = solver.minimize_structure(Mc, rays, 100.0)
    calls = []
    inv = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    for _ in range(2):
        calls.clear()
        X, depths = solver.minimize_structure(Mc, rays, 100.0)
        assert calls == [(F, F)]
        assert np.array_equal(X, expected[0])
        assert np.array_equal(depths, expected[1])


def test_x_step_never_increases_objective():
    scene = make_scene(points=3, samples=16, cameras=3, seed=9, noise_sigma=1.0)
    scaled, _ = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    rng = np.random.default_rng(10)
    W = offdiag_weights(len(scaled), rng)
    for cfg in (SolverConfig(lambda2=0.3), SolverConfig(lambda2=0.3, lambda3=100.0)):
        depths0, _ = initialize_depths(rays, scaled)
        d = np.where(np.isnan(depths0), 1.0, depths0)
        pts = rays.centers[None] + d[:, :, None] * np.nan_to_num(rays.directions)
        X0 = np.zeros((9, len(scaled)))
        for p in range(3):
            X0[3 * p : 3 * p + 3] = pts[p].T
        before = objective(X0, W, cfg, scaled, rays)[0]
        X1, _, _ = x_step(X0, W, cfg, rays, scaled)
        after = objective(X1, W, cfg, scaled, rays)[0]
        assert after <= before + 1e-9 * (1 + abs(before))


def coupled_objective(X, W, cfg):
    F, P = X.shape[1], X.shape[0] // 3
    return np.sum((X - X @ W) ** 2) / (F * P) + cfg.lambda1 * psi1(W)


def test_admm_w_step_feasible_and_descends():
    scene = make_scene(points=3, samples=20, cameras=4, seed=11)
    X, mask = bootstrap_structure(scene)
    cfg = SolverConfig()
    W, _, _, info = admm_w_step(X, mask, cfg)
    F = X.shape[1]
    assert W.shape == (F, F)
    assert np.allclose(W.sum(axis=0), 1.0, atol=1e-8)
    assert W.min() >= -1e-12
    assert np.abs(W[~mask.allowed]).max() == 0.0
    assert info["iterations"] >= 1
    assert info["converged"]

    # a hot-started call never worsens the coupled objective, here after the
    # structure moved as an X-step would move it
    before = coupled_objective(X, W, cfg)
    W2 = admm_w_step(X, mask, cfg, W)[0]
    assert coupled_objective(X, W2, cfg) <= before + 1e-9 * (1 + before)
    X = X + 1e-2 * np.sin(np.arange(X.size)).reshape(X.shape)
    before = coupled_objective(X, W2, cfg)
    W3 = admm_w_step(X, mask, cfg, W2)[0]
    assert coupled_objective(X, W3, cfg) <= before + 1e-9 * (1 + before)


def test_admm_w_step_rejects_bad_inputs():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 8))
    mask = support_mask(np.arange(8) % 2)
    anchor = self_express(X, mask)
    cfg = SolverConfig()
    # a mask for 6 frames against an 8-frame structure and anchor
    small = support_mask(np.arange(6) % 2)
    for weights in (anchor, None):
        with pytest.raises(InputError, match="mask shape"):
            admm_w_step(X, small, cfg, weights)
    # an anchor of the wrong shape, or with a non-finite entry
    for bad in (anchor[:, :7], anchor[:6, :6], np.zeros(8)):
        with pytest.raises(InputError, match="anchor"):
            admm_w_step(X, mask, cfg, bad)
    for value in (math.nan, math.inf):
        bad = anchor.copy()
        bad[1, 0] = value
        with pytest.raises(InputError, match="anchor"):
            admm_w_step(X, mask, cfg, bad)
    # a non-finite structure, with or without an anchor
    for value in (math.nan, math.inf):
        bad = X.copy()
        bad[2, 3] = value
        for weights in (anchor, None):
            with pytest.raises(InputError, match="non-finite structure"):
                admm_w_step(bad, mask, cfg, weights)


def test_admm_w_step_rejects_a_structure_whose_gram_matrix_overflows():
    # 1e160 overflows X^T X itself; the second scale leaves tr X^T X at half
    # the float range, so X^T X is finite, but not four times its trace,
    # which bounds the W-step's gradients.  Either way the step raises
    # before any product warns (RuntimeWarnings are errors here)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 6))
    mask = support_mask(np.arange(6) % 2)
    anchor = self_express(X, mask)
    edge = math.sqrt(sys.float_info.max / (2.0 * np.square(X).sum()))
    for scale in (1e160, edge):
        for weights in (anchor, None):
            with pytest.raises(InputError, match="structure is too large"):
                admm_w_step(X * scale, mask, SolverConfig(), weights)
    # a large structure whose Gram matrix fits is solved
    W = admm_w_step(X * 1e150, mask, SolverConfig(), anchor)[0]
    assert np.isfinite(W).all()
    assert np.allclose(W.sum(axis=0), 1.0)


def proximal_kkt_gap(X, W, W_prev, allowed, cfg):
    # worst stationarity violation of each column of the W-step's proximal
    # problem, psi1's gradient included, relative to its gradient's size
    # (0 at the exact minimizer)
    F, P = X.shape[1], X.shape[0] // 3
    G = X.T @ X
    grad = (2.0 / (F * P)) * (G @ W - G)
    grad += (4.0 * cfg.lambda1 / F) * (W - W.T)
    grad += cfg.rho * (W - W_prev)
    mu = np.where(allowed, grad, np.inf).min(axis=0)
    viol = np.where(W > 1e-12, grad - mu, 0.0).max(axis=0)
    return viol / (1.0 + np.abs(np.where(allowed, grad, 0.0)).max(axis=0))


@pytest.mark.parametrize("rho", [1.0, 1e-2])
def test_admm_w_step_projected_gradient_solves_each_column(rho):
    # the W-step's projected gradient closes every column's KKT gap of the
    # proximal problem, through the factored step map X^T (X W) (12 P < F)
    # and the F x F one (12 P >= F); at lambda1 = 0 the columns decouple,
    # and each must match the active-set engine on (1/FP) G + (rho/2) I
    # with linear term -(2/FP) G - rho W_prev
    for points, samples in ((3, 60), (16, 48)):
        scene = make_scene(points=points, samples=samples, cameras=4, seed=11)
        X, mask = bootstrap_structure(scene)
        F, P = X.shape[1], X.shape[0] // 3
        allowed = mask.allowed
        # a feasible start away from the optimum: the decoupled code, half
        # of it moved to the uniform weights over each column's atoms
        uniform = allowed / allowed.sum(axis=0)
        W_prev = 0.5 * (self_express(X, mask) + uniform)
        for lambda1 in (0.05, 0.0):
            cfg = SolverConfig(lambda1=lambda1, rho=rho)
            W, _, _, info = admm_w_step(X, mask, cfg, W_prev)
            assert info["converged"]
            assert np.allclose(W.sum(axis=0), 1.0, atol=1e-12)
            assert W.min() >= 0.0
            assert np.abs(W[~allowed]).max() == 0.0
            assert proximal_kkt_gap(X, W, W_prev, allowed, cfg).max() <= 1e-9
        # W is the lambda1 = 0 step
        G = X.T @ X
        H = G / (F * P) + (rho / 2.0) * np.eye(F)
        const = -(2.0 / (F * P)) * G - rho * W_prev
        ref = minimize_on_simplex(H, const, allowed=allowed)
        assert np.abs(W - ref).max() <= 1e-9


def _count_sorts(monkeypatch):
    # one entry per sorted projection, wherever in the package it is called
    calls = []
    original = simplex.project_to_masked_simplex

    def counting(V, allowed):
        calls.append(V.shape[1])
        return original(V, allowed)

    monkeypatch.setattr(simplex, "project_to_masked_simplex", counting)
    return calls


def test_admm_w_step_projected_gradient_sorts_under_once_per_iteration(
    monkeypatch,
):
    # each step tries the previous support first, so only the columns whose
    # support changed are sorted: over four W-steps of about 9 steps each,
    # fewer columns than one full projection per W-step, where sorting
    # every step would sort F columns per step
    calls = _count_sorts(monkeypatch)
    scene = make_scene(points=16, samples=48, cameras=4, seed=11)
    X, mask = bootstrap_structure(scene)
    F = X.shape[1]
    assert 12 * (X.shape[0] // 3) >= F
    cfg = SolverConfig()
    W, _, _, info = admm_w_step(X, mask, cfg)
    iterations = info["iterations"]
    for _ in range(3):
        X = X + 1e-3 * np.sin(np.arange(X.size)).reshape(X.shape)
        W, _, _, info = admm_w_step(X, mask, cfg, W)
        iterations += info["iterations"]
    assert iterations >= 4 * 4
    assert 0 < len(calls) and sum(calls) <= 4 * F


@st.composite
def projection_problems(draw):
    """Inputs of ``_project_near``: V, a mask and a true, stale or empty hint."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    values = st.floats(-3.0, 3.0, allow_subnormal=False)
    V = draw(hnp.arrays(float, (n, m), elements=values))
    allowed = draw(hnp.arrays(bool, (n, m)))
    keep = draw(hnp.arrays(int, m, elements=st.integers(0, n - 1)))
    allowed[keep, np.arange(m)] = True
    hint = draw(st.sampled_from(["true", "stale", "empty"]))
    if hint == "true":
        support = project_to_masked_simplex(V, allowed) > 0.0
    elif hint == "stale":
        # the support of a nearby input, as the previous iterate gives it
        nudge = draw(hnp.arrays(float, (n, m), elements=values))
        support = project_to_masked_simplex(V + 0.1 * nudge, allowed) > 0.0
    else:
        support = np.zeros((n, m), dtype=bool)
    return V, allowed, support


@settings(max_examples=200, deadline=None)
@given(projection_problems())
def test_project_near_matches_sorted_projection(problem):
    V, allowed, support = problem
    ref = project_to_masked_simplex(V, allowed)
    count = support.sum(axis=0).astype(float)
    out = simplex._project_near(V.copy(), allowed, support, count)
    assert np.abs(out - ref).max() <= 1e-12
    assert out.min() >= 0.0
    assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12
    assert not out[~allowed].any()
    # zeros are +0.0, as a masked write would leave them
    assert not np.signbit(out).any()
    # the hint now holds the result's supports, ready for the next call
    assert np.array_equal(support, out > 0.0)
    assert np.array_equal(count, support.sum(axis=0))


def test_import_leaves_scipy_unloaded():
    # scipy.linalg adds about 26 MB of resident memory and 0.35 s of import
    # time; the solver's linear algebra stays on numpy
    code = (
        "import sys, unsync3d, unsync3d.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


def test_admm_w_step_lambda1_zero_matches_decoupled_coding():
    scene = make_scene(points=3, samples=16, cameras=4, seed=12)
    X, mask = bootstrap_structure(scene)
    cfg = SolverConfig(lambda1=0.0)
    W = admm_w_step(X, mask, cfg)[0]
    W_ref = self_express(X, mask)
    r_admm = np.sum((X - X @ W) ** 2)
    r_ref = np.sum((X - X @ W_ref) ** 2)
    assert abs(r_admm - r_ref) < 1e-6 * (1 + r_ref)


def test_initialize_depths_recovers_noise_free_geometry():
    scene = make_scene(points=4, samples=20, cameras=4, seed=13)
    scaled, factor = normalize_scale(scene.frames)
    rays = compute_rays(scaled, scene.observations)
    depths, flags = initialize_depths(rays, scaled)
    assert flags == []
    assert np.isnan(depths[~rays.present]).all()
    # triangulated points land near the truth structure
    X = assemble_structure(depths, rays)
    pts = structure_to_points(X, 4) / factor
    ref = structure_to_points(scene.truth, 4)
    errs = np.linalg.norm(pts - ref, axis=2)[rays.present]
    # motion spans hundreds of units; the pairing bootstrap should be
    # within a few percent of that scale for most observations
    assert np.median(errs) < 30.0


def _pair_depths(rays, f, j):
    """Closed-form closest points between the ray bundles of frames f and j.

    The brute-force reference for ``solver._pair_rows``: returns (shared
    point rows, depths along f, depths along j), or None when the pair is
    unusable.
    """
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


def reference_pair_distances(rays, ids):
    """Pair-by-pair loop over _pair_depths, the brute-force reference."""
    F = rays.present.shape[1]
    D = np.full((F, F), np.inf)
    for f in range(F):
        for j in range(f + 1, F):
            if ids[f] == ids[j]:
                continue
            sol = _pair_depths(rays, f, j)
            if sol is None:
                continue
            rows, tf, tj = sol
            u = rays.centers[f] - rays.centers[j]
            resid = (
                u
                + tf[:, None] * rays.directions[rows, f]
                - tj[:, None] * rays.directions[rows, j]
            )
            D[f, j] = D[j, f] = np.mean(np.sum(resid**2, axis=1))
    return D


def crafted_rays():
    """Six frames in three videos, each unusable pair made so on purpose.

    The points move between frames, so usable pairs have a positive cost.
    (0, 1) share a video; (2, 4) share no point; frame 3 sees point 0 along
    frame 0's ray, so (0, 3) is parallel there; frame 5 sees point 1 behind
    its camera, so its pairs on that point have a negative depth.
    """
    rng = np.random.default_rng(31)
    points = rng.normal(scale=0.5, size=(3, 1, 3)) + rng.normal(
        scale=0.05, size=(3, 6, 3)
    )
    centers = np.array(
        [[4.0, 0, 0], [0, 4.0, 0], [-4.0, 0, 0], [1.0, 1, 1], [0, -4.0, 0], [0, 0, 4.0]]
    )
    ids = np.array([0, 0, 1, 1, 2, 2])
    rel = points - centers[None, :, :]
    directions = rel / np.linalg.norm(rel, axis=2, keepdims=True)
    directions[0, 3] = directions[0, 0]
    directions[1, 5] *= -1.0
    present = np.ones((3, 6), dtype=bool)
    present[1:, 2] = False
    present[0, 4] = False
    directions[~present] = np.nan
    return RayField(directions=directions, centers=centers, present=present), ids


def test_pair_distance_matrix_matches_pairwise_reference():
    crafted = crafted_rays()
    for f, j in [(2, 4), (0, 3), (0, 5)]:
        assert _pair_depths(crafted[0], f, j) is None
    scene = make_scene(points=4, samples=20, cameras=4, seed=13, miss_rate=0.3)
    scaled, _ = normalize_scale(scene.frames)
    ids = np.array([f.video_id for f in scaled])
    for rays, ids in [crafted, (compute_rays(scaled, scene.observations), ids)]:
        with np.errstate(all="raise"):
            D = pair_distance_matrix(rays, ids)
        ref = reference_pair_distances(rays, ids)
        assert np.array_equal(np.isinf(D), np.isinf(ref))
        finite = np.isfinite(ref)
        assert finite.any()
        assert np.allclose(D[finite], ref[finite], rtol=1e-12, atol=0.0)
        usable = finite.any(axis=1)
        assert np.array_equal(
            np.argmin(D[usable], axis=1), np.argmin(ref[usable], axis=1)
        )


def crafted_frames(rays, ids):
    """Camera frames for a bare ray field: identity poses at its centers."""
    return [
        CameraFrame(np.eye(3), rays.centers[f], np.eye(3), int(v), f, f)
        for f, v in enumerate(ids)
    ]


def test_initialize_depths_reads_the_argmin_partners_closed_form():
    scene = make_scene(points=4, samples=20, cameras=4, seed=13, miss_rate=0.3)
    scaled, _ = normalize_scale(scene.frames)
    crafted, crafted_ids = crafted_rays()
    # frame 2 sees point 0 alone; hidden from frames 0, 1 and 5, it leaves
    # frame 2 no usable partner
    present = crafted.present.copy()
    present[0, [0, 1, 5]] = False
    directions = np.where(present[:, :, None], crafted.directions, np.nan)
    lonely = RayField(directions, crafted.centers, present)
    cases = [
        (crafted, crafted_frames(crafted, crafted_ids)),
        (lonely, crafted_frames(lonely, crafted_ids)),
        (compute_rays(scaled, scene.observations), scaled),
    ]
    for rays, frames in cases:
        ids = np.array([f.video_id for f in frames])
        depths, flags = initialize_depths(rays, frames)
        D = pair_distance_matrix(rays, ids)
        unit = []
        for f in range(rays.present.shape[1]):
            seen = rays.present[:, f]
            if not np.isfinite(D[f]).any():
                unit.append(f"init-unit-depth-frame-{f}")
                assert (depths[seen, f] == 1.0).all()
                continue
            rows, tf, _ = _pair_depths(rays, f, int(np.argmin(D[f])))
            np.testing.assert_allclose(depths[rows, f], tf, rtol=1e-12, atol=0.0)
            rest = seen.copy()
            rest[rows] = False
            np.testing.assert_allclose(
                depths[rest, f], np.median(tf), rtol=1e-12, atol=0.0
            )
        assert flags == unit
        assert bool(unit) == (rays is lonely)
        assert ("init-unit-depth-frame-2" in unit) == (rays is lonely)
        assert np.isnan(depths[~rays.present]).all()


def test_normalize_scale_unit_mean_distance_and_errors():
    scene = make_scene(points=2, samples=12, cameras=3, seed=14)
    scaled, factor = normalize_scale(scene.frames)
    centers = np.stack([f.center for f in scaled])
    ids = np.array([f.video_id for f in scaled])
    reps = np.stack([centers[ids == v].mean(axis=0) for v in np.unique(ids)])
    iu = np.triu_indices(reps.shape[0], k=1)
    dists = np.linalg.norm(reps[iu[0]] - reps[iu[1]], axis=1)
    assert np.isclose(dists.mean(), 1.0)
    orig = np.stack([f.center for f in scene.frames])
    assert np.allclose(centers, orig * factor)

    coincident = [
        replace(f, center=np.zeros(3), rotation=f.rotation.copy())
        for f in scene.frames
    ]
    with pytest.raises(InputError):
        normalize_scale(coincident)

    # one moving camera: the distances are taken between its frame centers
    single = [
        replace(f, video_id=0, frame_in_video=f.global_index) for f in scene.frames
    ]
    scaled, factor = normalize_scale(single)
    centers = np.stack([f.center for f in scaled])
    iu = np.triu_indices(len(single), k=1)
    dists = np.linalg.norm(centers[iu[0]] - centers[iu[1]], axis=1)
    assert np.isclose(dists.mean(), 1.0)
    assert np.allclose(centers, orig * factor)


def test_fill_missing_interpolates_along_video_order():
    scene = make_scene(points=2, samples=16, cameras=2, seed=15)
    F = len(scene.frames)
    pos = np.array([f.frame_in_video for f in scene.frames])
    ids = np.array([f.video_id for f in scene.frames])
    # structure linear in within-video position so interpolation is exact
    X = np.zeros((6, F))
    for v in (0, 1):
        cols = ids == v
        X[:, cols] = np.arange(6)[:, None] * pos[cols][None, :] + 10.0 * v
    present = np.ones((2, F), dtype=bool)
    hole = np.flatnonzero(ids == 0)[3]
    present[1, hole] = False
    filled = _fill_missing(np.where(present.repeat(3, axis=0), X, np.nan), present, scene.frames)
    assert np.allclose(filled, X)

    # a point absent from one whole video falls back to its mean elsewhere
    present2 = np.ones((2, F), dtype=bool)
    present2[0, ids == 1] = False
    X2 = np.where(present2.repeat(3, axis=0), X, np.nan)
    filled2 = _fill_missing(X2, present2, scene.frames)
    expect = X[0:3, ids == 0].mean(axis=1)
    assert np.allclose(filled2[0:3][:, ids == 1], expect[:, None])


def test_solve_input_validation():
    scene = make_scene(points=2, samples=12, cameras=3, seed=16)
    with pytest.raises(InputError):
        solve(scene.observations, scene.frames[:-1])
    with pytest.raises(InputError):
        solve(scene.observations, scene.frames, SolverConfig(lambda1=-1.0))

    two = [
        replace(f, rotation=f.rotation.copy(), global_index=i)
        for i, f in enumerate(scene.frames[:2])
    ]
    obs2 = ObservationSet(
        measures=scene.observations.measures[:, :2],
        present=scene.observations.present[:, :2],
    )
    with pytest.raises(InputError):
        solve(obs2, two)

    # a point with zero observations anywhere
    obs = scene.observations
    gone = replace(obs, present=np.zeros_like(obs.present))
    with pytest.raises(InputError):
        solve(gone, scene.frames)

    single = make_scene(
        points=2, samples=12, cameras=1, seed=16, consecutive_exclusion=False
    )
    with pytest.raises(InfeasibleError):
        solve(single.observations, single.frames)


def test_solve_loop_calls_and_flags(monkeypatch):
    """The warm-up and the one coupled stage run the one alternation loop.

    Per solve, counting the calls the loops make (not those nested in
    another counted call): x_step = warm-up passes + outer iterations,
    admm_w_step = outer (each starts at the warm-up's code), self_express =
    warm-up passes, objective = 2 outer + 1, and the self-expression term
    alone (``_self_expression``, the warm-up's stop test) = warm-up passes.
    """
    scene = make_scene(points=3, samples=12, cameras=3, seed=20)
    calls = {}
    infos = []
    nested = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not nested[0]:
                calls[name] = calls.get(name, 0) + 1
            nested[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                nested[0] -= 1
            if name == "admm_w_step":
                infos.append(out[3])
            return out

        return wrapper

    for name in (
        "x_step", "objective", "admm_w_step", "self_express", "_self_expression"
    ):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))

    def run(cfg):
        calls.clear()
        infos.clear()
        state = solve(scene.observations, scene.frames, cfg)
        warmup = [f for f in state.flags if f.startswith("warmup-")]
        (passes,) = [int(f.removeprefix("warmup-")) for f in warmup]
        outer = state.outer_iterations
        assert calls["x_step"] == passes + outer
        assert calls["admm_w_step"] == outer
        assert calls["self_express"] == passes
        assert calls["objective"] == 2 * outer + 1
        assert calls["_self_expression"] == passes
        assert len(state.objective_trace) == 2 * outer + 1
        assert state.admm_iterations == sum(i["iterations"] for i in infos)
        assert all(i["converged"] for i in infos)
        return state, passes

    # a tolerance no loop meets in 3 passes: every loop stops at the cap
    monkeypatch.setattr(solver, "_OUTER_REL_TOL", 5e-324)
    capped, passes = run(SolverConfig(outer_max=3))
    assert passes == 3 and capped.outer_iterations == 3
    assert not capped.converged
    assert [f for f in capped.flags if not f.startswith("ridge:")] == [
        "warmup-3",
        "stage0-outer-cap",
    ]

    # a loose tolerance stops every loop on it, before the cap
    monkeypatch.setattr(solver, "_OUTER_REL_TOL", 0.5)
    loose, passes = run(SolverConfig())
    assert loose.converged
    assert not any(f.endswith("-outer-cap") for f in loose.flags)
    assert 2 <= passes < 100
    assert 2 <= loose.outer_iterations < 100


def test_solve_memory_peak_stays_within_nine_f_by_f_arrays():
    # the codes, the Gram matrix and the coupling are F x F, so a solve's
    # traced peak is counted in F x F float arrays.  On this 240-frame
    # scene at outer_max = 3 it read 12.8 of them when the W-step sorted
    # every missed column at once and the coder kept its gradient blocks
    # and -2 G through the X-step, and 6.6 since.  A small solve first
    # keeps the first solve's one-time set-up in the process out of it
    small = make_scene(points=3, samples=12, cameras=3, seed=20)
    solve(small.observations, small.frames, SolverConfig(outer_max=1))
    scene = make_scene(points=5, samples=240, cameras=4, seed=1)
    F = len(scene.frames)
    tracemalloc.start()
    try:
        solve(scene.observations, scene.frames, SolverConfig(outer_max=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * F * F * 8


def test_solve_trace_monotone_and_flags(monkeypatch):
    # the trace records Phi, which no block step raises; every warm-up
    # X-step runs at lambda2 = 0, and every coupled X-step and W-step at
    # min(lambda2, FINAL_LAMBDA2), so a lambda2 below the final one is never
    # raised, and at lambda2 itself without second_stage
    scene = make_scene(points=3, samples=24, cameras=3, seed=17)
    lambda2s, x_lambda2s = [], []
    w_step, step = solver.admm_w_step, solver.x_step

    def recorded(structure, mask, config, weights=None):
        lambda2s.append(config.lambda2)
        return w_step(structure, mask, config, weights)

    def x_recorded(structure, weights, config, *args):
        x_lambda2s.append(config.lambda2)
        return step(structure, weights, config, *args)

    monkeypatch.setattr(solver, "admm_w_step", recorded)
    monkeypatch.setattr(solver, "x_step", x_recorded)
    for lambda2, second_stage in ((0.1, True), (1e-5, True), (0.1, False)):
        lambda2s.clear()
        x_lambda2s.clear()
        cfg = SolverConfig(
            outer_max=30, lambda2=lambda2, second_stage=second_stage
        )
        state = solve(scene.observations, scene.frames, cfg)
        trace = np.array(state.objective_trace)
        assert trace.size >= 3
        assert (np.diff(trace) <= 1e-9 * (1 + np.abs(trace[:-1]))).all()
        final = min(lambda2, solver.FINAL_LAMBDA2) if second_stage else lambda2
        assert len(lambda2s) == state.outer_iterations
        assert set(lambda2s) == {final}
        (passes,) = [
            int(flag.removeprefix("warmup-"))
            for flag in state.flags
            if flag.startswith("warmup-")
        ]
        assert len(x_lambda2s) == passes + state.outer_iterations
        assert set(x_lambda2s[:passes]) == {0.0}
        assert set(x_lambda2s[passes:]) == {final}
        assert state.outer_iterations >= 1
        assert state.weights.shape == (24, 24)
        assert np.allclose(state.weights.sum(axis=0), 1.0, atol=1e-8)


def test_coupled_w_steps_share_the_warm_up_code_as_anchor(monkeypatch):
    # every coupled W-step starts at, and is centred on, the warm-up's last
    # code W0; the trace is Phi about that W0
    scene = make_scene(points=3, samples=18, cameras=3, seed=21)
    codes, starts, measured = [], [], []
    coder, w_step, cost = solver.self_express, solver.admm_w_step, solver.objective

    def coded(*args, **kwargs):
        codes.append(coder(*args, **kwargs).copy())
        return codes[-1].copy()

    def stepped(structure, mask, config, weights=None):
        starts.append(np.array(weights).tobytes())
        return w_step(structure, mask, config, weights)

    def costed(structure, weights, config, frames, rays=None, anchor=None):
        out = cost(structure, weights, config, frames, rays, anchor)
        if anchor is not None:
            args = (structure.copy(), weights.copy(), config, frames, rays)
            measured.append((args, anchor.copy(), out[0]))
        return out

    monkeypatch.setattr(solver, "self_express", coded)
    monkeypatch.setattr(solver, "admm_w_step", stepped)
    monkeypatch.setattr(solver, "objective", costed)
    state = solve(scene.observations, scene.frames, SolverConfig())
    W0 = codes[-1]
    assert len(starts) == state.outer_iterations >= 2
    assert set(starts) == {W0.tobytes()}
    assert state.objective_trace == [total for _, _, total in measured]
    for args, anchor, total in measured:
        assert np.array_equal(anchor, W0)
        assert cost(*args, anchor=W0)[0] == total


def _record_warm_up(monkeypatch, discard=False):
    """Record the coder's calls, the X-steps and the warm-up's terms.

    Returns (codes, steps, terms): per coder call (one per warm-up pass) the
    structure coded at, the warm start and the code; per X-step its input
    structure, its weights, its output structure and its (rays, frames);
    per warm-up pass the self-expression term, the first term of the cost
    its stop test read.  With ``discard`` an extrapolated pass, one coded
    away from its X-step's input, reads an infinite term.
    """
    codes, steps, terms = [], [], []
    coder, step = solver.self_express, solver.x_step
    cost = solver._self_expression

    def coded(at, mask, warm_start=None):
        code = coder(at, mask, warm_start=warm_start)
        codes.append((at.copy(), warm_start, code))
        return code

    def stepped(structure, weights, *args):
        out = step(structure, weights, *args)
        steps.append((structure, weights, out[0], args[1:3]))
        return out

    def costed(X, W):
        term = cost(X, W)
        # one term per warm-up pass; the coupled stage's objective reads it
        # too, after the last pass
        if len(terms) < len(codes):
            if discard and not np.array_equal(codes[-1][0], steps[-1][0]):
                term = math.inf
            terms.append(term)
        return term

    monkeypatch.setattr(solver, "self_express", coded)
    monkeypatch.setattr(solver, "x_step", stepped)
    monkeypatch.setattr(solver, "_self_expression", costed)
    return codes, steps, terms


def _warm_up_passes(codes, steps):
    # per warm-up pass: whether it coded at an extrapolated structure, and
    # whether the loop kept it (the next X-step starts from its structure)
    extrapolated = [
        not np.array_equal(at, step[0]) for (at, _, _), step in zip(codes, steps)
    ]
    kept = [steps[i + 1][0] is steps[i][2] for i in range(len(codes))]
    return extrapolated, kept


# the scene of test_solve_handles_missing_data
MISSING = make_scene(points=4, samples=24, cameras=4, seed=19, miss_rate=0.2)


def test_warm_up_self_expression_never_rises_between_kept_passes(monkeypatch):
    # on hard rays the warm-up extrapolates only after a kept pass that
    # changed the support of at most one column; it keeps some of those
    # passes and discards others, and the kept passes' term never rises
    codes, steps, terms = _record_warm_up(monkeypatch)
    state = solve(MISSING.observations, MISSING.frames)
    assert f"warmup-{len(codes)}" in state.flags
    extrapolated, kept = _warm_up_passes(codes, steps)
    pairs = list(zip(extrapolated, kept))
    assert (True, True) in pairs and (True, False) in pairs
    for i in np.flatnonzero(extrapolated):
        _, before, after = codes[i - 1]
        assert kept[i - 1] and solver._support_changes(before, after) <= 1
    kept_terms = [term for term, k in zip(terms, kept) if k]
    assert all(b <= a for a, b in zip(kept_terms, kept_terms[1:]))
    # soft rays take the same steps; what their kept passes never raise is
    # the warm-up's cost at lambda2 = 0, the self-expression term plus
    # lambda3 times the ray term, which is objective's at lambda1 = 0 too
    for recorded in (codes, steps, terms):
        recorded.clear()
    soft = SolverConfig(lambda3=100.0)
    solve(MISSING.observations, MISSING.frames, soft)
    extrapolated, kept = _warm_up_passes(codes, steps)
    pairs = list(zip(extrapolated, kept))
    assert (True, True) in pairs and (True, False) in pairs
    bare = replace(soft, lambda1=0.0, lambda2=0.0)
    costs = []
    for term, (_, weights, X, (rays, frames)) in zip(terms, steps):
        costs.append(term + soft.lambda3 * soft_ray_cost(X, rays))
        assert objective(X, weights, bare, frames, rays)[0] == costs[-1]
    kept_costs = [cost for cost, k in zip(costs, kept) if k]
    assert all(b <= a for a, b in zip(kept_costs, kept_costs[1:]))


def test_a_discarded_warm_up_pass_counts_and_keeps_the_last_kept_state(
    monkeypatch,
):
    # every extrapolated pass reads a risen term, so the loop discards it:
    # the next pass starts from the state before it, codes at the structure
    # itself, and the next extrapolation takes the same fixed step
    codes, steps, terms = _record_warm_up(monkeypatch, discard=True)
    solve(MISSING.observations, MISSING.frames)
    extrapolated, kept = _warm_up_passes(codes, steps)
    probes = np.flatnonzero(extrapolated[:-1])
    assert probes.size >= 4
    for i in probes:
        assert not kept[i] and not extrapolated[i + 1]
        assert steps[i + 1][0] is steps[i][0]
        assert codes[i + 1][1] is codes[i][1]
    # the step is _STEP (X - X_prev), X_prev the last kept pass's start,
    # however many passes were discarded before it
    ratios = [
        np.linalg.norm(codes[i][0] - steps[i][0])
        / np.linalg.norm(steps[i][0] - steps[i - 1][0])
        for i in probes
    ]
    assert np.allclose(ratios, solver._STEP, rtol=1e-6)

    # a warm-up whose last pass is discarded counts it, and the coupled
    # stage starts from the last kept pass's structure and code
    last = int(probes[0]) + 1
    for recorded in (codes, steps, terms):
        recorded.clear()
    state = solve(MISSING.observations, MISSING.frames, SolverConfig(outer_max=last))
    assert f"warmup-{last}" in state.flags and len(codes) == last
    assert not _warm_up_passes(codes, steps)[1][last - 1]
    structure, weights = steps[last][:2]
    assert structure is steps[last - 2][2] and weights is codes[last - 2][2]


def test_warm_up_codes_equal_the_stateless_coder(monkeypatch):
    # the warm-up's coder state (mask layout built once, last code taken
    # back) changes no byte: every recorded call, a discarded extrapolated
    # pass included, codes again the same on a fresh mask with no state
    codes, steps, _ = _record_warm_up(monkeypatch, discard=True)
    solve(MISSING.observations, MISSING.frames)
    extrapolated, kept = _warm_up_passes(codes, steps)
    assert any(e and not k for e, k in zip(extrapolated, kept))
    # after a discarded pass the warm start is an older code, validated
    warm_starts = [warm for _, warm, _ in codes]
    assert any(w is not c[2] for w, c in zip(warm_starts[1:], codes))
    ids = np.sort([frame.video_id for frame in MISSING.frames])
    fresh = support_mask(ids)
    for at, warm, code in codes:
        assert self_express(at, fresh, warm_start=warm).tobytes() == code.tobytes()


def test_converged_needs_every_loop_and_w_step_settled(monkeypatch):
    # a warm-up stopped at its cap leaves converged False, though the
    # coupled stage settles (in 3 passes) and no cap flag is added
    state = solve(MISSING.observations, MISSING.frames, SolverConfig(outer_max=5))
    assert [f for f in state.flags if not f.startswith("ridge:")] == ["warmup-5"]
    assert state.outer_iterations == 3
    assert not state.converged
    # with every loop settled, one W-step stopped at its cap does too
    scene = make_scene(points=3, samples=12, cameras=3, seed=20)
    settled = solve(scene.observations, scene.frames)
    assert settled.converged
    w_step = solver.admm_w_step

    def capped_last(structure, mask, config, weights=None):
        out = w_step(structure, mask, config, weights)
        calls.append(out[3]["converged"])
        if len(calls) == settled.outer_iterations:
            out[3]["converged"] = False
        return out

    calls = []
    monkeypatch.setattr(solver, "admm_w_step", capped_last)
    state = solve(scene.observations, scene.frames)
    assert all(calls) and len(calls) == settled.outer_iterations
    assert state.flags == settled.flags and not state.converged
    assert state.weights.tobytes() == settled.weights.tobytes()


def test_no_coder_state_outlives_the_warm_up(monkeypatch):
    # the warm-up codes with one coder state of its own, a simplex._Coder
    # mask; no coupled W-step sees it, and a second solve builds a new one
    masks, coupled = [], []
    coder, w_step = solver.self_express, solver.admm_w_step

    def coded(at, mask, warm_start=None):
        masks.append(mask)
        assert isinstance(mask, simplex._Coder)
        return coder(at, mask, warm_start=warm_start)

    def stepped(structure, mask, config, weights=None):
        coupled.append(isinstance(mask, simplex._Coder))
        return w_step(structure, mask, config, weights)

    monkeypatch.setattr(solver, "self_express", coded)
    monkeypatch.setattr(solver, "admm_w_step", stepped)
    first = solve(MISSING.observations, MISSING.frames)
    assert masks and coupled and not any(coupled)
    assert all(mask is masks[0] for mask in masks)
    second = solve(MISSING.observations, MISSING.frames)
    assert masks[-1] is not masks[0]
    for key in ("structure", "weights", "depths"):
        assert getattr(first, key).tobytes() == getattr(second, key).tobytes()


@pytest.mark.parametrize(
    "points, samples, cameras, seed", [(3, 30, 3, 2), (5, 80, 4, 1)]
)
def test_settled_solve_does_not_depend_on_outer_max(tmp_path, points, samples,
                                                    cameras, seed):
    # c03's scene and the desk scene: every loop settles before 100 passes,
    # so a higher cap changes no byte of the result
    motion = procedural_motion(points, samples, seed=seed)
    scene = generate(motion, RigSpec(camera_count=cameras), CorruptionSpec(seed=seed))
    saved = []
    for outer_max in (100, 400):
        state = solve(scene.observations, scene.frames, SolverConfig(outer_max=outer_max))
        assert state.converged
        assert not any(flag.endswith("-outer-cap") for flag in state.flags)
        path = tmp_path / f"result-{outer_max}.json"
        sceneio.save_result(path, state)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_solve_deterministic_and_accurate_noise_free():
    scene = make_scene(points=3, samples=24, cameras=3, seed=18)
    a = solve(scene.observations, scene.frames)
    b = solve(scene.observations, scene.frames)
    assert np.array_equal(a.structure, b.structure)
    assert np.array_equal(a.weights, b.weights)

    # output back in input units: compare against ground truth
    pts = structure_to_points(a.structure, 3)
    ref = structure_to_points(scene.truth, 3)
    errs = np.linalg.norm(pts - ref, axis=2)[scene.observations.present]
    assert np.median(errs) < 1.0  # motion scale is 500 units

    # scale factor maps scene units to the normalized solver frame
    scaled, factor = normalize_scale(scene.frames)
    assert np.isclose(a.scale_factor, factor)


def test_solve_handles_missing_data():
    scene = make_scene(points=4, samples=24, cameras=4, seed=19, miss_rate=0.2)
    assert scene.observations.present.sum() < scene.clean_observations.present.sum()
    state = solve(scene.observations, scene.frames)
    pts = structure_to_points(state.structure, 4)
    ref = structure_to_points(scene.truth, 4)
    errs = np.linalg.norm(pts - ref, axis=2).ravel()
    assert np.median(errs) < 5.0


@st.composite
def small_scenes(draw):
    """A small scene, some with missing data, a config and a seeded rng.

    The config caps the solve to keep the examples fast (the properties
    hold at any cap) and runs hard rays or soft rays at lambda3 = 100.
    """
    scene = make_scene(
        points=draw(st.integers(3, 4)),
        samples=draw(st.integers(12, 18)),
        cameras=draw(st.integers(3, 4)),
        seed=draw(st.integers(0, 10_000)),
        miss_rate=draw(st.sampled_from([0.0, 0.1])),
    )
    # solve rejects a point seen in fewer than two frames
    assume((scene.observations.present.sum(axis=1) >= 2).all())
    lambda3 = draw(st.sampled_from([math.inf, 100.0]))
    config = SolverConfig(outer_max=20, lambda3=lambda3)
    return scene, config, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


# two frames of video 1 miss complementary points, so the gap filling gives
# them identical columns and the warm-up coder meets an exact tie; it used to
# break it toward the smaller global index, and this relabelling moved W by
# 0.95 in both ray modes
TIED = make_scene(points=3, samples=12, cameras=3, seed=3, miss_rate=0.1)


@settings(max_examples=10, deadline=None)
@given(small_scenes())
@example((TIED, SolverConfig(outer_max=20), np.random.default_rng(3)))
@example((TIED, SolverConfig(outer_max=20, lambda3=100.0), np.random.default_rng(3)))
def test_solve_commutes_with_a_relabelling_of_frames(case):
    # a permutation of the global frame list that keeps every frame's
    # (video_id, frame_in_video) permutes the weights and the structure
    # exactly: solve works in that order
    scene, config, rng = case
    base = solve(scene.observations, scene.frames, config)
    perm = rng.permutation(len(scene.frames))
    frames = [replace(scene.frames[p], global_index=i) for i, p in enumerate(perm)]
    obs = ObservationSet(
        scene.observations.measures[:, perm], scene.observations.present[:, perm]
    )
    moved = solve(obs, frames, config)
    assert np.array_equal(moved.weights, base.weights[np.ix_(perm, perm)])
    assert np.array_equal(moved.structure, base.structure[:, perm])
    assert np.array_equal(moved.depths, base.depths[:, perm], equal_nan=True)


def test_solve_does_not_depend_on_the_frame_list_order():
    # the same frames, listed backwards with their labels kept; the gap
    # filling used to read frame_in_video by list position, and this moved
    # W by 0.25
    scene = make_scene(points=4, samples=18, cameras=3, seed=3, miss_rate=0.2)
    config = SolverConfig(outer_max=20)
    base = solve(scene.observations, scene.frames, config)
    moved = solve(scene.observations, list(reversed(scene.frames)), config)
    assert np.array_equal(moved.weights, base.weights)
    assert np.array_equal(moved.structure, base.structure)
    assert moved.flags == base.flags


def test_unit_depth_flag_names_the_input_frame_label():
    # frame 5 sees point 0 alone, and only its own video sees point 0, so
    # it has no cross-video partner; solve works on the frames in video
    # order, where it is frame 5, but flags it by its label in the input
    scene = make_scene(points=4, samples=24, cameras=3, seed=16)
    ids = np.array([f.video_id for f in scene.frames])
    present = scene.observations.present.copy()
    present[1:, 5] = False
    present[0, ids != ids[5]] = False
    measures = np.where(present[:, :, None], scene.observations.measures, np.nan)
    perm = np.random.default_rng(1).permutation(len(scene.frames))
    frames = [replace(scene.frames[p], global_index=i) for i, p in enumerate(perm)]
    obs = ObservationSet(measures[:, perm], present[:, perm])
    state = solve(obs, frames, SolverConfig(outer_max=5))
    label = int(np.flatnonzero(perm == 5)[0])
    assert label != 5
    assert [f for f in state.flags if f.startswith("init-")] == [
        f"init-unit-depth-frame-{label}"
    ]


# soft rays at lambda3 = 100: the soft-ray term, taken as |rel|^2 - along^2,
# carried rounding of 1e-7 of the warm-up's cost, so the warm-up settled a
# pass earlier after the motion and W moved by 8e-4
ROUNDED_STOP = (
    make_scene(points=3, samples=13, cameras=4, seed=2567),
    SolverConfig(outer_max=20, lambda3=100.0),
    np.random.default_rng(2124631531),
)


@settings(max_examples=10, deadline=None)
@given(small_scenes())
@example(ROUNDED_STOP)
def test_solve_commutes_with_a_rigid_motion(case):
    # rotating, translating and uniformly scaling the cameras with the world
    # leaves every pixel in place: the weights stay, and the structure moves
    # along.  Measured over 20 scenes in each ray mode, W moved by at most
    # 4e-10 and X by at most 1.2e-11 of its scale
    scene, config, rng = case
    base = solve(scene.observations, scene.frames, config)
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    s = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
    scale = s * np.abs(base.structure).max()
    t = rng.uniform(-2.0, 2.0, 3) * scale
    # world-to-camera rotations:
    # R_f (x - C_f) = (R_f Q^T)(s Q x + t - (s Q C_f + t)) / s
    frames = [
        replace(f, center=s * Q @ f.center + t, rotation=f.rotation @ Q.T)
        for f in scene.frames
    ]
    moved = solve(scene.observations, frames, config)
    P = scene.observations.point_count
    expected = s * structure_to_points(base.structure, P) @ Q.T + t
    assert np.abs(moved.weights - base.weights).max() <= 1e-6
    got = structure_to_points(moved.structure, P)
    assert np.abs(got - expected).max() <= 1e-6 * scale
