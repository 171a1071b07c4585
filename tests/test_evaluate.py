"""Metrics: threshold accuracy, neighbor recovery, and CSV tables."""

import numpy as np
import pytest

from unsync3d.errors import InputError
from unsync3d.evaluate import THRESHOLDS, EvalReport, emit_tables, evaluate


def identity_order(F):
    return np.arange(F)


def neighbor_weights(F, order):
    """Columns put 0.5 on each true temporal neighbor (1.0 at the ends)."""
    frame_of_rank = np.empty(F, dtype=int)
    frame_of_rank[order] = np.arange(F)
    W = np.zeros((F, F))
    for f in range(F):
        rank = order[f]
        if rank == 0:
            W[frame_of_rank[1], f] = 1.0
        elif rank == F - 1:
            W[frame_of_rank[F - 2], f] = 1.0
        else:
            W[frame_of_rank[rank - 1], f] = 0.5
            W[frame_of_rank[rank + 1], f] = 0.5
    return W


def test_thresholds_fixed():
    assert THRESHOLDS == (10, 20, 30, 40, 50, 100)


def test_accuracy_and_median_hand_case():
    # one point, four frames, errors 5, 15, 25, 150
    F = 4
    truth = np.zeros((3, F))
    est = truth.copy()
    est[0] = [5.0, 15.0, 25.0, 150.0]
    W = neighbor_weights(F, identity_order(F))
    rep = evaluate(est, truth, W, identity_order(F))
    assert np.allclose(rep.per_point_errors, [[5.0, 15.0, 25.0, 150.0]])
    assert rep.accuracy_at[10] == 0.25
    assert rep.accuracy_at[20] == 0.50
    assert rep.accuracy_at[30] == 0.75
    assert rep.accuracy_at[40] == 0.75
    assert rep.accuracy_at[100] == 0.75
    assert rep.median_error == 20.0


def test_accuracy_threshold_is_strict():
    truth = np.zeros((3, 2))
    est = truth.copy()
    est[0] = [10.0, 9.999]
    rep = evaluate(est, truth, neighbor_weights(2, identity_order(2)), identity_order(2))
    assert rep.accuracy_at[10] == 0.5


def test_top2_metrics_perfect_neighbors():
    rng = np.random.default_rng(0)
    F = 9
    order = rng.permutation(F)
    W = neighbor_weights(F, order)
    truth = rng.normal(size=(6, F))
    rep = evaluate(truth, truth, W, order)
    assert rep.top2_neighbor_frequency == 1.0
    assert rep.top2_sum_mean == 1.0
    assert rep.median_error == 0.0
    assert rep.accuracy_at[10] == 1.0


def test_top2_boundary_rule_needs_only_the_single_neighbor():
    # the first frame in time has one true neighbor; as long as the top
    # entry lands there the second entry is free
    F = 5
    order = identity_order(F)
    W = neighbor_weights(F, order)
    W[3, 0] = 0.4  # extra mass on a wrong atom, below the 1.0 at the top
    truth = np.zeros((3, F))
    rep = evaluate(truth, truth, W, order)
    assert rep.top2_neighbor_frequency == 1.0

    # interior frame: both top-2 entries must be the true neighbors
    W2 = neighbor_weights(F, order)
    W2[0, 2] = 0.9  # outweighs one of the 0.5 neighbors
    rep2 = evaluate(truth, truth, W2, order)
    assert rep2.top2_neighbor_frequency == (F - 1) / F


def test_top2_stable_tie_break():
    F = 4
    order = identity_order(F)
    truth = np.zeros((3, F))
    W = np.zeros((F, F))
    # column 1: three-way tie at 0.333; stable order keeps indices 0, 2
    W[[0, 2, 3], 1] = 1.0 / 3.0
    W[[0, 2, 3], 0] = [0.0, 1.0, 0.0]
    W[[1, 3], 2] = 0.5
    W[[2], 3] = 1.0
    rep = evaluate(truth, truth, W, order)
    # column 1 hit: tie resolved to {0, 2} which are the true neighbors
    assert rep.top2_neighbor_frequency >= 0.5


def test_evaluate_validation():
    truth = np.zeros((3, 4))
    W = np.zeros((4, 4))
    with pytest.raises(InputError):
        evaluate(np.zeros((3, 5)), truth, W, identity_order(4))
    with pytest.raises(InputError):
        evaluate(np.zeros((4, 4)), np.zeros((4, 4)), W, identity_order(4))
    with pytest.raises(InputError):
        evaluate(truth, truth, np.zeros((3, 3)), identity_order(4))
    with pytest.raises(InputError):
        evaluate(truth, truth, W, np.array([0, 1, 1, 3]))
    with pytest.raises(InputError):
        evaluate(truth, truth, W, np.arange(5))
    # the neighbour score needs a second frame, the error statistics a point
    with pytest.raises(InputError, match="1 point and 2 frames"):
        evaluate(np.zeros((3, 1)), np.zeros((3, 1)), np.ones((1, 1)), identity_order(1))
    with pytest.raises(InputError, match="1 point and 2 frames"):
        evaluate(np.zeros((0, 4)), np.zeros((0, 4)), W, identity_order(4))
    with pytest.raises(InputError, match="weights must be finite"):
        evaluate(truth, truth, np.full((4, 4), np.inf), identity_order(4))
    # finite coordinates whose squared distance overflows
    with pytest.raises(InputError, match="point errors are not finite"):
        evaluate(np.full((3, 4), 1e308), truth, W, identity_order(4))


def test_counters_passthrough():
    truth = np.zeros((3, 3))
    W = neighbor_weights(3, identity_order(3))
    rep = evaluate(truth, truth, W, identity_order(3), counters={"outer": 12})
    assert rep.counters == {"outer": 12}
    rep2 = evaluate(truth, truth, W, identity_order(3))
    assert rep2.counters == {}


def test_emit_tables_layout_and_determinism(tmp_path):
    F = 4
    order = identity_order(F)
    W = neighbor_weights(F, order)
    truth = np.zeros((3, F))
    est_a = truth.copy()
    est_a[0] = [5.0, 15.0, 25.0, 45.0]
    est_b = truth.copy()
    est_b[0] = [5.0, 5.0, 5.0, 5.0]
    rows = [
        (0.0, evaluate(est_b, truth, W, order)),
        (1.0, evaluate(est_a, truth, W, order)),
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_tables(rows, "noise", p1)
    emit_tables(rows, "noise", p2)
    text = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    lines = text.strip().split("\n")
    assert lines[0] == "noise,10,20,30,40,50,100"
    assert lines[1].startswith("0.0,1.000000")
    assert lines[2].startswith("1.0,0.250000,0.500000,0.750000")
    assert lines[3].startswith("pooled,")
    # pooled row averages all eight per-frame errors
    pooled_acc10 = float(lines[3].split(",")[1])
    assert pooled_acc10 == pytest.approx(5 / 8)

    with pytest.raises(InputError):
        emit_tables([], "noise", tmp_path / "c.csv")
