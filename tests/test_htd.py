import numpy as np
import pytest

from hde import (
    AlignmentError,
    build_dag,
    check_valid_continuous,
    compute_levels,
    count_violations,
    htd_correct,
    htd_correct_matrix,
    iso_tpr_correct,
    iso_tpr_correct_matrix,
    tpr_correct,
    tpr_correct_matrix,
)

from conftest import (random_dag, random_scores, shuffle_parent_runs,
                      threshold_config)


def test_diamond_worked_example(diamond):
    dag, lv = diamond
    out = htd_correct(dag, lv, [0.9, 0.5, 0.7, 0.6])
    assert out.tolist() == [0.9, 0.5, 0.7, 0.5]


def test_skip_edge_worked_example(skip_edge):
    # BFS depth would finalize c before a; max-distance levels must not
    dag, lv = skip_edge
    out = htd_correct(dag, lv, [0.3, 0.8, 0.6])
    assert out.tolist() == [0.3, 0.3, 0.3]


def test_valid_input_unchanged(diamond):
    dag, lv = diamond
    y = np.array([0.9, 0.8, 0.7, 0.6])
    assert np.array_equal(htd_correct(dag, lv, y), y)


def test_output_always_consistent():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        dag = random_dag(rng, int(rng.integers(2, 51)))
        lv = compute_levels(dag)
        y = random_scores(rng, dag)[0]
        out = htd_correct(dag, lv, y)
        assert not check_valid_continuous(dag, out)


def test_never_raises_scores():
    rng = np.random.default_rng(22)
    for _ in range(200):
        dag = random_dag(rng, int(rng.integers(2, 30)))
        lv = compute_levels(dag)
        y = random_scores(rng, dag)[0]
        assert (htd_correct(dag, lv, y) <= y).all()


def test_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(200):
        dag = random_dag(rng, int(rng.integers(2, 30)))
        lv = compute_levels(dag)
        once = htd_correct(dag, lv, random_scores(rng, dag)[0])
        assert np.array_equal(htd_correct(dag, lv, once), once)


def test_identity_on_valid_inputs():
    rng = np.random.default_rng(24)
    for _ in range(200):
        dag = random_dag(rng, int(rng.integers(2, 30)))
        lv = compute_levels(dag)
        y = htd_correct(dag, lv, random_scores(rng, dag)[0])  # valid by construction
        assert np.array_equal(htd_correct(dag, lv, y), y)


def test_matrix_equals_per_row():
    rng = np.random.default_rng(25)
    dag = random_dag(rng, 20)
    lv = compute_levels(dag)
    vals = random_scores(rng, dag, n_rows=6)
    out = htd_correct_matrix(dag, lv, vals)
    for r in range(6):
        assert np.array_equal(out[r], htd_correct(dag, lv, vals[r]))


def test_level_order_independence_within_level():
    # nodes in one level share no edges, so any within-level order agrees;
    # the rebuild with shuffled parent runs reorders the levels
    rng = np.random.default_rng(26)
    reordered = 0
    for _ in range(50):
        n = int(rng.integers(2, 60))
        dag = random_dag(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        dag2, at = shuffle_parent_runs(rng, dag)
        lv, lv2 = compute_levels(dag), compute_levels(dag2)
        reordered += lv.levels != lv2.levels
        for rows in (1, 7):
            y = random_scores(rng, dag, rows)
            y2 = np.empty_like(y)
            y2[:, at] = y
            assert np.array_equal(htd_correct_matrix(dag2, lv2, y2)[:, at],
                                  htd_correct_matrix(dag, lv, y))
    assert reordered >= 25


def test_levels_provenance_asserted(diamond):
    dag, _ = diamond
    other = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
    lv_other = compute_levels(other)
    with pytest.raises(AlignmentError):
        htd_correct(dag, lv_other, [0.9, 0.5, 0.7, 0.6])


def test_row_dag_mismatch(diamond):
    dag, lv = diamond
    with pytest.raises(AlignmentError):
        htd_correct(dag, lv, [0.9, 0.5])


@pytest.mark.parametrize("correct", [
    htd_correct,
    lambda dag, lv, y: tpr_correct(dag, lv, y, threshold_config(dag)),
    lambda dag, lv, y: iso_tpr_correct(dag, lv, y, threshold_config(dag))],
    ids=["htd", "tpr", "iso-tpr"])
def test_row_functions_reject_a_matrix(diamond, correct):
    dag, lv = diamond
    with pytest.raises(AlignmentError, match="^expected a 1-D score row$"):
        correct(dag, lv, [[0.9, 0.5, 0.7, 0.6]])


@pytest.mark.parametrize("correct", [
    htd_correct_matrix,
    lambda dag, lv, y: tpr_correct_matrix(dag, lv, y, threshold_config(dag)),
    lambda dag, lv, y: iso_tpr_correct_matrix(dag, lv, y,
                                              threshold_config(dag))],
    ids=["htd", "tpr", "iso-tpr"])
def test_matrix_functions_reject_three_axes(diamond, correct):
    dag, lv = diamond
    with pytest.raises(AlignmentError, match=r"shape \(2, 2, 4\)"):
        correct(dag, lv, np.full((2, 2, 4), 0.5))
