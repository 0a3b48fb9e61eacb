"""The compiled level-plan kernels against the per-node reference loops.

Every variant must give bit-identical output: the kernels group nodes by
exact member count so that each per-node sum adds the same terms in the
same order as the reference.  numpy sums a one-row gather of nine or more
terms pairwise and a many-row gather sequentially, so both batch sizes
are checked.
"""

import numpy as np
import pytest

from hde import (
    TprConfig,
    build_dag,
    check_valid_continuous,
    compute_levels,
    evaluate,
    fit_global,
    htd_correct_matrix,
    tpr_correct_matrix,
)
from hde.dag import edge_index_arrays
from hde.scores import ScoreMatrix
from hde.tpr import _bottom_up_matrix

import per_node_reference as ref
from conftest import random_dag

VARIANTS = [
    dict(positive_selection="threshold"),
    dict(positive_selection="adaptive"),
    *(dict(positive_selection="threshold", w=w) for w in (0.0, 0.3, 1.0)),
    *(dict(positive_selection="adaptive", w=w) for w in (0.0, 0.3, 1.0)),
    dict(positive_selection="threshold", descendant_mode="descendants-constant"),
    dict(positive_selection="adaptive", descendant_mode="descendants-constant"),
    dict(positive_selection="threshold", descendant_mode="descendants-linear"),
    dict(positive_selection="adaptive", descendant_mode="descendants-linear",
         w=0.3),
]


def _dags():
    """Seeded random DAGs in which a level-1 node has >= 9 children and
    >= 9 descendants, so the kernels' sums take numpy's pairwise path."""
    rng = np.random.default_rng(2024)
    dags = []
    for n in (14, 30, 80):
        edges = random_dag(rng, n, extra_edges=2 * n).edges
        # n1's tree parent is n0, the root: make it a level-1 hub
        hub = [("n1", f"n{j}") for j in range(2, n, max(1, n // 12))]
        dag = build_dag(list(edges) + hub, dedup=True)
        lv = compute_levels(dag)
        wide = max(len(dag.children(m)) for m in dag.nodes
                   if lv.dist[m] > 0)
        deep = max(len(dag.descendants(m)) for m in dag.nodes
                   if lv.dist[m] > 0)
        assert wide >= 9 and deep >= 9
        dags.append((dag, lv))
    return dags


DAGS = _dags()


@pytest.mark.parametrize("rows", [1, 50])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_htd_matches_reference(case, rows):
    dag, lv = DAGS[case]
    y = np.random.default_rng(case).uniform(size=(rows, len(dag)))
    assert np.array_equal(htd_correct_matrix(dag, lv, y),
                          ref.htd_matrix(dag, lv, y))


@pytest.mark.parametrize("rows", [1, 50])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_tpr_variants_match_reference(case, rows):
    dag, lv = DAGS[case]
    rng = np.random.default_rng(100 + case)
    y = rng.uniform(size=(rows, len(dag)))
    t = rng.uniform(size=len(dag))
    for kw in VARIANTS:
        thresholds = t if kw["positive_selection"] == "threshold" else None
        cfg = TprConfig(thresholds=thresholds, **kw)
        assert np.array_equal(tpr_correct_matrix(dag, lv, y, cfg),
                              ref.tpr_matrix(dag, lv, y, cfg)), kw
        assert np.array_equal(_bottom_up_matrix(dag, lv, y, cfg),
                              ref.bottom_up_matrix(dag, lv, y, cfg)), kw


def test_plan_is_built_once_per_level_map():
    dag, lv = DAGS[0]
    plan = lv.plan
    y = np.random.default_rng(7).uniform(size=(3, len(dag)))
    cfg = TprConfig(positive_selection="adaptive",
                    descendant_mode="descendants-linear")
    tpr_correct_matrix(dag, lv, y, cfg)
    desc = plan.descendants
    htd_correct_matrix(dag, lv, y)
    tpr_correct_matrix(dag, lv, y, cfg)
    assert lv.plan is plan
    assert plan.descendants is desc
    assert compute_levels(dag).plan is not plan


def test_plan_is_not_built_by_compute_levels():
    dag, _ = DAGS[0]
    assert "plan" not in vars(compute_levels(dag))


def test_edge_arrays_built_once_per_dag():
    dag, _ = DAGS[1]
    pi, ci = edge_index_arrays(dag)
    assert edge_index_arrays(dag)[0] is pi
    assert [(dag.nodes[p], dag.nodes[c]) for p, c in zip(pi, ci)] == list(dag.edges)
    with pytest.raises(ValueError):
        pi[0] = 0


def _edge_loop_report(dag, row, eps):
    """Per-edge loop over the row: the plain form of the validity check."""
    bad, max_gap = [], 0.0
    for p, c in dag.edges:
        ps, cs = row[dag.index(p)], row[dag.index(c)]
        if cs > ps + eps:
            bad.append((p, c, float(ps), float(cs)))
            max_gap = max(max_gap, float(cs - ps))
    return tuple(bad), max_gap


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_check_valid_continuous_matches_edge_loop(eps):
    dag, _ = DAGS[2]
    rng = np.random.default_rng(11)
    for row in rng.uniform(size=(20, len(dag))):
        rep = check_valid_continuous(dag, row, eps=eps)
        bad, max_gap = _edge_loop_report(dag, row, eps)
        assert rep.violations == bad
        assert rep.total_count == len(bad)
        assert rep.max_gap == max_gap


def test_evaluate_max_gap_matches_edge_loop():
    dag, _ = DAGS[2]
    rng = np.random.default_rng(12)
    values = rng.uniform(size=(15, len(dag)))
    scores = ScoreMatrix([f"e{i}" for i in range(15)], list(dag.nodes), values)
    labels = ScoreMatrix(scores.example_ids, scores.class_ids,
                         (values > 0.5).astype(float))
    report = evaluate(dag, scores, labels, fit_global(0.5, dag.nodes))
    assert report.max_violation_gap == max(
        _edge_loop_report(dag, row, 0.0)[1] for row in values)
    assert report.max_violation_gap > 0.0
