"""The Dag's compiled level plan and its kernels against the per-node
reference loops.

Every variant must give bit-identical output, compared as int64 views so
that -0.0 and 0.0 differ.  The kernels group a level's nodes by summation
width (k | 7 for k < 128 members, else k) and pad each member row up to it
with a sentinel that adds only zeros.  They work node-major: one row is an
(n,) vector whose (nb, w) gathers numpy sums pairwise, with 8 accumulators
and then the k mod 8 tail in order; R rows are an (n, R) array whose
(nb, w, R) gathers numpy sums over the members' axis strictly in order.
In both cases the padding adds only zeros after a node's own terms and
each per-node sum keeps the reference's bits.  Both batch sizes are
checked, and so is that numpy rule itself.
"""

import gc
import importlib.util
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hde import (
    TprConfig,
    build_dag,
    check_valid_continuous,
    compute_levels,
    evaluate,
    fit_global,
    htd_correct,
    htd_correct_matrix,
    iso_tpr_correct,
    iso_tpr_correct_matrix,
    tpr_correct,
    tpr_correct_matrix,
)
from hde.dag import edge_index_arrays
from hde.errors import AlignmentError
from hde.scores import ScoreMatrix
from hde.tpr import _bottom_up_matrix

import per_node_reference as ref
from conftest import random_dag
from oracles import descendants

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
        deep = max(len(descendants(dag, m)) for m in dag.nodes
                   if lv.dist[m] > 0)
        assert wide >= 9 and deep >= 9
        dags.append((dag, lv))
    return dags


def width(k):
    """Summation width of a k-member sum: numpy's pairwise group."""
    return k | 7 if k < 128 else k


def _wide_dags():
    """Seeded random DAGs with two extra hubs, whose non-root nodes have
    child and descendant counts in the width groups 1-7, 8-15 and 16-23,
    and some node >= 128 descendants (a row with no padding)."""
    rng = np.random.default_rng(2025)
    dags = []
    for n in (150, 200):
        edges = list(random_dag(rng, n, extra_edges=n).edges)
        edges += [("n2", f"n{j}") for j in range(3, n, n // 18)]
        edges += [("n3", f"n{j}") for j in range(4, n, n // 10)]
        dag = build_dag(edges, dedup=True)
        lv = compute_levels(dag)
        inner = [m for m in dag.nodes if lv.dist[m] > 0]
        for counts in ([len(dag.children(m)) for m in inner],
                       [len(descendants(dag, m)) for m in inner]):
            assert {7, 15, 23} <= {width(k) for k in counts if k}
        assert max(len(descendants(dag, m)) for m in inner) >= 128
        dags.append((dag, lv))
    return dags


DAGS = _dags() + _wide_dags()


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("rows", [1, 12, 50])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_htd_matches_reference(case, rows):
    dag, lv = DAGS[case]
    y = np.random.default_rng(case).uniform(size=(rows, len(dag)))
    assert same_bits(htd_correct_matrix(dag, lv, y),
                     ref.htd_matrix(dag, lv, y))


def _configs(t):
    """(kw, TprConfig) for each of VARIANTS, with thresholds `t` if used."""
    for kw in VARIANTS:
        thresholds = t if kw["positive_selection"] == "threshold" else None
        yield kw, TprConfig(thresholds=thresholds, **kw)


def _assert_tpr_variants_match(dag, lv, y, t):
    for kw, cfg in _configs(t):
        assert same_bits(tpr_correct_matrix(dag, lv, y, cfg),
                         ref.tpr_matrix(dag, lv, y, cfg)), kw
        assert same_bits(_bottom_up_matrix(dag, lv, y, cfg),
                         ref.bottom_up_matrix(dag, lv, y, cfg)), kw


@pytest.mark.parametrize("rows", [1, 2, 12, 50, 200])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_tpr_variants_match_reference(case, rows):
    dag, lv = DAGS[case]
    rng = np.random.default_rng(100 + case)
    y = rng.uniform(size=(rows, len(dag)))
    _assert_tpr_variants_match(dag, lv, y, rng.uniform(size=len(dag)))


@pytest.mark.parametrize("rows", [1, 12])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_signed_zeros_and_ties_match_reference(case, rows):
    """Cells and thresholds drawn from {-0.0, 0.0, 0.5, 1.0}: ties at every
    comparison, and minima and sums whose sign of zero must carry over."""
    dag, lv = DAGS[case]
    rng = np.random.default_rng(300 + case)
    cells = np.array([-0.0, 0.0, 0.5, 1.0])
    y = rng.choice(cells, size=(rows, len(dag)))
    assert same_bits(htd_correct_matrix(dag, lv, y),
                     ref.htd_matrix(dag, lv, y))
    _assert_tpr_variants_match(dag, lv, y, rng.choice(cells, size=len(dag)))


def _corrections(t):
    """(name, row function, matrix function, extra arguments) of every
    public correction."""
    yield "htd", htd_correct, htd_correct_matrix, ()
    for kw, cfg in _configs(t):
        yield f"tpr {kw}", tpr_correct, tpr_correct_matrix, (cfg,)
    cfg = TprConfig(positive_selection="adaptive")
    yield "iso-tpr", iso_tpr_correct, iso_tpr_correct_matrix, (cfg,)


@pytest.mark.parametrize("writeable", [True, False])
def test_corrections_leave_input_and_return_fresh_arrays(writeable):
    """The input, writeable or read-only, is left as it was; the output is
    a fresh, writeable, C-contiguous float64 array of shape (n,) for a row
    and (R, n) for a matrix, sharing no memory with the input."""
    dag, lv = DAGS[0]
    n = len(dag)
    rng = np.random.default_rng(9)
    t = rng.uniform(size=n)
    for name, row_fn, matrix_fn, extra in _corrections(t):
        for fn, shape in ((row_fn, (n,)), (matrix_fn, (1, n)),
                          (matrix_fn, (3, n))):
            y = rng.uniform(size=shape)
            y.flags.writeable = writeable
            before = y.copy()
            out = fn(dag, lv, y, *extra)
            assert same_bits(y, before), (name, shape)
            assert out.shape == shape and out.dtype == np.float64, name
            assert out.flags.writeable and out.flags.c_contiguous, name
            assert not np.shares_memory(out, y), (name, shape)


@pytest.mark.parametrize("case", range(len(DAGS)))
def test_plan_blocks_are_padded_width_groups(case):
    """Each block holds one level's owners of one width, deepest level
    first; each row is the owner's members, then the sentinel index n with
    weight 0 up to width(k).  A (level, width) group is split only into
    blocks of max(1, n // width) owners, the last one possibly shorter."""
    dag, lv = DAGS[case]
    n = len(dag)
    ix = dag.index
    for blocks, members in ((lv.up, dag.children),
                            (lv.descendants, partial(descendants, dag))):
        sizes, owners, last = {}, [], np.inf
        for ni, midx, weights in blocks:
            w = midx.shape[1]
            d = lv.dist[dag.nodes[ni[0]]]
            assert d <= last
            last = d
            for r, i in enumerate(ni):
                node = dag.nodes[i]
                k = len(members(node))
                assert lv.dist[node] == d and w == width(k)
                assert list(midx[r, :k]) == [ix(m) for m in members(node)]
                assert (midx[r, k:] == n).all()
                if weights is not None:
                    assert (weights[r, :k] > 0).all()
                    assert (weights[r, k:] == 0).all()
            sizes.setdefault((d, w), []).append(len(ni))
            owners += list(ni)
        assert sorted(owners) == sorted(
            ix(m) for m in dag.nodes if lv.dist[m] > 0 and dag.children(m))
        for (d, w), group in sizes.items():
            step = max(1, n // w)
            assert all(s == step for s in group[:-1]) and group[-1] <= step


@pytest.mark.parametrize("rows", [1, 50])
def test_numpy_sums_keep_bits_when_padded_to_width(rows):
    """The numpy rule the level plan relies on: a node-major gather, (nb, k)
    from an (n,) vector or (nb, k, R) from an (n, R) array, summed over its
    members' axis 1 gives the same bits with zeros appended up to k | 7."""
    rng = np.random.default_rng(rows)
    shape = (401,) if rows == 1 else (401, rows)  # row 400 is the zero pad
    src = np.zeros(shape)
    src[:400] = (rng.uniform(size=(400, *shape[1:]))
                 * 10.0 ** rng.integers(-8, 9, size=(400, *shape[1:])))
    for k in range(1, 128):
        for nb in (1, 13):
            idx = rng.integers(0, 400, size=(nb, k))
            padded = np.hstack([idx, np.full((nb, width(k) - k), 400)])
            assert same_bits(src[idx].sum(axis=1), src[padded].sum(axis=1)), (
                f"k={k}, {rows} row(s), {nb} owner(s): numpy no longer sums "
                "an (nb, k) gather of a vector with 8 pairwise accumulators "
                "and then the k mod 8 tail in order, or an (nb, k, R) "
                "gather over its middle axis strictly in order, so zeros "
                "padded up to k | 7 change the sum and the level plan's "
                "width groups (hde.dag._width_blocks) no longer keep each "
                "node's bits")


PLAN = ("down", "up", "descendants")


def test_plan_is_built_once_per_level_map():
    dag, lv = DAGS[0]
    assert compute_levels(dag) is lv is dag
    plan = [getattr(lv, name) for name in PLAN]
    y = np.random.default_rng(7).uniform(size=(3, len(dag)))
    cfg = TprConfig(positive_selection="adaptive",
                    descendant_mode="descendants-linear")
    tpr_correct_matrix(dag, compute_levels(dag), y, cfg)
    htd_correct_matrix(dag, compute_levels(dag), y)
    tpr_correct_matrix(dag, lv, y, cfg)
    assert compute_levels(dag) is compute_levels(dag)
    assert all(getattr(compute_levels(dag), name) is built
               for name, built in zip(PLAN, plan))
    # an equal Dag built again has its own plan, and the two do not mix
    twin = build_dag(dag.edges)
    assert twin == dag and compute_levels(twin) is not lv
    assert all(getattr(compute_levels(twin), name) is not built
               for name, built in zip(PLAN, plan))
    with pytest.raises(AlignmentError, match="different Dag"):
        htd_correct_matrix(twin, lv, y)
    with pytest.raises(AlignmentError, match="different Dag"):
        tpr_correct_matrix(dag, compute_levels(twin), y, cfg)


def test_dag_and_plan_form_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        dag = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c"),
                         ("c", "d")])
        y = np.random.default_rng(3).uniform(size=(2, len(dag)))
        htd_correct_matrix(dag, compute_levels(dag), y)
        tpr_correct_matrix(dag, compute_levels(dag), y, TprConfig(
            positive_selection="adaptive",
            descendant_mode="descendants-linear"))
        del dag, y
        assert gc.collect() == 0
    finally:
        gc.enable()


def _bench_generator():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the taxonomies of bench/run.py's workloads at seed 1, as gen.generate
# draws them first from the seed
BENCH_TAXONOMIES = {
    "batch-tsv": lambda gen, rng: gen.go_like(rng, 2500, 2500),
    "online-row": lambda gen, rng: gen.go_like(rng, 5000, 5000),
    "iso-deep": lambda gen, rng: gen.deep_narrow(rng, 400, 160, 240),
}


def _assert_blocks_equal(blocks, expected):
    assert len(blocks) == len(expected)
    for block, want in zip(blocks, expected):
        assert len(block) == len(want)
        for a, b in zip(block, want):
            assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("workload", sorted(BENCH_TAXONOMIES))
def test_plan_matches_name_dict_plan_on_bench_taxonomies(workload):
    names, edges = BENCH_TAXONOMIES[workload](
        _bench_generator(), np.random.default_rng(1))
    edges = [(names[p], names[c]) for p, c in edges]
    lv = compute_levels(build_dag(edges))
    down, up, desc = ref.plan_by_name(ref.build_by_name(edges))
    _assert_blocks_equal(lv.down, down)
    _assert_blocks_equal(lv.up, up)
    _assert_blocks_equal(lv.descendants, desc)


def test_plan_is_not_built_by_compute_levels():
    dag = build_dag(DAGS[0][0].edges)
    lv = compute_levels(dag)
    assert not set(PLAN) & set(vars(lv))


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
