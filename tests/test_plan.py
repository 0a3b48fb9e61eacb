"""The Dag's compiled level plan and its kernels against the per-node
reference loops.

Every variant must give bit-identical output, compared as int64 views so
that -0.0 and 0.0 differ.  The plan holds one entry per level, and each
node's members as a run: one sentinel slot that adds a leading 0.0, then
the members, and each cell's owner as its rank among the level's nodes.
The kernels work node-major and sum every run with one of
two numpy operations: one row is an (n,) vector whose runs
`np.add.reduceat` adds as `run.sum()` does (pairwise), and R rows are an
(n, R) array whose runs `np.bincount` over owner * R + column adds in
order, as the reference's many-row sum does.  One row counts its
positives with `np.bincount`, which gives the bits of the `reduceat`
form.  The top-down sweep has one rule for both: per level,
`np.minimum.at` of the parents' rows into the kids' rows along the
level's edges.  Both batch sizes are checked, and so are these numpy
rules themselves.
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
    """k | 7 below 128, else k: the member counts that numpy's pairwise
    sum adds in as many 8-cell strides as k share it."""
    return k | 7 if k < 128 else k


def _wide_dags():
    """Seeded random DAGs with two extra hubs, whose non-root nodes have
    child and descendant counts in the groups 1-7, 8-15 and 16-23, and
    some node >= 128 descendants (past numpy's 128-cell pairwise block)."""
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


def test_zero_rows_give_an_empty_matrix():
    """A (0, n) matrix, as a header-only scores file reads: every variant
    returns a (0, n) float matrix."""
    dag, lv = DAGS[0]
    y = np.empty((0, len(dag)))
    for kw, cfg in _configs(np.full(len(dag), 0.5)):
        for out in (tpr_correct_matrix(dag, lv, y, cfg),
                    _bottom_up_matrix(dag, lv, y, cfg)):
            assert out.shape == y.shape and out.dtype == np.float64, kw
    assert htd_correct_matrix(dag, lv, y).shape == y.shape


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


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("case", range(len(DAGS)))
def test_scores_outside_unit_interval_match_reference(case, rows):
    """Finite scores from [-1, 2].  The sentinel slot holds 0.0, which an
    owner scored below 0 would admit under adaptive selection, so the
    kernels must keep the slot out of every positive set, as the
    reference (which has no slot) does."""
    dag, lv = DAGS[case]
    rng = np.random.default_rng(400 + case)
    y = rng.uniform(-1.0, 2.0, size=(rows, len(dag)))
    _assert_tpr_variants_match(dag, lv, y, rng.uniform(size=len(dag)))


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
def test_plan_levels_are_sentinel_led_runs(case):
    """One entry per level, deepest first.  Each owner's run is the
    sentinel slot n, with weight 0, and then its members: children in edge
    order, descendants in node order, with weights > 0; every cell of the
    run is owned by the run's rank.  A level's cells are its members plus
    one slot per owner, and the owners are exactly the non-root nodes with
    at least one member."""
    dag, lv = DAGS[case]
    n = len(dag)
    ix = dag.index
    for plan, members, width in ((lv.up, dag.children, 4),
                                 (lv.descendants, partial(descendants, dag),
                                  5)):
        depths = [lv.dist[dag.nodes[entry[0][0]]] for entry in plan]
        assert depths == sorted(set(depths), reverse=True)
        owners = []
        for d, (ni, midx, starts, owner, *weights) in zip(depths, plan):
            assert len(ni) == len(starts) and 4 + len(weights) == width
            kin = [[ix(m) for m in members(dag.nodes[i])] for i in ni]
            assert len(midx) == len(owner) == sum(map(len, kin)) + len(ni)
            for rank, (i, a, b, want) in enumerate(zip(
                    ni, starts, [*starts[1:], len(midx)], kin)):
                assert lv.dist[dag.nodes[i]] == d
                assert midx[a] == n and list(midx[a + 1:b]) == want
                assert list(owner[a:b]) == [rank] * (b - a)
                if weights:
                    assert weights[0][a] == 0
                    assert (weights[0][a + 1:b] > 0).all()
            owners += list(ni)
        assert sorted(owners) == sorted(
            ix(m) for m in dag.nodes if lv.dist[m] > 0 and members(m))


@pytest.mark.parametrize("case", range(len(DAGS)))
def test_plan_down_levels_cut_the_edge_list(case):
    """One entry per level from 1 down, (parents, kids): the edges whose
    child lies on that level, in edge order, with every parent on a lower
    level.  Put end to end, the entries are the edge list, and each
    child's parents come in edge order."""
    dag, lv = DAGS[case]
    assert len(lv.down) == lv.max_level
    position = {edge: k for k, edge in enumerate(dag.edges)}
    edges = []
    for d, (parents, kids) in enumerate(lv.down, start=1):
        level = [(dag.nodes[p], dag.nodes[c])
                 for p, c in zip(parents.tolist(), kids.tolist())]
        assert all(lv.dist[c] == d and lv.dist[p] < d for p, c in level)
        at = [position[edge] for edge in level]
        assert at == sorted(at)
        edges += level
    assert sorted(edges) == sorted(dag.edges)
    for m in dag.nodes:
        assert tuple(p for p, c in edges if c == m) == dag.parents(m)


@pytest.mark.parametrize("rows", [1, 2, 50])
def test_numpy_run_sums_keep_bits(rows):
    """The numpy rules of the run sums in `tpr._bottom_up`.  One row: a 1-D
    `np.add.reduceat` over runs that each start with 0.0 gives every run
    the bits of `run.sum()`, for run lengths 1-600, across numpy's
    128-cell pairwise block.  R rows: `np.bincount` over
    owner * R + column gives each run the bits of an in-order `for`
    accumulation and of the `(nb, k, R)` gather `.sum(axis=1)` the
    kernel used before."""
    rng = np.random.default_rng(rows)

    def cells(*shape):
        return (rng.uniform(size=shape)
                * 10.0 ** rng.integers(-8, 9, size=shape))

    if rows == 1:
        runs = [cells(k) for k in range(1, 601)]
        starts = np.cumsum([0] + [k + 1 for k in range(1, 600)])
        x = np.concatenate([np.concatenate([[0.0], run]) for run in runs])
        assert same_bits(np.add.reduceat(x, starts),
                         np.array([run.sum() for run in runs])), (
            "numpy's 1-D reduceat no longer adds a run led by 0.0 as "
            "run.sum() does, so one-row TPR's value sums and linear "
            "weights (tpr._bottom_up) change their bits")
        return
    src = cells(400, rows)
    for k in range(1, 140):
        nb = 3
        idx = rng.integers(0, 400, size=(nb, k))
        run = np.concatenate([np.zeros((nb, 1, rows)), src[idx]], axis=1)
        owner = np.repeat(np.arange(nb), k + 1)
        got = np.bincount((owner[:, None] * rows + np.arange(rows)).ravel(),
                          run.reshape(-1, rows).ravel(), nb * rows)
        loop = np.zeros((nb, rows))
        for o in range(nb):
            for cell in run[o]:
                loop[o] += cell
        for want, rule in ((loop, "an in-order accumulation"),
                           (src[idx].sum(axis=1), "the (nb, k, R) gather "
                                                  "sum over axis 1")):
            assert same_bits(got.reshape(nb, rows), want), (
                f"k={k}, {rows} rows: numpy's bincount over owner * R + "
                f"column no longer adds each run as {rule} does, so "
                "many-row TPR's run sums (tpr._bottom_up) change their "
                "bits")


@pytest.mark.parametrize("draw", ["ties", "uniform"])
def test_numpy_minimum_at_folds_and_bincount_counts(draw):
    """The numpy rules of the top-down sweep and of one-row TPR's counts,
    over runs of lengths 1-600 whose cells come in shuffled order.
    `np.minimum.at(out, kids, out[parents])` gives each kid the bits of a
    left fold of `np.minimum` over `[own score, parent 1, ..., parent k]`,
    signed zeros included, on an (n,) vector and on (n, R) arrays for R
    in 2, 7 and 64 (every 8th length, to keep the arrays near 10 MB).
    `np.bincount` over each cell's owner counts a boolean mask as
    `np.add.reduceat` in float64 does."""
    rng = np.random.default_rng(27)

    def draw_values(*shape):
        if draw == "ties":
            return rng.choice([-0.0, 0.0, 0.5, 1.0], size=shape)
        return rng.uniform(size=shape)

    lengths = rng.permutation(np.arange(1, 601))
    offsets = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(lengths)), lengths)
    mask = draw_values(owner.size) > rng.uniform(size=owner.size)
    mask[offsets] = False
    assert same_bits(np.bincount(owner, mask, len(lengths)),
                     np.add.reduceat(mask, offsets, dtype=np.float64)), (
        "numpy's bincount over owners no longer counts a boolean mask as "
        "add.reduceat does, so one-row TPR's positive counts "
        "(tpr._bottom_up) change their bits")
    for rows, step in (((), 1), ((2,), 1), ((7,), 1), ((64,), 8)):
        lengths = rng.permutation(np.arange(1, 601, step))
        k, cells = len(lengths), lengths.sum()
        # kids 0..k-1, each with its run of parents k.. in shuffled order
        kids = rng.permutation(np.repeat(np.arange(k), lengths))
        parents = k + np.arange(cells)
        out = draw_values(k + cells, *rows)
        got = out.copy()
        np.minimum.at(got, kids, got[parents])
        # the fold, one run position at a time over every run that long
        order = np.argsort(kids, kind="stable")
        pos = np.arange(cells) - np.repeat(np.cumsum(lengths) - lengths,
                                           lengths)
        want = out[:k].copy()
        for j in range(lengths.max()):
            at = order[pos == j]
            want[kids[at]] = np.minimum(want[kids[at]], out[parents[at]])
        assert same_bits(got[:k], want), (
            f"rows {rows}: numpy's minimum.at no longer folds each index's "
            "values in order, so HTD and TPR phase C (Dag.topdown) change "
            "their bits")


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
    pi, ci = dag._pi, dag._ci
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
