import gc
import os
import tempfile
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hde import (
    CycleError,
    Dag,
    DagError,
    DuplicateEdgeError,
    EmptyGraphError,
    ScoreMatrix,
    SelfLoopError,
    ThresholdVector,
    TprConfig,
    UnknownNodeError,
    build_dag,
    check_valid_continuous,
    compute_levels,
    count_violations,
    htd_correct_matrix,
    read_edge_list,
    read_scores,
    read_thresholds,
    tpr_correct_matrix,
    write_edge_list,
    write_scores,
    write_thresholds,
)

from conftest import random_dag
from oracles import (
    ancestors,
    bellman_ford_levels,
    descendants,
    longest_path_oracle,
)
from per_node_reference import build_by_name


class TestBuildDag:
    def test_single_root(self):
        dag = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
        assert dag.root == "r"
        assert len(dag) == 4
        assert not dag.synthetic_root_flag

    def test_multi_root_gets_synthetic_root(self):
        dag = build_dag([("a", "c"), ("b", "c")])
        assert dag.root == "__ROOT__"
        assert dag.synthetic_root_flag
        assert set(dag.edges) == {("a", "c"), ("b", "c"),
                                  ("__ROOT__", "a"), ("__ROOT__", "b")}

    def test_two_cycle(self):
        with pytest.raises(CycleError) as err:
            build_dag([("a", "b"), ("b", "a")])
        cyc = err.value.cycle
        assert cyc[0] == cyc[-1] and set(cyc) == {"a", "b"}

    def test_cycle_below_root_is_reported(self):
        with pytest.raises(CycleError) as err:
            build_dag([("r", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        assert set(err.value.cycle) <= {"a", "b", "c"}
        rng = np.random.default_rng(61)
        graphs = [{("r", "a"), ("a", "b"), ("b", "c"), ("c", "a")}]
        for _ in range(100):
            n = int(rng.integers(4, 30))
            v = [f"n{i}" for i in range(n)]
            pairs = rng.integers(0, n, size=(3 * n, 2))
            acyclic = ({(v[i], v[i + 1]) for i in range(n - 1)}
                       | {(v[i], v[j]) for i, j in pairs if i < j})
            top = int(rng.integers(1, n - 1))
            below = int(rng.integers(top + 1, n))
            graphs += [
                acyclic | {(v[-1], v[0])},  # no root
                acyclic | {(v[j], v[i]) for i, j in pairs[:6] if i < j}
                    | {(v[-1], v[1])},  # several cycles
                acyclic | {(v[below], v[top])},  # an acyclic part above a cycle
            ]
        for edges in graphs:
            edges = sorted(edges)
            with pytest.raises(CycleError) as err:
                build_dag([edges[k] for k in rng.permutation(len(edges))])
            cyc = err.value.cycle
            # the reported walk is a real cycle
            assert cyc[0] == cyc[-1]
            assert len(set(cyc[:-1])) == len(cyc) - 1 >= 2
            assert all(e in edges for e in zip(cyc, cyc[1:]))

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_dag([("r", "a"), ("a", "a")])

    def test_duplicate_edge_rejected_by_default(self):
        with pytest.raises(DuplicateEdgeError):
            build_dag([("r", "a"), ("r", "a")])

    def test_duplicate_edge_dedup(self):
        dag = build_dag([("r", "a"), ("r", "a")], dedup=True)
        assert dag.edges == (("r", "a"),)

    def test_empty(self):
        with pytest.raises(EmptyGraphError):
            build_dag([])

    def test_bad_identifiers(self):
        with pytest.raises(DagError):
            build_dag([("r", "")])

    def test_reserved_root_name_collision(self):
        with pytest.raises(DagError):
            build_dag([("a", "c"), ("b", "c"), ("a", "__ROOT__")])

    def test_node_order_is_first_appearance(self):
        dag = build_dag([("r", "b"), ("r", "a"), ("a", "z"), ("b", "z")])
        assert dag.nodes == ("r", "b", "a", "z")

    def test_unknown_node(self):
        dag = build_dag([("r", "a")])
        with pytest.raises(UnknownNodeError):
            dag.children("nope")


class TestRelatives:
    @pytest.fixture
    def dag(self):
        return build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])

    def test_parents(self, dag):
        assert set(dag.parents("c")) == {"a", "b"}

    def test_ancestors(self, dag):
        assert set(ancestors(dag, "c")) == {"r", "a", "b"}

    def test_descendants(self, dag):
        assert set(descendants(dag, "r")) == {"a", "b", "c"}

    def test_node_excluded_from_all_kinds(self, dag):
        for relation in (dag.children, dag.parents,
                         partial(ancestors, dag), partial(descendants, dag)):
            for n in dag.nodes:
                assert n not in relation(n)

    def test_unknown_node(self, dag):
        for relation in (ancestors, descendants):
            with pytest.raises(UnknownNodeError):
                relation(dag, "nope")

    def test_anc_desc_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            dag = random_dag(rng, int(rng.integers(2, 15)))
            for i in dag.nodes:
                for j in dag.nodes:
                    assert (j in ancestors(dag, i)) == (i in descendants(dag, j))


class TestComputeLevels:
    def test_chain(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        assert compute_levels(dag).dist == {"r": 0, "a": 1, "b": 2}

    def test_skip_edge_uses_max_distance(self):
        dag = build_dag([("r", "a"), ("a", "c"), ("r", "c")])
        assert compute_levels(dag).dist == {"r": 0, "a": 1, "c": 2}

    def test_diamond(self):
        dag = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
        assert compute_levels(dag).dist == {"r": 0, "a": 1, "b": 1, "c": 2}

    def test_levels_partition_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 30)))
            lm = compute_levels(dag)
            flattened = [n for d in sorted(lm.levels) for n in lm.levels[d]]
            assert sorted(flattened) == sorted(dag.nodes)
            for n in dag.nodes:
                assert n in lm.levels[lm.dist[n]]

    def test_dist_recurrence(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 30)))
            lm = compute_levels(dag)
            for n in dag.nodes:
                ps = dag.parents(n)
                if n == dag.root:
                    assert lm.dist[n] == 0
                else:
                    assert lm.dist[n] == 1 + max(lm.dist[p] for p in ps)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 13)))
            lm = compute_levels(dag)
            for n in dag.nodes:
                assert lm.dist[n] == longest_path_oracle(dag, n)

    def test_matches_bellman_ford_on_negated_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 40)))
            assert compute_levels(dag).dist == bellman_ford_levels(dag)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        dag = build_dag([("a", "c"), ("b", "c"), ("a", "d")])
        path = tmp_path / "dag.tsv"
        write_edge_list(dag, path)
        dag2 = build_dag(read_edge_list(path))
        assert dag2 == dag
        assert dag2.nodes == dag.nodes
        assert dag2.synthetic_root_flag

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "dag.tsv"
        path.write_text("# taxonomy\n\nr\ta\n  \nr\tb\n")
        assert read_edge_list(path) == [("r", "a"), ("r", "b")]

    def test_malformed_line_reports_number(self, tmp_path):
        from hde import ParseError
        path = tmp_path / "dag.tsv"
        path.write_text("r\ta\nr a b\n")
        with pytest.raises(ParseError, match="line 2"):
            read_edge_list(path)

    @pytest.mark.parametrize("text, pairs", [
        (" \t \nr\ta\n", [("r", "a")]),  # whitespace holding a tab: blank
        ("r\tGO#1\nGO#1\tx\n", [("r", "GO#1"), ("GO#1", "x")]),
        ("r\ta\r\na\tb\r\n", [("r", "a"), ("a", "b")]),  # CRLF
        ("r\ta\ra\tb", [("r", "a"), ("a", "b")]),  # CR, no final newline
        ("r\ta\x0cb\n", [("r", "a\x0cb")]),  # not a line break in files
        ("  a\tb \n", [("  a", "b ")]),  # spaces are part of identifiers
    ])
    def test_lines_and_identifiers(self, tmp_path, text, pairs):
        path = tmp_path / "dag.tsv"
        path.write_bytes(text.encode())
        assert read_edge_list(path) == pairs

    @pytest.mark.parametrize("text, line", [
        ("r\ta\nr\n\nr\ta\tb\n", 2),  # no tab, then two tabs
        ("r\ta\n# c\nr\ta\tb\nr\n", 3),
        ("r\ta\nr\t\n", 2),
        ("r\ta\n\ta\n", 2),
        ("x\nr\ta\nx\n", 1),
    ])
    def test_first_bad_line_is_named(self, tmp_path, text, line):
        from hde import ParseError
        path = tmp_path / "dag.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: ") as err:
            read_edge_list(path)
        assert err.value.line == line

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "dag.tsv"
        path.write_text("# taxonomy\n  # none yet\n\n")
        with pytest.raises(EmptyGraphError):
            read_edge_list(path)

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        for k in range(20):
            dag = random_dag(rng, int(rng.integers(2, 20)))
            path = tmp_path / f"d{k}.tsv"
            write_edge_list(dag, path)
            assert build_dag(read_edge_list(path)) == dag


NAMES = ["a", "b", "c", "d", "e", "f"]
# identifiers build_dag must refuse, one of them unhashable: not strings,
# or strings that the TSV files hde writes would not carry whole
BAD_IDS = ["", 0, None, b"a", ("a",), ["a"], " ", "#a", " \t#a", "\ufeffa",
           "a\tb", "a\nb", "a\r", "a\ud800"]


@st.composite
def edge_lists(draw):
    """(edges, dedup): pairs over a few names, "__ROOT__" among them; drawn
    acyclic (forward in a random name order) or not, with or without
    self-loops and repeats, sometimes with one identifier replaced by a
    bad one."""
    names = draw(st.permutations(NAMES))[:draw(st.integers(2, len(NAMES)))]
    if draw(st.integers(0, 3)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = "__ROOT__"
    n = len(names)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=14))
    if draw(st.booleans()):  # acyclic but for self-loops
        pairs = [(min(i, j), max(i, j)) for i, j in pairs]
    if draw(st.integers(0, 3)):
        pairs = [(i, j) for i, j in pairs if i != j]
    if draw(st.booleans()):
        pairs = list(dict.fromkeys(pairs))
    edges = [(names[i], names[j]) for i, j in pairs]
    if edges and draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, len(edges) - 1))
        bad = draw(st.sampled_from(BAD_IDS))
        edges[k] = (bad, edges[k][1]) if draw(st.booleans()) else (edges[k][0], bad)
    return edges, draw(st.booleans())


def _outcome(build, edges, dedup):
    try:
        return build(edges, dedup), None
    except DagError as exc:
        return None, exc


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=edge_lists())
def test_build_matches_name_dict_build(case):
    """build_dag + compute_levels give what the name-keyed build gives: the
    same Dag, order, levels, or the same error, and a real cycle."""
    edges, dedup = case
    ref, ref_err = _outcome(build_by_name, edges, dedup)
    dag, err = _outcome(build_dag, edges, dedup)
    if ref_err is not None:
        assert type(err) is type(ref_err) and str(err) == str(ref_err)
        if isinstance(err, CycleError):
            cyc = err.cycle
            assert cyc[0] == cyc[-1]
            assert len(set(cyc[:-1])) == len(cyc) - 1
            assert all(e in edges for e in zip(cyc, cyc[1:]))
        return
    assert err is None
    assert (dag.nodes, dag.edges, dag.root, dag.synthetic_root_flag) == (
        ref.nodes, ref.edges, ref.root, ref.synthetic)
    assert all(type(e) is tuple for e in dag.edges)
    assert dag.topological_order() == ref.order
    lm = compute_levels(dag)
    assert lm.dist == ref.dist
    assert lm.levels == ref.levels
    assert lm.max_level == max(ref.levels)
    for n in dag.nodes:
        assert dag.children(n) == ref.children[n]
        assert dag.parents(n) == ref.parents[n]


# characters that the readers treat specially, or might
SPECIAL = st.sampled_from("#\ufeff \t\n\r\x0b\x0c\x1c\x85\u2028\"'")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(names=st.lists(
    st.text(st.sampled_from("ab") | st.characters() | SPECIAL,
            min_size=1, max_size=4),
    min_size=2, max_size=4, unique=True))
def test_accepted_identifiers_round_trip(names):
    """Every identifier build_dag accepts comes back whole from each TSV
    file hde writes: an edge list, a thresholds file and a scores header."""
    try:
        dag = build_dag(list(zip(names, names[1:])))
    except DagError:
        return
    values = np.linspace(0.0, 1.0, len(dag))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.tsv")
        write_edge_list(dag, path)
        assert read_edge_list(path) == list(dag.edges)
        write_thresholds(ThresholdVector(list(dag.nodes), values), path)
        assert read_thresholds(path).class_ids == list(dag.nodes)
        write_scores(ScoreMatrix(["x"], list(dag.nodes), values[None]), path)
        assert read_scores(path).class_ids == list(dag.nodes)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                      .filter(lambda e: e[0] < e[1]), min_size=1, max_size=20),
       data=st.data())
def test_edges_are_the_deduped_input_then_root_edges(pairs, data):
    """`dag.edges`, built from the index arrays, is the input after dedup
    in first-occurrence order, then one synthetic-root edge per root; `==`
    and `hash` follow (nodes, edges, root, flag), and the edge list file
    round-trips."""
    edges = [[f"n{p}", f"n{c}"] if k % 3 == 0 else (f"n{p}", f"n{c}")
             for k, (p, c) in enumerate(pairs)]
    dag = build_dag(edges, dedup=True)
    deduped = list(dict.fromkeys(map(tuple, edges)))
    children = {c for _, c in deduped}
    roots = [n for n in dict.fromkeys(x for e in deduped for x in e)
             if n not in children]
    want = deduped + ([("__ROOT__", r) for r in roots] if len(roots) > 1
                      else [])
    assert type(dag.edges) is tuple and dag.edges == tuple(want)
    assert all(type(e) is tuple and len(e) == 2
               and all(type(x) is str for x in e) for e in dag.edges)
    assert dag.edges is dag.edges

    def key(d):
        return d.nodes, d.edges, d.root, d.synthetic_root_flag

    shuffled = data.draw(st.permutations(deduped))
    for other in (build_dag(edges, dedup=True), build_dag(dag.edges),
                  build_dag(shuffled)):
        assert (other == dag) == (key(other) == key(dag))
        if other == dag:
            assert hash(other) == hash(dag)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dag.tsv")
        write_edge_list(dag, path)
        back = read_edge_list(path)
        assert back == list(dag.edges) and build_dag(back) == dag


def _go_like_edge_file(path, n, seed):
    """A GO-like taxonomy of `n` classes: a random recursive tree plus about
    `n` forward cross-edges, written as an edge list."""
    rng = np.random.default_rng(seed)
    child = np.concatenate([np.arange(1, n), rng.integers(1, n, size=n)])
    parent = (rng.random(len(child)) * child).astype(np.intp)
    pairs = dict.fromkeys(zip(parent.tolist(), child.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"GO:{p:07d}\tGO:{c:07d}\n" for p, c in pairs)


def test_dag_keeps_less_than_its_edge_list(tmp_path):
    """The Dag holds its names once and its edges as index arrays, and
    reading an edge list frees its lines before it builds the pairs.
    Traced allocations (tracemalloc) on a fixed 5k-class taxonomy."""
    path = tmp_path / "go.tsv"
    _go_like_edge_file(path, 5000, seed=23)
    gc.collect()
    tracemalloc.start()
    try:
        edges = read_edge_list(path)
        size, read_peak = tracemalloc.get_traced_memory()
        dag = build_dag(edges)
        del edges
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dag.nodes) == 5000
    assert read_peak < 1.5 * size
    assert kept < size


def test_name_dicts_not_built_by_setup():
    """Set-up, every pass and the violation checks read the Dag's index
    arrays only: the edge name pairs, name-keyed relatives, order and
    levels are built on first use, once."""
    rng = np.random.default_rng(16)
    dag = build_dag(random_dag(rng, 40).edges)
    lv = compute_levels(dag)
    y = rng.uniform(size=(3, len(dag)))
    htd_correct_matrix(dag, lv, y)
    tpr_correct_matrix(dag, lv, y, TprConfig(thresholds=np.full(len(dag), 0.5)))
    tpr_correct_matrix(dag, lv, y, TprConfig(
        positive_selection="adaptive", descendant_mode="descendants-linear"))
    assert check_valid_continuous(dag, y[0]).violations
    assert count_violations(dag, y)
    lazy = ("edges", "_named", "_order", "dist", "levels")
    assert not set(lazy) & set(vars(dag))
    built = [getattr(dag, name) for name in lazy]
    assert all(getattr(dag, name) is b for name, b in zip(lazy, built))


class TestTopologicalOrder:
    def test_each_node_once_parents_first(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 40)))
            order = dag.topological_order()
            assert sorted(order) == sorted(dag.nodes)
            at = {n: k for k, n in enumerate(order)}
            assert all(at[p] < at[c] for p, c in dag.edges)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=16, unique=True))
    def test_direct_dag_rejects_a_cycle_or_orders_every_node(self, pairs):
        edges = [(f"n{p}", f"n{c}") for p, c in pairs]
        # reach[i, j]: a path of one or more edges leads from i to j
        reach = np.zeros((8, 8), dtype=bool)
        for p, c in pairs:
            reach[p, c] = True
        for k in range(8):
            reach |= reach[:, [k]] & reach[[k], :]
        if reach.diagonal().any():
            with pytest.raises(CycleError) as err:
                build_dag(edges)
            cyc = err.value.cycle
            assert cyc[0] == cyc[-1] and len(cyc) >= 2
            assert all(e in edges for e in zip(cyc, cyc[1:]))
            return
        dag = build_dag(edges)
        order = dag.topological_order()
        assert sorted(order) == sorted(dag.nodes)
        at = {n: k for k, n in enumerate(order)}
        assert all(at[p] < at[c] for p, c in dag.edges)


def test_dag_has_no_unchecked_constructor():
    # build_dag is the one way to build a Dag: the old four-argument call,
    # which skipped its checks, is gone
    with pytest.raises(TypeError):
        Dag(["a", "b", "c"], [("a", "c")], "a", False)
