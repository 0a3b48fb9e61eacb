import numpy as np
import pytest

from hde import TprConfig, build_dag, compute_levels


def random_dag(rng, n_nodes, extra_edges=None):
    """Random single-root DAG: a random parent tree plus forward cross-edges."""
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        p = int(rng.integers(0, i))
        edges.append((names[p], names[i]))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n_nodes))
    existing = set(edges)
    for _ in range(extra_edges):
        i = int(rng.integers(1, n_nodes))
        p = int(rng.integers(0, i))
        e = (names[p], names[i])
        if e not in existing:
            existing.add(e)
            edges.append(e)
    return build_dag(edges)


def shuffle_parent_runs(rng, dag):
    """(rebuilt Dag, position in it of each node of `dag`): `dag` rebuilt
    from its edges grouped by parent, each parent's run in edge order and
    the runs in a random parent order.  The nodes change order within their
    levels; every node keeps its children in order."""
    runs = {}
    for p, c in dag.edges:
        runs.setdefault(p, []).append((p, c))
    runs = list(runs.values())
    rebuilt = build_dag([e for k in rng.permutation(len(runs)) for e in runs[k]])
    return rebuilt, [rebuilt.index(n) for n in dag.nodes]


def deep_narrow_dag(rng, n_nodes):
    """Deep single-root DAG on levels of 1 to 4 nodes: every node below the
    root has one parent on the level above, and about half of them one
    more 2 to 4 levels up."""
    levels, n = [[0]], 1
    while n < n_nodes:
        w = min(int(rng.integers(1, 5)), n_nodes - n)
        levels.append(list(range(n, n + w)))
        n += w
    edges = []
    for d in range(1, len(levels)):
        for c in levels[d]:
            edges.append((int(rng.choice(levels[d - 1])), c))
            if d >= 2 and rng.random() < 0.5:
                up = int(rng.integers(2, min(4, d) + 1))
                edges.append((int(rng.choice(levels[d - up])), c))
    return build_dag([(f"n{p}", f"n{c}") for p, c in edges])


def random_scores(rng, dag, n_rows=1):
    return rng.uniform(0.0, 1.0, size=(n_rows, len(dag)))


@pytest.fixture
def diamond():
    dag = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
    return dag, compute_levels(dag)


@pytest.fixture
def skip_edge():
    dag = build_dag([("r", "a"), ("a", "c"), ("r", "c")])
    return dag, compute_levels(dag)


@pytest.fixture
def chain():
    dag = build_dag([("r", "a"), ("a", "b")])
    return dag, compute_levels(dag)


def threshold_config(dag, t=0.5, **kw):
    return TprConfig(thresholds=np.full(len(dag), float(t)), **kw)
