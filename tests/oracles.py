"""Brute-force reference implementations used by the test and acceptance suites.

Everything here trades speed for independence from the production code
paths: path enumeration instead of dynamic programming, an alternating
projection loop instead of the direct solver, ancestor-closure scans
instead of edge scans, a depth-first reachability walk instead of the
level plan.  Hard size caps keep the exponential pieces honest.
"""

from __future__ import annotations

import numpy as np

from hde import ConvergenceError, Dag


class SizeError(Exception):
    """Brute-force oracle invoked above its hard size cap."""


def ancestors(dag: Dag, node) -> tuple:
    """All nodes reachable from `node` against edge direction, excluding itself."""
    return _reach(dag, node, dag.parents)


def descendants(dag: Dag, node) -> tuple:
    """All nodes reachable from `node` along edge direction, excluding itself."""
    return _reach(dag, node, dag.children)


def _reach(dag, node, adjacency):
    seen = set()
    stack = list(adjacency(node))  # raises UnknownNodeError for a bad node
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(adjacency(n))
    # deterministic: global node order
    return tuple(sorted(seen, key=dag.index))


def longest_path_oracle(dag: Dag, node: str) -> int:
    """Max edge count over ALL root-to-node paths, by exhaustive DFS."""
    if len(dag) > 12:
        raise SizeError("longest_path_oracle is capped at 12 nodes")
    dag.index(node)
    best = -1

    def walk(cur, length):
        nonlocal best
        if cur == node:
            best = max(best, length)
        for c in dag.children(cur):
            walk(c, length + 1)

    walk(dag.root, 0)
    if best < 0:
        # unreachable from the root cannot happen in a rooted DAG
        raise AssertionError(f"node {node!r} unreachable from the root")
    return best


def bellman_ford_levels(dag: Dag) -> dict:
    """Max root distances via Bellman-Ford on negated edge weights.

    Plain O(|V| * |E|) relaxation; shortest paths under weight -1 per edge
    are longest paths under weight +1.
    """
    dist = {n: float("inf") for n in dag.nodes}
    dist[dag.root] = 0.0
    for _ in range(len(dag) - 1):
        changed = False
        for p, c in dag.edges:
            if dist[p] - 1.0 < dist[c]:
                dist[c] = dist[p] - 1.0
                changed = True
        if not changed:
            break
    return {n: int(-d) for n, d in dist.items()}


def iso_oracle(dag: Dag, z, tol: float = 1e-12,
               max_sweeps: int = 1000000) -> np.ndarray:
    """Alternating-projection (Dykstra) solve of the isotonic projection.

    Written independently of the production solver: plain dicts, node ids
    instead of index arrays, per-edge correction bookkeeping.
    """
    if len(dag) > 15:
        raise SizeError("iso_oracle is capped at 15 nodes")
    z = np.asarray(z, dtype=np.float64)
    y = {n: float(z[dag.index(n)]) for n in dag.nodes}
    corr = {e: 0.0 for e in dag.edges}
    for _ in range(max_sweeps):
        delta = 0.0
        for e in dag.edges:
            p, c = e
            a, b = y[p] - corr[e], y[c] + corr[e]
            if b > a:
                mid = 0.5 * (a + b)
                corr[e] = mid - a
                a = b = mid
            else:
                corr[e] = 0.0
            delta = max(delta, abs(a - y[p]), abs(b - y[c]))
            y[p], y[c] = a, b
        worst = max((y[c] - y[p] for p, c in dag.edges), default=0.0)
        if delta <= tol and worst <= tol:
            return np.array([y[n] for n in dag.nodes])
    raise ConvergenceError(f"iso_oracle did not converge within {max_sweeps} sweeps")


def validity_oracle(dag: Dag, labeling_or_row) -> bool:
    """Ancestor-closure validity check, discrete or continuous.

    Discrete (a set of class ids): valid iff the set contains the full
    ancestral closure of each member.  Continuous (a score vector): valid
    iff every node's score is <= every ANCESTOR's score, which equals the
    edge-wise rule by transitivity.
    """
    if isinstance(labeling_or_row, (set, frozenset)):
        chosen = labeling_or_row
        closure = set(chosen)
        for n in chosen:
            closure.update(ancestors(dag, n))
        return closure == set(chosen)
    row = np.asarray(labeling_or_row, dtype=np.float64)
    for n in dag.nodes:
        s = row[dag.index(n)]
        for a in ancestors(dag, n):
            if row[dag.index(a)] < s:
                return False
    return True
