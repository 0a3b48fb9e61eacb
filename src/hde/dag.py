"""Rooted DAG taxonomy: construction, validation, queries and level computation.

A taxonomy is a directed acyclic graph whose edges point from a parent
(more general) class to a child (more specific) class.  All downstream
corrections process nodes by *max-distance levels*: the level of a node is
the length of the longest root-to-node path, which guarantees that every
ancestor of a node sits on a strictly smaller level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CycleError,
    DagError,
    DuplicateEdgeError,
    EmptyGraphError,
    ParseError,
    SelfLoopError,
    UnknownNodeError,
)

SYNTHETIC_ROOT = "__ROOT__"

class Dag:
    """Immutable rooted DAG over string class identifiers.

    Do not instantiate directly; use :func:`build_dag`, which validates the
    edge set and adds a synthetic root when the input has several roots.
    Node order is the first-appearance order in the (possibly augmented)
    edge list and is used everywhere determinism matters.
    """

    __slots__ = (
        "nodes", "edges", "root", "synthetic_root_flag",
        "_index", "_children", "_parents", "_order", "_edge_arrays",
    )

    def __init__(self, nodes, edges, root, synthetic_root_flag):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.root = root
        self.synthetic_root_flag = synthetic_root_flag
        self._index = {n: i for i, n in enumerate(self.nodes)}
        children = {n: [] for n in self.nodes}
        parents = {n: [] for n in self.nodes}
        for p, c in self.edges:
            children[p].append(c)
            parents[c].append(p)
        self._children = {n: tuple(v) for n, v in children.items()}
        self._parents = {n: tuple(v) for n, v in parents.items()}
        # Kahn's algorithm, first in first out; on a cyclic graph the nodes
        # on or below a cycle are left out
        indeg = {n: len(v) for n, v in self._parents.items()}
        order = [n for n in self.nodes if not indeg[n]]
        for n in order:  # the list grows while it is walked
            for c in self._children[n]:
                indeg[c] -= 1
                if not indeg[c]:
                    order.append(c)
        self._order = tuple(order)
        self._edge_arrays = None  # filled by edge_index_arrays

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, node):
        return node in self._index

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.root == other.root
                and self.synthetic_root_flag == other.synthetic_root_flag)

    def __hash__(self):
        return hash((self.nodes, self.edges, self.root))

    def __repr__(self):
        return (f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"root={self.root!r})")

    def index(self, node):
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def children(self, node):
        self.index(node)
        return self._children[node]

    def parents(self, node):
        self.index(node)
        return self._parents[node]

    def ancestors(self, node):
        """All nodes reachable from `node` against edge direction, excluding itself."""
        return self._reach(node, self._parents)

    def descendants(self, node):
        """All nodes reachable from `node` along edge direction, excluding itself."""
        return self._reach(node, self._children)

    def _reach(self, node, adjacency):
        self.index(node)
        seen = set()
        stack = list(adjacency[node])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(adjacency[n])
        # deterministic: global node order
        return tuple(sorted(seen, key=self._index.__getitem__))

    def topological_order(self):
        """Nodes in a topological order (parents before children).

        Kept from the constructor's Kahn pass.  On a cyclic graph the nodes
        on or below a cycle are missing from the result.
        """
        return self._order


def edge_index_arrays(dag: Dag):
    """(parent_indices, child_indices) int arrays, one entry per edge.

    Built once per Dag and shared, so the arrays are read-only.
    """
    if dag._edge_arrays is None:
        pi = np.fromiter((dag.index(p) for p, _ in dag.edges),
                         dtype=np.intp, count=len(dag.edges))
        ci = np.fromiter((dag.index(c) for _, c in dag.edges),
                         dtype=np.intp, count=len(dag.edges))
        pi.flags.writeable = False
        ci.flags.writeable = False
        dag._edge_arrays = (pi, ci)
    return dag._edge_arrays


@dataclass(frozen=True)
class LevelMap:
    """Max distance from the root for every node, grouped into levels.

    `dist[n]` is the length (edge count) of the longest root-to-`n` path;
    `levels[d]` lists the nodes at distance `d` in node order.  Keeps a
    reference to the Dag it was computed from so consumers can assert
    provenance instead of recomputing.
    """

    dag: Dag
    dist: dict = field(compare=False)
    levels: dict = field(compare=False)
    max_level: int = 0

    @cached_property
    def plan(self) -> LevelPlan:
        """The levels compiled into index arrays; built on first use."""
        return LevelPlan(self)


class LevelPlan:
    """Integer index arrays of every level, shared by all correction passes.

    `down` holds, for levels 1..max_level, (nodes, parents, offsets): the
    level's node indices, their parents' indices concatenated in node order,
    and where each node's run of parents starts (`reduceat` offsets).
    `up` holds blocks (nodes (nb,), children (nb, w), None), deepest level
    first: the nodes of one level with the same summation width w, children
    in edge order, each row padded with the sentinel index n (see
    `_width_blocks`).  Width groups add every per-node sum in the same
    order, and so with the same rounding, as a loop over single nodes.
    """

    def __init__(self, levels: LevelMap):
        dag = levels.dag
        self._levels = levels
        n = len(dag)
        self._node_level = level = np.fromiter(
            (levels.dist[m] for m in dag.nodes), dtype=np.intp, count=n)
        pi, ci = edge_index_arrays(dag)
        # nodes by (level, index); edges by (child level, child, edge order)
        nodes = np.argsort(level, kind="stable")
        by_child = np.lexsort((ci, level[ci]))
        parents = pi[by_child]
        node_at = np.searchsorted(level[nodes], np.arange(levels.max_level + 2))
        edge_at = np.searchsorted(level[ci[by_child]],
                                  np.arange(levels.max_level + 2))
        indeg = np.bincount(ci, minlength=n)
        self.down = []
        for d in range(1, levels.max_level + 1):
            ni = nodes[node_at[d]:node_at[d + 1]]
            self.down.append((ni, parents[edge_at[d]:edge_at[d + 1]],
                              np.cumsum(indeg[ni]) - indeg[ni]))
        inner = level[pi] > 0  # the root is never blended
        self.up = _width_blocks(level, pi[inner], ci[inner], None)

    @cached_property
    def descendants(self) -> list:
        """`up` with descendants instead of children, built on first use.

        Each block is (nodes (nb,), descendants (nb, w), weights (nb, w)):
        descendants in node order, padded like `up` with weight 0, and
        weighted (d_max - dist + 1) / d_max,
        where dist is the longest node-to-descendant path and d_max the
        largest such dist of the node.
        """
        levels = self._levels
        dag = levels.dag
        ix = dag._index
        # longest path from each node to each of its descendants, merged
        # from the children's maps in one sweep in reverse topological
        # (deepest level first) order; a map is dropped once every parent
        # has merged it
        reach = {}
        pending = {n: len(ps) for n, ps in dag._parents.items()}
        blocks = []
        for d in range(levels.max_level, 0, -1):
            owners, members, lengths, longest = [], [], [], []
            for n in levels.levels[d]:
                far = {}
                for c in dag._children[n]:
                    far.setdefault(ix[c], 1)
                    for m, dist in reach[c].items():
                        if dist + 1 > far.get(m, 0):
                            far[m] = dist + 1
                    pending[c] -= 1
                    if not pending[c]:
                        del reach[c]
                reach[n] = far
                desc = sorted(far)
                owners += [ix[n]] * len(desc)
                members += desc
                lengths += [far[m] for m in desc]
                longest += [max(far.values(), default=0)] * len(desc)
            d_max, dist = np.array(longest), np.array(lengths)
            blocks += _width_blocks(
                self._node_level, np.array(owners, dtype=np.intp),
                np.array(members, dtype=np.intp), (d_max - dist + 1) / d_max)
        return blocks

    def topdown(self, ref: np.ndarray) -> np.ndarray:
        """Top-down sweep: out = min(ref, min over parents of out).

        Level by level from the root, so every parent is final before its
        children; the root keeps its `ref` score.  HTD is topdown(flat),
        TPR's last phase topdown(bottom-up output).
        """
        out = ref.copy()
        for nodes, parents, offsets in self.down:
            out[:, nodes] = np.minimum(
                ref[:, nodes],
                np.minimum.reduceat(out[:, parents], offsets, axis=1))
        return out


def _width_blocks(level, owner, member, weight):
    """Blocks (nodes, members (nb, w), weights (nb, w) or None), deepest
    level first, each holding one level's owners of one summation width w.

    An owner of k members has width k | 7 (the k mod 8 tail filled up to
    7) for k < 128, and k itself from numpy's pairwise block size 128 up.
    Its member row is padded at the end with the sentinel index n_nodes
    and weight 0.  numpy sums a one-row gather with 8 pairwise accumulators
    and then the k mod 8 tail in order, and a many-row gather strictly in
    order; either way padding within the width only adds zeros after the
    node's own terms, so each node's sum keeps its bits.  Members keep
    their given order within each owner.  A block holds at most
    max(1, n_nodes // w) owners, so a gather over one block is no larger
    than a gather over a whole score row.
    """
    n_nodes = len(level)
    count = np.bincount(owner, minlength=n_nodes)
    width = np.where(count < 128, count | 7, count)
    order = np.lexsort((owner, width[owner], -level[owner]))
    owner, member = owner[order], member[order]
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    nodes = owner[first]
    k, w = count[nodes], width[nodes]
    slot_at = np.cumsum(w) - w
    # each member's slot: its owner's first slot plus its rank in the owner
    slots = np.arange(len(owner)) + np.repeat(slot_at - first, k)
    padded = np.full(int(w.sum()), n_nodes, dtype=np.intp)
    padded[slots] = member
    if weight is not None:
        weights = np.zeros(len(padded))
        weights[slots] = weight[order]
    key = level[nodes] * (n_nodes + 1) + w
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    blocks = []
    for s, e in zip(starts, starts[1:] + [len(nodes)]):
        wd = int(w[s])
        step = max(1, n_nodes // wd)
        for a in range(s, e, step):
            b = min(a + step, e)
            sl = slice(slot_at[a], slot_at[a] + (b - a) * wd)
            blocks.append((nodes[a:b], padded[sl].reshape(-1, wd),
                           None if weight is None
                           else weights[sl].reshape(-1, wd)))
    return blocks


def build_dag(edges, dedup: bool = False) -> Dag:
    """Build and validate a rooted Dag from (parent, child) identifier pairs.

    If several nodes have in-degree 0, a synthetic root named "__ROOT__" is
    added with one edge to each of them (flagged on the result).  The name
    "__ROOT__" is reserved: it may appear in the input only as the unique
    root of an already-augmented edge list, so serialization round-trips.

    With `dedup` repeated edges are silently collapsed; otherwise they raise.
    """
    edges = list(edges)
    if not edges:
        raise EmptyGraphError("edge list is empty")

    seen = set()
    clean = []
    for k, (p, c) in enumerate(edges):
        if not isinstance(p, str) or not isinstance(c, str) or not p or not c:
            raise DagError(f"edge #{k + 1}: identifiers must be non-empty strings")
        if p == c:
            raise SelfLoopError(f"self-loop on node {p!r}")
        if (p, c) in seen:
            if dedup:
                continue
            raise DuplicateEdgeError(f"duplicate edge ({p!r}, {c!r})")
        seen.add((p, c))
        clean.append((p, c))
    edges = clean

    nodes = []
    index = {}
    for p, c in edges:
        for n in (p, c):
            if n not in index:
                index[n] = len(nodes)
                nodes.append(n)

    has_parent = {c for _, c in edges}
    roots = [n for n in nodes if n not in has_parent]

    # no root at all: Kahn's order below comes out empty, so it is a cycle
    root = roots[0] if roots else None
    synthetic = SYNTHETIC_ROOT in index
    if len(roots) > 1:
        if synthetic:
            raise DagError(
                f"node {SYNTHETIC_ROOT!r} is reserved for the synthetic root "
                "but appears in a multi-root edge list")
        edges += [(SYNTHETIC_ROOT, r) for r in roots]
        nodes.append(SYNTHETIC_ROOT)
        root = SYNTHETIC_ROOT
        synthetic = True
    elif synthetic and roots and root != SYNTHETIC_ROOT:
        raise DagError(
            f"node {SYNTHETIC_ROOT!r} is reserved for the synthetic root")
    # otherwise a lone "__ROOT__" root is the round-trip of an augmented graph

    dag = Dag(nodes, edges, root, synthetic)
    if len(dag._order) < len(nodes):
        raise CycleError(_find_cycle(dag))
    return dag


def _find_cycle(dag):
    """One directed cycle, read off the nodes Kahn's order left out.

    Every left-out node has a left-out parent (else Kahn would have reached
    it), so walking from parent to left-out parent revisits a node.  The
    stretch between the two visits, reversed, is a cycle in parent -> child
    order; its first node is repeated at the end.
    """
    done = set(dag._order)
    node = next(n for n in dag.nodes if n not in done)
    path, at = [], {}
    while node not in at:
        at[node] = len(path)
        path.append(node)
        node = next(p for p in dag._parents[node] if p not in done)
    cycle = path[at[node]:][::-1]
    return cycle + cycle[:1]


def compute_levels(dag: Dag) -> LevelMap:
    """Longest-path distance from the root for every node.

    Dynamic programming over the Dag's kept topological order: dist(root)
    = 0 and dist(n) = 1 + max over parents of dist(parent).  Equivalent to
    running Bellman-Ford on negated edge weights, in linear instead of
    quadratic time.
    """
    dist = {}
    for n in dag.topological_order():
        ps = dag.parents(n)
        dist[n] = 1 + max(dist[p] for p in ps) if ps else 0
    levels = {}
    for n in dag.nodes:  # node order within each level
        levels.setdefault(dist[n], []).append(n)
    levels = {d: tuple(v) for d, v in levels.items()}
    return LevelMap(dag=dag, dist=dist, levels=levels, max_level=max(levels))


def _records(path, comments=None):
    """Yield (lineno, line without its newline) of each line of a UTF-8 file
    that is neither blank nor a `#` comment, adding comment texts to
    `comments` if given.  Not UTF-8: ParseError, no line (text mode decodes
    in chunks)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if line.lstrip().startswith("#"):
                    if comments is not None:
                        comments.append(line.lstrip("# ").rstrip())
                    continue
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def read_edge_list(path) -> list:
    """Parse a TSV edge-list file into (parent, child) pairs.

    One `parent<TAB>child` pair per line; `#` comment lines and blank
    lines are ignored.
    """
    pairs = []
    for lineno, line in _records(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError("expected 'parent<TAB>child'", line=lineno)
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise EmptyGraphError(f"no edges found in {path}")
    return pairs


def write_edge_list(dag: Dag, path) -> None:
    """Write the Dag's edges in insertion order (round-trips node order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, c in dag.edges:
            fh.write(f"{p}\t{c}\n")
