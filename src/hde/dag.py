"""Rooted DAG taxonomy: construction, validation, queries, level computation
and the edge-list file, the one file this module reads and writes.

A taxonomy is a directed acyclic graph whose edges point from a parent
(more general) class to a child (more specific) class.  All downstream
corrections process nodes by *max-distance levels*: the level of a node is
the length of the longest root-to-node path, which guarantees that every
ancestor of a node sits on a strictly smaller level.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat

import numpy as np

from ._tsv import _emit, _kept_lines, _storable
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
    """Immutable rooted DAG over string class identifiers, and its level plan.

    Build it with :func:`build_dag`, which validates the edge set and adds
    a synthetic root when the input has several roots.  Node order is the
    first-appearance order in the (possibly augmented) edge list and is
    used everywhere determinism matters.

    The core is integer: the node names once, each edge's parent and child
    node indices (the Dag's only copy of its edges), and the topological
    order and every node's max-distance level, both from one first-in
    first-out Kahn pass over the edges.  A cyclic edge set raises
    CycleError there.  Everything else is built on first use and kept: the
    `edges` name pairs, the name-keyed relatives, the names of the
    topological order, and the level plan that every pass shares
    (`compute_levels(dag)` is the Dag itself, and the passes reject any
    other).

    By name, `dist[n]` is the length (edge count) of the longest root-to-`n`
    path and `levels[d]` lists the nodes at distance `d` in node order.
    The plan is integer, one entry per level: `down` holds, for levels
    1..max_level, (parents, kids): the parent and child indices of the
    edges whose child is on that level, in edge order.  `up` holds,
    deepest first, for each level from 1 with a node that has children,
    (nodes, members, starts, owners): those nodes in node order, their
    runs of cells, each the sentinel slot n and then the node's children
    in edge order, where each run starts, and each cell's owner
    as its rank in `nodes`, the sentinel included.  The passes index nodes
    on the first axis of their working arrays (node-major, see `topdown`),
    so every gather is a plain `W[idx]`.
    """

    def __init__(self, nodes, root, synthetic_root_flag, index, pi, ci):
        """`build_dag`'s: names already interned and checked, `index` maps
        each node to its position in `nodes`, `pi`/`ci` hold each edge's
        parent and child positions, the Dag's only copy of its edges."""
        self.nodes = nodes = tuple(nodes)
        self.root = root
        self.synthetic_root_flag = synthetic_root_flag
        self._index = index
        pi.flags.writeable = False
        ci.flags.writeable = False
        self._pi, self._ci = pi, ci
        n = len(nodes)
        # each node's children in edge order: kid_ix[kid_at[v]:kid_at[v + 1]]
        kid_ix, kid_at = _csr(pi, ci, n)
        # Kahn's algorithm, first in first out; a node is appended once its
        # last parent is done, so its level is final by then.  The nodes on
        # or below a cycle are left out.
        indeg = np.bincount(ci, minlength=n)
        order = np.flatnonzero(indeg == 0).tolist()
        indeg = indeg.tolist()
        level = [0] * n
        for v in order:  # the list grows while it is walked
            below = level[v] + 1
            for c in kid_ix[kid_at[v]:kid_at[v + 1]]:
                if level[c] < below:
                    level[c] = below
                indeg[c] -= 1
                if not indeg[c]:
                    order.append(c)
        # kept as arrays: the Python int lists would cost about 36 bytes
        # per entry for the Dag's lifetime
        self._order_ix = np.array(order, dtype=np.intp)
        self._level = np.array(level, dtype=np.intp)
        self._order_ix.flags.writeable = self._level.flags.writeable = False
        if len(order) < n:
            raise CycleError(_find_cycle(self))
        self.max_level = int(self._level.max())

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, node):
        return node in self._index

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (self.nodes == other.nodes and self.root == other.root
                and self.synthetic_root_flag == other.synthetic_root_flag
                and np.array_equal(self._pi, other._pi)
                and np.array_equal(self._ci, other._ci))

    def __hash__(self):
        return hash((self.nodes, self._pi.tobytes(), self._ci.tobytes(),
                     self.root))

    def __repr__(self):
        return (f"Dag({len(self.nodes)} nodes, {len(self._pi)} edges, "
                f"root={self.root!r})")

    def index(self, node):
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def children(self, node):
        return self._named[0][self.index(node)]

    def parents(self, node):
        return self._named[1][self.index(node)]

    @cached_property
    def edges(self) -> tuple:
        """(parent, child) name pairs in input order after dedup, synthetic
        root edges last; built from the index arrays on first use."""
        name = self.nodes.__getitem__
        return tuple(zip(map(name, self._pi.tolist()),
                         map(name, self._ci.tolist())))

    @cached_property
    def _named(self):
        """(children, parents): per node index, a tuple of names in edge
        order."""
        n = len(self)
        return (_named_groups(self.nodes, self._pi, self._ci, n),
                _named_groups(self.nodes, self._ci, self._pi, n))

    @cached_property
    def _order(self):
        return tuple(map(self.nodes.__getitem__, self._order_ix.tolist()))

    def topological_order(self):
        """Every node once, in a topological order (parents before
        children), kept from the constructor's Kahn pass."""
        return self._order

    @cached_property
    def dist(self) -> dict:
        return dict(zip(self.nodes, self._level.tolist()))

    @cached_property
    def levels(self) -> dict:
        nodes = self.nodes
        return dict(enumerate(_named_groups(
            nodes, self._level, np.arange(len(nodes)), self.max_level + 1)))

    @cached_property
    def down(self) -> list:
        level, pi, ci = self._level, self._pi, self._ci
        # edges by child level, in edge order within a level; no child is
        # on level 0
        by_level = np.argsort(level[ci], kind="stable")
        parents, kids = pi[by_level], ci[by_level]
        at = np.searchsorted(level[kids],
                             np.arange(1, self.max_level + 2)).tolist()
        return [(parents[a:b], kids[a:b]) for a, b in zip(at, at[1:])]

    @cached_property
    def up(self) -> list:
        level, pi, ci = self._level, self._pi, self._ci
        inner = np.flatnonzero(level[pi] > 0)  # the root is never blended
        # edges by (parent level deepest first, parent, edge order)
        inner = inner[np.lexsort((pi[inner], -level[pi[inner]]))]
        return _runs(level, pi[inner], ci[inner])

    @cached_property
    def descendants(self) -> list:
        """`up` with descendants instead of children.

        Each entry is (nodes, descendants, starts, owners, weights):
        descendants in node order after the sentinel slot, weighted
        (d_max - dist + 1) / d_max, where dist is the longest
        node-to-descendant path and d_max the largest such dist of the node.
        """
        kid_ix, kid_at = _csr(self._pi, self._ci, len(self.nodes))
        # the nodes by level, in node order within a level
        by_level, level_at = _csr(self._level, np.arange(len(self.nodes)),
                                  self.max_level + 1)
        # longest path from each node to each of its descendants, merged from
        # the children's maps deepest level first; a map is dropped once every
        # parent has merged it, and entries are made per level to keep the
        # temporaries to one level's cells
        reach = {}
        pending = np.bincount(self._ci, minlength=len(self.nodes)).tolist()
        plan = []
        for d in range(self.max_level, 0, -1):
            owners, members, lengths, longest = [], [], [], []
            for n in by_level[level_at[d]:level_at[d + 1]]:
                far = {}
                for c in kid_ix[kid_at[n]:kid_at[n + 1]]:
                    far.setdefault(c, 1)
                    for m, dist in reach[c].items():
                        if dist + 1 > far.get(m, 0):
                            far[m] = dist + 1
                    pending[c] -= 1
                    if not pending[c]:
                        del reach[c]
                reach[n] = far
                desc = sorted(far)
                owners += [n] * len(desc)
                members += desc
                lengths += [far[m] for m in desc]
                longest += [max(far.values(), default=0)] * len(desc)
            d_max, dist = np.array(longest), np.array(lengths)
            plan += _runs(self._level, np.array(owners, dtype=np.intp),
                          np.array(members, dtype=np.intp),
                          (d_max - dist + 1) / d_max)
        return plan

    def topdown(self, ref: np.ndarray) -> np.ndarray:
        """Top-down sweep: out = min(ref, min over parents of out).

        `ref` is node-major: an (n,) vector for one row, an (n, R) array
        for R rows.  Level by level from the root, so every parent is final
        before its children; the root keeps its `ref` score.  HTD is
        topdown(flat), TPR's last phase topdown(bottom-up output).

        One rule for both shapes: per level, `np.minimum.at` of the
        parents' rows into the kids' rows, edge by edge.  A kid still
        holds its `ref` when its level is reached and its parents lie on
        lower levels, so each node, each column alike, folds `np.minimum`
        over `[ref, parent 1, ..., parent k]` in edge order.
        """
        out = ref.copy()
        with np.errstate(invalid="ignore"):  # minimum.at warns of a NaN
            for parents, kids in self.down:
                np.minimum.at(out, kids, out[parents])
        return out


def _edge_ends(index, edges):
    """(pi, ci): each edge's parent and child position by `index`."""
    ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)),
                       dtype=np.intp, count=2 * len(edges)).reshape(-1, 2)
    return ends[:, 0].copy(), ends[:, 1].copy()


def _csr(key, value, n):
    """(flat, at): `value`'s entries grouped by `key`, the group of key k
    being flat[at[k]:at[k + 1]] in input order, for k in 0..n-1."""
    flat = value[np.argsort(key, kind="stable")].tolist()
    return flat, [0] + np.cumsum(np.bincount(key, minlength=n)).tolist()


def _named_groups(nodes, key, value, n):
    """For each k in 0..n-1, the names in `nodes` of `value`'s entries whose
    key is k, as a tuple in input order."""
    flat, at = _csr(key, value, n)
    name = nodes.__getitem__
    return [tuple(map(name, flat[a:b])) for a, b in zip(at, at[1:])]


def edge_index_arrays(dag: Dag):
    """(parent_indices, child_indices) int arrays, one entry per edge.

    Kept by the Dag and shared, so the arrays are read-only.
    """
    return dag._pi, dag._ci


def _runs(level, owner, member, weight=None):
    """Plan entries (nodes, members, starts, owners[, weights]), one per
    level, from cells grouped by owner, owners by level deepest first and
    then in ascending order.  `owners` gives each cell's owner as its rank
    in the entry's nodes."""
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    nodes, members = owner[first], np.insert(member, first, len(level))
    starts = np.append(first + np.arange(len(first)), len(members))
    ranks = np.repeat(np.arange(len(nodes)), np.diff(starts))
    if weight is not None:
        weights = np.insert(weight, first, 0.0)
    cut = np.flatnonzero(np.diff(level[nodes], prepend=-1)).tolist()
    entries = []
    for a, b in zip(cut, [*cut[1:], len(nodes)]):
        lo, hi = starts[a], starts[b]
        entry = (nodes[a:b], members[lo:hi], starts[a:b] - lo,
                 ranks[lo:hi] - a)
        entries.append(entry if weight is None else (*entry, weights[lo:hi]))
    return entries


def build_dag(edges, dedup: bool = False) -> Dag:
    """Build and validate a rooted Dag from (parent, child) identifier pairs.

    If several nodes have in-degree 0, a synthetic root named "__ROOT__" is
    added with one edge to each of them (flagged on the result).  The name
    "__ROOT__" is reserved: it may appear in the input only as the unique
    root of an already-augmented edge list, so serialization round-trips.

    An identifier must be a string that hde's TSV files carry whole: not
    blank, with no tab, line break or lone surrogate (which UTF-8 cannot
    encode), and not starting with `#` or U+FEFF after any leading blanks,
    which a reader would skip or strip.
    With `dedup` repeated edges are silently collapsed; otherwise they raise.
    The first offending edge in input order is reported; on one edge a bad
    identifier comes before a self-loop, and a self-loop before a repeat.
    """
    edges = list(map(tuple, edges))
    if not edges:
        raise EmptyGraphError("edge list is empty")
    if set(map(len, edges)) != {2}:
        raise ValueError("edges must be (parent, child) pairs")

    # the edges before the first bad identifier (all of them if none) are
    # interned and checked on index arrays; an earlier self-loop or repeat
    # is reported first
    try:
        index = dict.fromkeys(chain.from_iterable(edges))
    except TypeError:  # an unhashable identifier
        index = None
    m = len(edges)
    if index is None or not _storable(index):
        m = next(k for k, edge in enumerate(edges) if not _storable(edge))
        index = dict.fromkeys(chain.from_iterable(edges[:m]))
    n = len(index)
    index = dict(zip(index, range(n)))
    pi, ci = _edge_ends(index, edges[:m])
    first = np.unique(pi * n + ci, return_index=True)[1]
    repeat = np.ones(m, dtype=bool)
    repeat[first] = False
    loop = pi == ci
    bad = loop if dedup else loop | repeat
    if bad.any():
        k = int(np.argmax(bad))
        p, c = edges[k]
        if loop[k]:
            raise SelfLoopError(f"self-loop on node {p!r}")
        raise DuplicateEdgeError(f"duplicate edge ({p!r}, {c!r})")
    if m < len(edges):
        raise DagError(f"edge #{m + 1}: identifiers must be non-blank strings "
                       "with no tab, line break or lone surrogate, not "
                       "starting with '#' or U+FEFF after any leading blanks")
    if repeat.any():
        keep = np.sort(first)
        pi, ci = pi[keep], ci[keep]

    nodes = list(index)
    roots = np.flatnonzero(np.bincount(ci, minlength=n) == 0).tolist()

    # no root at all: the Dag's Kahn order comes out empty, so it is a cycle
    root = nodes[roots[0]] if roots else None
    synthetic = SYNTHETIC_ROOT in index
    if len(roots) > 1:
        if synthetic:
            raise DagError(
                f"node {SYNTHETIC_ROOT!r} is reserved for the synthetic root "
                "but appears in a multi-root edge list")
        index[SYNTHETIC_ROOT] = n
        nodes.append(SYNTHETIC_ROOT)
        pi = np.concatenate([pi, np.full(len(roots), n, dtype=np.intp)])
        ci = np.concatenate([ci, np.array(roots, dtype=np.intp)])
        root = SYNTHETIC_ROOT
        synthetic = True
    elif synthetic and roots and root != SYNTHETIC_ROOT:
        raise DagError(
            f"node {SYNTHETIC_ROOT!r} is reserved for the synthetic root")
    # otherwise a lone "__ROOT__" root is the round-trip of an augmented graph

    return Dag(nodes, root, synthetic, index, pi, ci)


def _find_cycle(dag):
    """One directed cycle, read off the nodes Kahn's order left out.

    Every left-out node has a left-out parent (else Kahn would have reached
    it), so walking from parent to left-out parent revisits a node.  The
    stretch between the two visits, reversed, is a cycle in parent -> child
    order; its first node is repeated at the end.
    """
    done = set(dag.topological_order())
    node = next(n for n in dag.nodes if n not in done)
    path, at = [], {}
    while node not in at:
        at[node] = len(path)
        path.append(node)
        node = next(p for p in dag.parents(node) if p not in done)
    cycle = path[at[node]:][::-1]
    return cycle + cycle[:1]


def compute_levels(dag: Dag) -> Dag:
    """Longest-path distance from the root for every node.

    The Dag's Kahn pass sets dist(root) = 0 and dist(n) = 1 + max over
    parents of dist(parent), each node once its last parent is done: the
    same answer as Bellman-Ford on negated edge weights, in linear instead
    of quadratic time.  The Dag is its own level plan, so this returns
    `dag`: its `dist`, `levels` and `max_level`, and the plan the passes
    read, are kept on it.
    """
    return dag


def read_edge_list(path) -> list:
    """Parse a TSV edge-list file into (parent, child) pairs.

    One `parent<TAB>child` pair per line; blank and `#` comment lines and
    a leading byte-order mark are ignored.
    """
    lines, kept = _kept_lines(path)
    if not kept:
        raise EmptyGraphError(f"no edges found in {path}")
    fields = "\t".join(kept).split("\t")
    if "" in fields or set(map(str.count, kept, repeat("\t"))) != {1}:
        # the first bad line; an equal line before it would be bad too
        bad = next(line for line in kept
                   if len(parts := line.split("\t")) != 2 or "" in parts)
        raise ParseError("expected 'parent<TAB>child'",
                         line=lines.index(bad) + 1)
    del lines, kept  # the line strings go before the pairs are built
    return list(zip(fields[0::2], fields[1::2]))


def write_edge_list(dag: Dag, path) -> None:
    """Write the Dag's edges in insertion order (round-trips node order)."""
    _emit(path, lambda fh: fh.write(
        "".join(f"{p}\t{c}\n" for p, c in dag.edges)))
