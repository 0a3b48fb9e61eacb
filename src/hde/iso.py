"""Isotonic variant: bottom-up positive propagation, then least-squares
projection onto the set of hierarchy-consistent score vectors.

The feasible set is the polyhedron {y : y_parent >= y_child on every edge}.
Projection onto it is the unique vector closest (in squared error) to the
input that obeys the true path rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dag import Dag, edge_index_arrays
from .errors import AlignmentError, ConvergenceError
from .htd import _row
from .tpr import TprConfig, _bottom_up_matrix


# The solve stops when no edge has y[child] - y[parent] above this.
_TOL = 1e-12
# Lawson-Hanson steps allowed per edge; scipy's nnls has the same default.
_STEPS_PER_EDGE = 3


@dataclass(frozen=True)
class IsoSolution:
    """Result of one projection.

    `objective` is the squared distance to the projection input;
    `residual` the worst edge violation of the raw solve, before the repair
    and [0, 1] clamping, which is at most 1e-12;
    `iterations` the number of Lawson-Hanson steps (edges added to the
    forest; 0 when the input is already consistent).
    """

    values: np.ndarray
    objective: float
    iterations: int
    residual: float


def isotonic_project(dag: Dag, z) -> IsoSolution:
    """Euclidean projection of a score row onto the hierarchy-consistent set.

    Exact active-set solve of the dual: with A holding one row
    e_child - e_parent per edge, the projection of z onto {y : Ay <= 0} is
    y = z - A'lam where lam >= 0 minimizes ||A'lam - z||.  That
    non-negative least-squares problem is solved by Lawson-Hanson, using
    the structure of A: a set of its columns is linearly independent
    exactly when its edges form a forest, so the passive set is a forest
    and each least-squares solve is closed-form (y is the mean of z over
    each tree, and lam_e the sum of z - y over the side of edge e that
    holds its child).  Memory is O(nodes + edges).  More than 3 steps per
    edge raise ConvergenceError.  A non-finite value raises ValueError.

    The solve stops with every edge's y[child] - y[parent] at most 1e-12;
    on tied inputs two trees can end that close, so each violating child
    is lowered to its parents' minimum until none is left (at most one
    pass per level), and the values, clipped to [0, 1], obey the true path
    rule exactly.  `objective` and `residual` describe the raw solve.
    """
    z = np.asarray_chkfinite(z, dtype=np.float64)
    if z.shape != (len(dag),):
        raise AlignmentError(
            f"row has {z.shape} values for a {len(dag)}-node taxonomy")
    pi, ci = edge_index_arrays(dag)
    y, steps = _forest_lawson_hanson(z, pi, ci)
    residual = float((y[ci] - y[pi]).max(initial=0.0))
    objective = float(((z - y) ** 2).sum())
    y = np.clip(y, 0.0, 1.0)
    bad = np.flatnonzero(y[ci] > y[pi])
    while bad.size:
        np.minimum.at(y, ci[bad], y[pi[bad]])
        bad = np.flatnonzero(y[ci] > y[pi])
    return IsoSolution(y, objective, steps, residual)


def _forest_lawson_hanson(z, pi, ci):
    """(y, steps): Lawson-Hanson on the dual, the passive set an edge forest.

    Entering edges come from gap scans.  A scan takes every edge whose
    y[child] - y[parent] is above 1e-12 and sorts them by that gap,
    largest first, ties by edge index, so its first pick is the edge with
    the largest gap.  The scan is then walked in order: an edge is taken
    only if its current gap is still at least its scanned one, else it
    waits for the next scan.  The solve stops when a scan finds no gap
    above 1e-12.

    Each tree is rooted: it keeps its nodes root first, and each node its
    root and a link (tree parent, edge, +-1.0).  An edge taken is one
    step.  It hangs the smaller of its two trees below its end in the
    larger, so the merge walks the smaller tree, to re-root it, and then
    the merged tree once, leaves first: that pass sums z - mean below
    each node into its edge's new lam and keeps the old lam beside it.
    The new edge's lam is then a sum over the smaller tree, so its
    rounding stays far below it.  If a lam is not positive, the usual
    step back to the feasible boundary drops the edges whose lam reaches
    zero, each cutting its lower side off as a tree of its own, and every
    piece is solved again.

    Lawson and Hanson's entering column needs only a positive dual
    gradient, not the largest (Solving Least Squares Problems, 1974,
    Lemma 23.17): it gets lam > 0 in the next solve, so every step still
    lowers the dual objective.  A positive gap also puts its endpoints in
    different trees, so the passive set stays a forest.  The deferral
    keeps the path close to largest-gap-first.
    """
    n, m = z.size, pi.size
    zl, pl, cl = z.tolist(), pi.tolist(), ci.tolist()
    adj = [[] for _ in range(n)]  # forest edges at each node
    root = list(range(n))
    # below a root, each node's link: its tree parent, the edge to it, and
    # +1.0 if the node is that edge's child, else -1.0
    up, via, sign = [0] * n, [0] * n, [0.0] * n
    trees = {}  # root -> its tree's nodes, root first; none for one node
    mean = zl[:]  # each tree's mean, at its root
    lam = [0.0] * m  # each forest edge's dual value, > 0 between steps
    old = [0.0] * m  # lam before the last solve, for the step back
    acc = [0.0] * n  # scratch: sum of z - mean below a node

    def solve(r, neg):
        """Tree r's mean and its edges' lam; edges whose lam is not
        positive go into `neg`."""
        order = trees[r]
        mu = mean[r] = math.fsum([zl[v] for v in order]) / len(order)
        for v in order[:0:-1]:
            e = via[v]
            s = zl[v] - mu + acc[v]
            acc[v] = 0.0
            acc[up[v]] += s
            old[e] = lam[e]
            lam[e] = f = sign[v] * s
            if f <= 0.0:
                neg.append(e)
        acc[r] = 0.0

    steps = 0
    while m:
        y = np.array(mean)[root]
        w = y[ci] - y[pi]
        scan = np.flatnonzero(w > _TOL)
        if not scan.size:
            break
        scan = scan[np.argsort(-w[scan], kind="stable")]
        for t, gap in zip(scan.tolist(), w[scan].tolist()):
            p, c = pl[t], cl[t]
            if mean[root[c]] - mean[root[p]] < gap:
                continue
            steps += 1
            if steps > _STEPS_PER_EDGE * m:
                raise ConvergenceError(
                    f"isotonic projection: no solution within {steps - 1} steps")
            adj[p].append(t)
            adj[c].append(t)
            # hang the smaller tree below t's end in the larger one
            big, top, low, side = root[p], p, c, 1.0
            if len(trees.get(big, (big,))) < len(trees.get(root[c], (c,))):
                big, top, low, side = root[c], c, p, -1.0
            trees.pop(root[low], None)
            up[low], via[low], sign[low] = top, t, side
            hung = [low]
            for v in hung:  # breadth first; grows while walked
                root[v] = big
                e_in = via[v]
                for e in adj[v]:
                    if e != e_in:
                        u = cl[e] if pl[e] == v else pl[e]
                        up[u], via[u] = v, e
                        sign[u] = 1.0 if cl[e] == u else -1.0
                        hung.append(u)
            trees.setdefault(big, [big]).extend(hung)
            lam[t] = 0.0
            neg = []
            solve(big, neg)
            pieces = [big]
            while neg:
                first = min(neg, key=lambda e: old[e] / (old[e] - lam[e]))
                alpha = old[first] / (old[first] - lam[first])
                for r in pieces[:]:
                    order, trees[r] = trees[r], [r]
                    for v in order[1:]:
                        u, e = up[v], via[v]
                        lam[e] = x = old[e] + alpha * (lam[e] - old[e])
                        if x <= 0.0 or e == first:
                            adj[u].remove(e)
                            adj[v].remove(e)
                            root[v] = v
                            trees[v] = [v]
                            pieces.append(v)
                        else:
                            root[v] = root[u]
                            trees[root[v]].append(v)
                neg = []
                for r in pieces:
                    solve(r, neg)
    return np.array(mean)[root], steps


def iso_tpr_correct(dag: Dag, levels: Dag, flat,
                    config: TprConfig) -> np.ndarray:
    """Bottom-up TPR pass, then isotonic projection of the result."""
    return _row(iso_tpr_correct_matrix, dag, levels, flat, config)


def iso_tpr_correct_matrix(dag: Dag, levels: Dag, flat: np.ndarray,
                           config: TprConfig) -> np.ndarray:
    """ISO-TPR on every row of a score matrix.

    The bottom-up TPR pass runs once, on the whole matrix; each row of its
    output is then projected on its own by `isotonic_project`.
    """
    base = _bottom_up_matrix(dag, levels, flat, config)
    out = np.empty_like(base)
    for r in range(base.shape[0]):
        out[r] = isotonic_project(dag, base[r]).values
    return out
