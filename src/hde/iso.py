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

from .dag import Dag, LevelMap, edge_index_arrays
from .errors import AlignmentError, ConvergenceError
from .htd import _check_aligned
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
    waits for the next scan.  Each edge taken is one step: it merges two
    trees, and if the merged tree's flows are not all positive, the usual
    step back to the feasible boundary drops the edges whose lam reaches
    zero, and only the trees that split are solved again.  The solve
    stops when a scan finds no gap above 1e-12.

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
    lam = {}  # forest edge -> its dual value, > 0 between steps
    acc = [0.0] * n  # scratch: sum of z - mean below a node
    yl = zl[:]  # mean of each node's tree
    size = [1] * n  # node count of each node's tree

    def solve(start, flow):
        """start's tree, with its mean and size set in `yl` and `size`;
        its edges' lam go into `flow`."""
        order, via = [start], [-1]  # breadth first; grows while walked
        for v, e_in in zip(order, via):
            for e in adj[v]:
                if e != e_in:
                    order.append(cl[e] if pl[e] == v else pl[e])
                    via.append(e)
        k = len(order)
        mean = math.fsum([zl[v] for v in order]) / k
        for j in range(k - 1, 0, -1):
            v, e = order[j], via[j]
            yl[v] = mean
            size[v] = k
            s = zl[v] - mean + acc[v]
            acc[v] = 0.0
            if cl[e] == v:
                flow[e] = s
                acc[pl[e]] += s
            else:
                flow[e] = -s
                acc[cl[e]] += s
        yl[start] = mean
        size[start] = k
        acc[start] = 0.0
        return order

    steps = 0
    while m:
        y = np.array(yl)
        w = y[ci] - y[pi]
        scan = np.flatnonzero(w > _TOL)
        if not scan.size:
            break
        scan = scan[np.argsort(-w[scan], kind="stable")]
        for t, gap in zip(scan.tolist(), w[scan].tolist()):
            p, c = pl[t], cl[t]
            if yl[c] - yl[p] < gap:
                continue
            steps += 1
            if steps > _STEPS_PER_EDGE * m:
                raise ConvergenceError(
                    f"isotonic projection: no solution within {steps - 1} steps")
            adj[p].append(t)
            adj[c].append(t)
            lam[t] = 0.0
            flow = {}
            # started in the larger tree, the sum giving lam_t runs over the
            # smaller one, so its rounding stays far below lam_t itself
            solve(p if size[p] >= size[c] else c, flow)
            while True:
                neg = [e for e, f in flow.items() if f <= 0.0]
                if not neg:
                    break
                first = min(neg, key=lambda e: lam[e] / (lam[e] - flow[e]))
                alpha = lam[first] / (lam[first] - flow[first])
                for e, f in flow.items():
                    lam[e] += alpha * (f - lam[e])
                lam[first] = 0.0
                gone = [e for e in flow if lam[e] <= 0.0]
                for e in gone:
                    del lam[e], flow[e]
                    adj[pl[e]].remove(e)
                    adj[cl[e]].remove(e)
                seen = set()
                for e in gone:
                    for v in (pl[e], cl[e]):
                        if v not in seen:
                            seen.update(solve(v, flow))
            lam.update(flow)
    return np.array(yl), steps


def iso_tpr_correct(dag: Dag, levels: LevelMap, flat,
                    config: TprConfig) -> np.ndarray:
    """Bottom-up TPR pass, then isotonic projection of the result."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise AlignmentError("expected a 1-D score row")
    return iso_tpr_correct_matrix(dag, levels, flat[None, :], config)[0]


def iso_tpr_correct_matrix(dag: Dag, levels: LevelMap, flat: np.ndarray,
                           config: TprConfig) -> np.ndarray:
    """ISO-TPR on every row of a score matrix.

    The bottom-up TPR pass runs once, on the whole matrix; each row of its
    output is then projected on its own by `isotonic_project`.
    """
    flat = np.atleast_2d(np.asarray(flat, dtype=np.float64))
    _check_aligned(dag, levels, flat)
    base = _bottom_up_matrix(dag, levels, flat, config)
    out = np.empty_like(base)
    for r in range(base.shape[0]):
        out[r] = isotonic_project(dag, base[r]).values
    return out
