"""Per-node reference loops for the level-plan kernels.

These are the original node-at-a-time HTD, TPR bottom-up and TPR top-down
passes.  They visit one node per step and gather its parents, children or
descendants by name (descendants by the depth-first walk of
`oracles.descendants`, not the level plan), so they are slow but plainly
follow the algorithm; `test_plan.py` requires the compiled kernels to
match them bit for bit.
`positive_children` restates the bottom-up positive-set selection for one
node; `test_tpr.py` checks its membership rules.  `kkt_residual` certifies
an isotonic projection without the production solver.
`forest_lawson_hanson` is the isotonic solver that walks each merged tree
breadth first at every step and keeps every lam in a dict;
`test_properties.py` requires `isotonic_project` to give its bits on
continuous rows.

`read_scores_rows`, `fit_fscore_grid` and `fit_percentile_loop` are the
per-cell scores reader, the per-grid-value F-score fit and the per-class
percentile fit: `test_scores.py` and `test_thresholds.py` require
`read_scores`, `fit_fscore` and `fit_percentile` to match them bit for bit
(the percentile fit in its warnings too).

`build_by_name` is the taxonomy build on name-keyed dicts: one validation
loop over the edges, child and parent dicts of tuples, Kahn's algorithm and
the longest-path levels on names.  `plan_by_name` compiles its levels into
the level plan's arrays with plain loops, not hde's plan builder, walking
descendants through those dicts.
`test_dag.py` and `test_plan.py` require `build_dag` and the Dag's
level plan (its name views and plan arrays) to give what they give.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
from scipy.optimize import nnls

from hde import ScoreMatrix
from hde._tsv import _records
from hde.dag import SYNTHETIC_ROOT
from hde.errors import (
    ConvergenceError,
    CycleError,
    DagError,
    DuplicateEdgeError,
    EmptyGraphError,
    NoPositivesWarning,
    ParseError,
    RangeError,
    SelfLoopError,
)
from hde.iso import _STEPS_PER_EDGE, _TOL
from hde.thresholds import ThresholdVector, _class_metrics

from oracles import descendants


def htd_matrix(dag, levels, flat):
    out = flat.copy()
    for d in range(1, levels.max_level + 1):
        for n in levels.levels[d]:
            i = dag.index(n)
            pidx = [dag.index(p) for p in dag.parents(n)]
            np.minimum(flat[:, i], out[:, pidx].min(axis=1), out=out[:, i])
    return out


def positive_children(dag, node, current, flat, config):
    """Ordered tuple of the node's children admitted into the positive set.

    `current` holds the finalized bottom-up scores (children of `node` are
    already final by level order); `flat` the uncorrected row.  Strict
    inequality in both selection modes.
    """
    current = np.asarray(current, dtype=np.float64)
    flat = np.asarray(flat, dtype=np.float64)
    out = []
    for c in dag.children(node):
        j = dag.index(c)
        cutoff = (_threshold_values(config)[j]
                  if config.positive_selection == "threshold"
                  else flat[dag.index(node)])
        if current[j] > cutoff:
            out.append(c)
    return tuple(out)


def _threshold_values(config):
    """The config's thresholds by position: a ThresholdVector's values or
    the plain array itself."""
    return np.asarray(getattr(config.thresholds, "values", config.thresholds))


def sub_dag_distances(dag, node):
    """Longest-path distance from `node` to each of its descendants."""
    desc = set(descendants(dag, node))
    dist = {node: 0}
    for n in dag.topological_order():
        if n not in desc:
            continue
        dist[n] = 1 + max(dist[p] for p in dag.parents(n) if p in dist)
    del dist[node]
    return dist


def bottom_up_matrix(dag, levels, flat, cfg):
    out = flat.copy()
    t = _threshold_values(cfg)
    for d in range(levels.max_level, 0, -1):
        for n in levels.levels[d]:
            i = dag.index(n)
            if cfg.descendant_mode == "children":
                members = dag.children(n)
                weights = None
            else:
                members = descendants(dag, n)
                if cfg.descendant_mode == "descendants-linear" and members:
                    dists = sub_dag_distances(dag, n)
                    d_max = max(dists.values())
                    weights = np.array(
                        [(d_max - dists[m] + 1) / d_max for m in members])
                else:
                    weights = None
            if not members:
                continue
            midx = [dag.index(m) for m in members]
            vals = out[:, midx]
            if cfg.positive_selection == "threshold":
                mask = vals > t[midx]
            else:
                mask = vals > flat[:, [i]]
            if weights is None:
                wsum = mask.sum(axis=1)
                vsum = np.where(mask, vals, 0.0).sum(axis=1)
            else:
                wsum = (mask * weights).sum(axis=1)
                vsum = (np.where(mask, vals, 0.0) * weights).sum(axis=1)
            if cfg.w is None:
                out[:, i] = (flat[:, i] + vsum) / (1.0 + wsum)
            else:
                safe = np.where(wsum > 0, wsum, 1.0)
                out[:, i] = np.where(
                    wsum > 0,
                    cfg.w * flat[:, i] + (1.0 - cfg.w) * vsum / safe,
                    flat[:, i])
    return out


def topdown_matrix(dag, levels, base, flat, literal):
    out = base.copy()
    ri = dag.index(dag.root)
    out[:, ri] = flat[:, ri]
    for d in range(1, levels.max_level + 1):
        for n in levels.levels[d]:
            i = dag.index(n)
            pidx = [dag.index(p) for p in dag.parents(n)]
            pmin = out[:, pidx].min(axis=1)
            ref = flat[:, i] if literal else base[:, i]
            np.minimum(ref, pmin, out=out[:, i])
    return out


def tpr_matrix(dag, levels, flat, cfg):
    b = bottom_up_matrix(dag, levels, flat, cfg)
    return topdown_matrix(dag, levels, b, flat, literal=False)


def kkt_residual(dag, z, y, tight_tol=1e-9):
    """KKT residual of `y` as the projection of `z` onto {y : Ay <= 0}.

    A holds the row e_child - e_parent of each edge.  A feasible y is the
    projection exactly when z - y = A'lam for some lam >= 0 that is zero on
    every edge not tight at y; the residual of that NNLS fit over the tight
    edges is zero for the projection and positive for any other point.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tight = [(dag.index(p), dag.index(c)) for p, c in dag.edges
             if abs(y[dag.index(c)] - y[dag.index(p)]) <= tight_tol]
    if not tight:
        return float(np.linalg.norm(z - y))
    at = np.zeros((len(y), len(tight)))
    for j, (p, c) in enumerate(tight):
        at[c, j] = 1.0
        at[p, j] = -1.0
    return float(nnls(at, z - y)[1])


def forest_lawson_hanson(z, pi, ci):
    """(y, steps): Lawson-Hanson on the dual, the passive set an edge forest,
    each tree solved by a breadth-first walk of the whole tree.

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


def _rows_in_range(rows, linenos):
    values = np.array(rows, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise RangeError(
            f"line {linenos[r]}: value {rows[r][c]!r} outside [0, 1]")
    return values


def read_scores_rows(path):
    """A scores TSV read one row at a time, float() on every cell."""
    comments = []
    records = ((n, line.split("\t")) for n, line in _records(path, comments))
    lineno, parts = next(records, (None, None))
    if parts is None:
        raise ParseError(f"no header found in {path}")
    if parts[0] != "example" or len(parts) < 2:
        raise ParseError(
            "header must start with 'example' followed by class ids",
            line=lineno)
    header = parts[1:]
    example_ids, rows, linenos = [], [], []
    for lineno, parts in records:
        try:
            if len(parts) != len(header) + 1:
                raise ValueError(
                    f"expected {len(header) + 1} columns, got {len(parts)}")
            rows.append(list(map(float, parts[1:])))
        except ValueError as exc:
            _rows_in_range(rows, linenos)
            raise ParseError(str(exc), line=lineno) from None
        example_ids.append(parts[0])
        linenos.append(lineno)
    values = _rows_in_range(rows, linenos).reshape(
        len(example_ids), len(header))
    return ScoreMatrix(example_ids, list(header), values, comments=comments)


def fit_fscore_grid(train_scores, train_labels, grid):
    """Per class, the first grid value (ascending) with the highest F of
    "predict iff score > t", one full-matrix pass per grid value."""
    grid = np.sort(np.asarray(grid, dtype=np.float64))
    ids = list(train_scores.class_ids)
    s = train_scores.values
    pos = train_labels.values > 0.5
    best_f = np.full(s.shape[1], -1.0)
    out = np.empty(s.shape[1])
    for t in grid:
        f = _class_metrics(ids, s > t, pos).f_score
        better = f > best_f
        best_f[better] = f[better]
        out[better] = t
    out[~pos.any(axis=0)] = grid[-1]
    return ThresholdVector(ids, out, "fscore")


def fit_percentile_loop(train_scores, train_labels, k):
    """Per class in turn, the nearest-rank k-th percentile of its sorted
    positive scores; a class without positives warns and gets 0.5."""
    s = train_scores.values
    pos = train_labels.values > 0.5
    out = np.empty(s.shape[1])
    for j in range(s.shape[1]):
        vals = np.sort(s[pos[:, j], j])
        if vals.size == 0:
            warnings.warn(
                f"class {train_scores.class_ids[j]!r} has no positive "
                "training examples; threshold falls back to 0.5",
                NoPositivesWarning, stacklevel=2)
            out[j] = 0.5
            continue
        rank = max(1, int(np.ceil(k / 100.0 * vals.size)))
        out[j] = vals[rank - 1]
    return ThresholdVector(list(train_scores.class_ids), out, "percentile")


def _kept_id(name):
    """Whether a line that starts with `name` is kept by the TSV readers
    and `name` is one whole field of it."""
    if not isinstance(name, str):
        return False
    text = name.lstrip()
    return (text != "" and text[0] not in "#\ufeff"
            and not any(ch in name for ch in "\t\n\r")
            and not any("\ud800" <= ch <= "\udfff" for ch in name))


def build_by_name(edges, dedup=False):
    """What `build_dag(edges, dedup)` and `compute_levels` give, or raise,
    as a namespace: nodes, edges, root, synthetic, order (Kahn's,
    first in first out), children and parents (name -> tuple), dist and
    levels."""
    edges = list(edges)
    if not edges:
        raise EmptyGraphError("edge list is empty")
    seen = set()
    clean = []
    for k, (p, c) in enumerate(edges):
        if not (_kept_id(p) and _kept_id(c)):
            raise DagError(
                f"edge #{k + 1}: identifiers must be non-blank strings "
                "with no tab, line break or lone surrogate, not "
                "starting with '#' or U+FEFF after any leading blanks")
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
    children = {n: [] for n in nodes}
    parents = {n: [] for n in nodes}
    for p, c in edges:
        children[p].append(c)
        parents[c].append(p)
    children = {n: tuple(v) for n, v in children.items()}
    parents = {n: tuple(v) for n, v in parents.items()}
    indeg = {n: len(v) for n, v in parents.items()}
    order = [n for n in nodes if not indeg[n]]
    for n in order:
        for c in children[n]:
            indeg[c] -= 1
            if not indeg[c]:
                order.append(c)
    if len(order) < len(nodes):
        done = set(order)
        node = next(n for n in nodes if n not in done)
        path, at = [], {}
        while node not in at:
            at[node] = len(path)
            path.append(node)
            node = next(p for p in parents[node] if p not in done)
        cycle = path[at[node]:][::-1]
        raise CycleError(cycle + cycle[:1])
    dist = {}
    for n in order:
        ps = parents[n]
        dist[n] = 1 + max(dist[p] for p in ps) if ps else 0
    levels = {}
    for n in nodes:
        levels.setdefault(dist[n], []).append(n)
    return SimpleNamespace(
        nodes=tuple(nodes), edges=tuple(edges), root=root,
        synthetic=synthetic, order=tuple(order), children=children,
        parents=parents, dist=dist,
        levels={d: tuple(v) for d, v in levels.items()})


def plan_by_name(built):
    """(down, up, descendants) of the level plan of `build_by_name`'s
    result: each level's edges walked by name in edge order, each level's
    nodes walked by name, descendant maps merged through the name dicts."""
    ix = {m: i for i, m in enumerate(built.nodes)}
    n = len(built.nodes)
    max_level = max(built.levels)
    down = []
    for d in range(1, max_level + 1):
        parents, kids = [], []
        for p, c in built.edges:
            if built.dist[c] == d:
                parents.append(ix[p])
                kids.append(ix[c])
        down.append((np.array(parents, dtype=np.intp),
                     np.array(kids, dtype=np.intp)))
    up, descendants = [], []
    reach = {}
    pending = {m: len(ps) for m, ps in built.parents.items()}
    for d in range(max_level, 0, -1):
        kids, desc = [], []
        for m in built.levels[d]:
            if built.children[m]:
                kids.append((ix[m], [ix[c] for c in built.children[m]], []))
            far = {}
            for c in built.children[m]:
                far.setdefault(ix[c], 1)
                for j, dist in reach[c].items():
                    if dist + 1 > far.get(j, 0):
                        far[j] = dist + 1
                pending[c] -= 1
                if not pending[c]:
                    del reach[c]
            reach[m] = far
            if far:
                d_max = max(far.values())
                desc.append((ix[m], sorted(far),
                             [(d_max - far[j] + 1) / d_max
                              for j in sorted(far)]))
        if kids:
            up.append(_plan_entry(n, kids)[:4])
        if desc:
            descendants.append(_plan_entry(n, desc))
    return down, up, descendants


def _plan_entry(n, runs):
    """(nodes, members, starts, owners, weights) from (owner, members,
    weights) runs: each run is the sentinel n with weight 0.0, then the
    members, and each of its cells is owned by the run's rank."""
    nodes, members, starts, owners, weights = [], [], [], [], []
    for rank, (owner, kin, wts) in enumerate(runs):
        nodes.append(owner)
        starts.append(len(members))
        for member in [n, *kin]:
            members.append(member)
            owners.append(rank)
        weights += [0.0, *wts]
    return (np.array(nodes, dtype=np.intp), np.array(members, dtype=np.intp),
            np.array(starts, dtype=np.intp), np.array(owners, dtype=np.intp),
            np.array(weights))
