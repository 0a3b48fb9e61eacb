"""Per-node reference loops for the level-plan kernels.

These are the original node-at-a-time HTD, TPR bottom-up and TPR top-down
passes.  They visit one node per step and gather its parents, children or
descendants by name, so they are slow but plainly follow the algorithm;
`test_plan.py` requires the compiled kernels to match them bit for bit.
`positive_children` restates the bottom-up positive-set selection for one
node; `test_tpr.py` checks its membership rules.  `kkt_residual` certifies
an isotonic projection without the production solver.

`read_scores_rows` and `fit_fscore_grid` are the per-cell scores reader and
the per-grid-value F-score fit: `test_scores.py` and `test_thresholds.py`
require `read_scores` and `fit_fscore` to match them bit for bit.
"""

import numpy as np
from scipy.optimize import nnls

from hde import ScoreMatrix
from hde.dag import _records
from hde.errors import ParseError, RangeError
from hde.thresholds import ThresholdVector, _class_metrics


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
        cutoff = (config.thresholds[j] if config.positive_selection == "threshold"
                  else flat[dag.index(node)])
        if current[j] > cutoff:
            out.append(c)
    return tuple(out)


def sub_dag_distances(dag, node):
    """Longest-path distance from `node` to each of its descendants."""
    desc = set(dag.descendants(node))
    dist = {node: 0}
    for n in dag.topological_order():
        if n not in desc:
            continue
        dist[n] = 1 + max(dist[p] for p in dag.parents(n) if p in dist)
    del dist[node]
    return dist


def bottom_up_matrix(dag, levels, flat, cfg):
    out = flat.copy()
    t = cfg.thresholds
    for d in range(levels.max_level, 0, -1):
        for n in levels.levels[d]:
            i = dag.index(n)
            if cfg.descendant_mode == "children":
                members = dag.children(n)
                weights = None
            else:
                members = dag.descendants(n)
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
