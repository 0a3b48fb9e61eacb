"""Per-class threshold fitting and evaluation metrics.

Three fitting strategies: a single global value, per-class F-score
maximization over a grid, and a percentile of the positive-example score
distribution.  A class is predicted positive when its score strictly
exceeds its threshold, everywhere in this package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dag import Dag, _records, edge_index_arrays
from .errors import (
    AlignmentError,
    EmptyGridError,
    NoPositivesWarning,
    ParseError,
    RangeError,
    check_unit_interval,
)
from .scores import (
    ScoreMatrix,
    _check_rows_in_range,
    _node_columns,
    _parse_cells,
    _violation_mask,
)

DEFAULT_GRID = np.round(np.arange(0.01, 1.00, 0.01), 2)
_FIT_BLOCK_CELLS = 1 << 16  # score cells per block in fit_fscore


@dataclass
class ThresholdVector:
    """Per-class thresholds aligned with the taxonomy node order."""

    class_ids: list
    values: np.ndarray
    strategy_tag: str = "global"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.class_ids),):
            raise AlignmentError("one threshold per class required")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ParseError("duplicate class ids")
        check_unit_interval(self.values, "thresholds")


@dataclass
class ClassMetrics:
    """Per-class confusion counts and P/R/F at fixed thresholds."""

    class_ids: list
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray
    precision: np.ndarray = field(init=False)
    recall: np.ndarray = field(init=False)
    f_score: np.ndarray = field(init=False)

    def __post_init__(self):
        self.precision, self.recall, self.f_score = _prf(self.tp, self.fp,
                                                         self.fn)


@dataclass
class EvalReport:
    metrics: ClassMetrics
    n_examples: int
    violation_count: int
    max_violation_gap: float


def _class_metrics(class_ids, pred, pos) -> ClassMetrics:
    """Per-column confusion counts of boolean prediction and label matrices."""
    return ClassMetrics(class_ids, (pred & pos).sum(axis=0),
                        (pred & ~pos).sum(axis=0), (~pred & ~pos).sum(axis=0),
                        (~pred & pos).sum(axis=0))


def _prf(tp, fp, fn):
    """Precision, recall and F from confusion counts, elementwise."""
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return precision, recall, _safe_div(2 * precision * recall,
                                        precision + recall)


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def fit_global(t_bar: float, class_ids) -> ThresholdVector:
    """Same threshold for every class."""
    if not (0.0 <= t_bar <= 1.0):
        raise RangeError(f"threshold must lie in [0, 1], got {t_bar}")
    class_ids = list(class_ids)
    return ThresholdVector(class_ids, np.full(len(class_ids), t_bar), "global")


def _first_best(grid, s, pos):
    """Per column of `s`, the smallest value of the sorted `grid` with the
    highest F of "predict iff score > t" against the labels `pos`."""
    rows, cols = s.shape
    # A cell is predicted at grid[g] iff g < k, so a class's F only changes
    # where g passes one of its distinct k.  Sorting 2k + label per column
    # puts each class's cells in k order; at the last cell of a tie group
    # with value k, the cells after it are the ones predicted at grid[k].
    # A zero row in front stands for g = 0 with every cell predicted.  The
    # last row predicts nothing, so its F of 0 never beats an earlier row,
    # even where its k is len(grid).
    q = np.zeros((rows + 1, cols), dtype=np.intp)
    q[1:] = np.searchsorted(grid, s, side="left")
    q[1:] *= 2
    q[1:] += pos
    q[1:].sort(axis=0)
    ks = q >> 1
    npos = np.cumsum(q & 1, axis=0)
    tp = npos[-1] - npos
    fp = np.arange(rows, -1, -1)[:, None] - tp
    f = _prf(tp, fp, npos)[2]
    f[:-1][ks[1:] == ks[:-1]] = -1.0  # not the last cell of its tie group
    # argmax keeps the first maximum: the smallest grid value, as a scan
    # over the grid with a strict "better" test would
    return grid[ks[f.argmax(axis=0), np.arange(cols)]]


def fit_fscore(train_scores: ScoreMatrix, train_labels: ScoreMatrix,
               grid=None) -> ThresholdVector:
    """Per class, the smallest grid value maximizing training F-score.

    F is evaluated for the rule "predict iff score > t".  Classes without
    positive examples get max(grid), which keeps them out of the positive
    sets downstream.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise EmptyGridError("candidate threshold grid is empty")
    check_unit_interval(grid, "grid values")
    _check_pair(train_scores, train_labels)
    grid = np.sort(grid)

    s = train_scores.values
    pos = train_labels.values > 0.5
    # a block of columns at a time bounds the per-cell temporaries
    step = max(1, _FIT_BLOCK_CELLS // (s.shape[0] + 1))
    out = np.empty(s.shape[1])
    for j in range(0, s.shape[1], step):
        out[j:j + step] = _first_best(grid, s[:, j:j + step],
                                      pos[:, j:j + step])
    out[~pos.any(axis=0)] = grid[-1]
    return ThresholdVector(list(train_scores.class_ids), out, "fscore")


def fit_percentile(train_scores: ScoreMatrix, train_labels: ScoreMatrix,
                   k: float) -> ThresholdVector:
    """Per class, the k-th percentile of the positive examples' scores.

    Nearest-rank convention: the value at 1-based index ceil(k/100 * m) of
    the sorted m positive scores, with k = 0 mapped to the minimum.
    Classes with no positives fall back to 0.5 with a warning.
    """
    if not (0.0 <= k <= 100.0):
        raise RangeError(f"percentile must lie in [0, 100], got {k}")
    _check_pair(train_scores, train_labels)
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


def evaluate(dag: Dag, scores: ScoreMatrix, labels: ScoreMatrix,
             thresholds: ThresholdVector) -> EvalReport:
    """Per-class precision/recall/F at the given thresholds, plus the
    dataset's true-path-rule violation statistics."""
    _check_pair(scores, labels)
    if thresholds.class_ids != scores.class_ids:
        raise AlignmentError("thresholds not aligned with the score columns")
    if scores.class_ids != list(dag.nodes):
        raise AlignmentError("score columns not aligned with the taxonomy")

    metrics = _class_metrics(list(scores.class_ids),
                             scores.values > thresholds.values,
                             labels.values > 0.5)

    v = scores.values
    pi, ci = edge_index_arrays(dag)
    gaps = (v[:, ci] - v[:, pi])[_violation_mask(dag, v)]
    return EvalReport(metrics, v.shape[0], gaps.size,
                      float(gaps.max(initial=0.0)))


def _check_pair(scores: ScoreMatrix, labels: ScoreMatrix):
    if scores.class_ids != labels.class_ids:
        raise AlignmentError("scores and labels have different class columns")
    if scores.example_ids != labels.example_ids:
        raise AlignmentError("scores and labels have different example ids")
    v = labels.values
    if v.size and not np.isin(v, (0.0, 1.0)).all():
        raise RangeError("labels must be 0/1")


def read_thresholds(path) -> ThresholdVector:
    """Read a `class<TAB>threshold` TSV, its cells parsed as a scores
    file's are: an out-of-range value is reported ahead of a parse error
    on a later line."""
    linenos, lines = [], []
    for lineno, line in _records(path):
        linenos.append(lineno)
        lines.append(line)
    if not lines:
        raise ParseError(f"no thresholds found in {path}")
    values = _parse_cells(lines, linenos, 1)
    _check_rows_in_range(values, linenos)
    ids = [line.split("\t", 1)[0] for line in lines]
    return ThresholdVector(ids, values.ravel(), "file")


def write_thresholds_stream(tv: ThresholdVector, fh) -> None:
    fh.write(f"# strategy: {tv.strategy_tag}\n")
    for c, v in zip(tv.class_ids, tv.values):
        fh.write(f"{c}\t{repr(float(v))}\n")


def write_thresholds(tv: ThresholdVector, path) -> None:
    """Write a `class<TAB>threshold` TSV headed by the strategy tag."""
    with open(path, "w", encoding="utf-8") as fh:
        write_thresholds_stream(tv, fh)


def align_thresholds(tv: ThresholdVector, dag: Dag) -> ThresholdVector:
    """Reorder a threshold vector to the Dag node order (root defaults to 1.0)."""
    idx = _node_columns(tv.class_ids, dag, "threshold classes",
                        "thresholds lack classes")
    vals = np.where(idx < 0, 1.0, tv.values[idx])
    return ThresholdVector(list(dag.nodes), vals, tv.strategy_tag)
