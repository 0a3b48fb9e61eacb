"""Score matrices, discrete labelings, validity checks and TSV round-tripping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tsv import _emit, _parse_cells, _records, _write_rows
from .dag import Dag, _scores
from .errors import (
    AlignmentError,
    MissingClassError,
    ParseError,
    check_unit_interval,
)


@dataclass
class ScoreMatrix:
    """Dense examples x classes matrix of scores in [0, 1].

    Rows are examples, columns are classes.  For hierarchy operations the
    columns must follow the Dag node order; use :func:`align_to_dag`.
    """

    example_ids: list
    class_ids: list
    values: np.ndarray
    comments: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise AlignmentError("values must be a 2-D matrix")
        if self.values.shape != (len(self.example_ids), len(self.class_ids)):
            raise AlignmentError(
                f"shape {self.values.shape} does not match "
                f"{len(self.example_ids)} examples x {len(self.class_ids)} classes")
        if len(set(self.example_ids)) != len(self.example_ids):
            raise ParseError("duplicate example ids")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ParseError("duplicate class ids")
        check_unit_interval(self.values, "scores")

    @property
    def shape(self):
        return self.values.shape

    def __eq__(self, other):
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        return (self.example_ids == other.example_ids
                and self.class_ids == other.class_ids
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class ViolationReport:
    """Edges of one score row that break the ancestor >= descendant rule.

    Each entry is (parent, child, parent_score, child_score) with
    parent_score < child_score - eps.  Empty report <=> the row is valid.
    """

    violations: tuple
    total_count: int
    max_gap: float

    def __bool__(self):
        return self.total_count > 0


def check_valid_discrete(dag: Dag, labeling) -> bool:
    """True iff every labeled class has all its parents labeled too.

    `labeling` is a set (or iterable) of class ids.  Parent closure implies
    full ancestor closure by induction over the hierarchy.  The check is
    the continuous rule applied to the labeling's 0/1 indicator row.
    """
    x = np.zeros((1, len(dag)))
    for n in labeling:
        x[0, dag.index(n)] = 1.0  # raises UnknownNodeError
    return not _violation_mask(dag, x).any()


def check_valid_continuous(dag: Dag, row, eps: float = 0.0) -> ViolationReport:
    """Scan every edge of `dag` for child scores exceeding their parent's.

    `row` is a score vector aligned with `dag.nodes`.  An edge (p, c) is a
    violation when row[c] > row[p] + eps (eps = 0: strict comparison).
    """
    row = _scores(dag, row, row=True)
    bad = [v[1:] for v in _violations(dag, row[None], eps)]
    gaps = [cs - ps for _, _, ps, cs in bad]
    return ViolationReport(tuple(bad), len(bad), max([0.0] + gaps))


def count_violations(dag: Dag, values: np.ndarray, eps: float = 0.0) -> int:
    """Total number of violating (edge, example) pairs in a whole matrix."""
    return int(_violation_mask(dag, values, eps).sum())


def _violation_mask(dag: Dag, values: np.ndarray, eps: float = 0.0):
    """(rows, edges) mask of child > parent + eps, edges in `dag.edges`
    order: the one statement of the rule that every violation check uses.
    `values` is read by `dag._scores`, which rejects a misshapen array.  A
    non-finite eps is a ValueError: every comparison with NaN is false, so
    it would pass every row as valid."""
    values = _scores(dag, values)
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    return values[:, dag._ci] > values[:, dag._pi] + eps


def _violations(dag: Dag, values: np.ndarray, eps: float = 0.0):
    """Yield (row, parent, child, parent score, child score) for every
    violation in a 2-D score matrix, row by row, in edge order in a row."""
    pi, ci = dag._pi, dag._ci
    names = dag.nodes
    for i, bad in enumerate(_violation_mask(dag, values, eps)):
        ks = np.flatnonzero(bad)
        p, c = pi[ks], ci[ks]
        for a, b, ps, cs in zip(p.tolist(), c.tolist(), values[i, p].tolist(),
                                values[i, c].tolist()):
            yield (i, names[a], names[b], ps, cs)


def read_scores(path) -> ScoreMatrix:
    """Read a scores TSV: header `example<TAB>class...`, one row per example.

    Each score cell is a Python float() literal.  The texts of `#` comment
    lines are kept on the returned matrix.  An out-of-range value is
    reported ahead of a parse error on a later line.
    """
    comments = []
    records = _records(path, comments)
    lineno, line = next(records, (None, None))
    if line is None:
        raise ParseError(f"no header found in {path}")
    header = line.split("\t")
    if header[0] != "example" or len(header) < 2:
        raise ParseError(
            "header must start with 'example' followed by class ids",
            line=lineno)
    example_ids, values = _parse_cells(records, len(header) - 1)
    return ScoreMatrix(example_ids, header[1:], values, comments=comments)


def write_scores_stream(matrix: ScoreMatrix, fh, digits: int | None = None) -> None:
    """Write a scores TSV to an open text stream.  A cell is Python's
    shortest round-trip repr, or `{:.Kf}` for digits=K, and -0.0 stays
    -0.0; the bytes do not depend on how the writer batches cells.  A
    table that would not read back (see README) is an HdeError, raised
    before anything is written."""
    _write_rows(fh, matrix.example_ids, matrix.values, digits,
                matrix.comments, ["example", *matrix.class_ids])


def write_scores(matrix: ScoreMatrix, path, digits: int | None = None) -> None:
    """Write a scores TSV; `digits=None` keeps full round-trip precision.
    A refused table leaves the file as it was."""
    _emit(path, lambda fh: write_scores_stream(matrix, fh, digits))


def align_to_dag(matrix: ScoreMatrix, dag: Dag) -> ScoreMatrix:
    """Reorder columns to the Dag node order, imputing a missing root as 1.0.

    Missing non-root classes raise MissingClassError; columns that are not
    taxonomy nodes raise AlignmentError.
    """
    idx = _node_columns(matrix.class_ids, dag, "columns",
                        "scores lack class columns")
    values = matrix.values[:, idx]
    comments = list(matrix.comments)
    imputed = idx < 0
    if imputed.any():
        values[:, imputed] = 1.0
        comments.append(f"root column '{dag.root}' imputed as 1.0")
    return ScoreMatrix(list(matrix.example_ids), list(dag.nodes), values,
                       comments=comments)


def _node_columns(class_ids, dag: Dag, extra_what, missing_what) -> np.ndarray:
    """Position in `class_ids` of each node of `dag`, -1 for a missing root;
    extra classes raise AlignmentError, missing non-root nodes
    MissingClassError, each message led by the caller's wording."""
    extra = [c for c in class_ids if c not in dag]
    if extra:
        raise AlignmentError(f"{extra_what} not in the taxonomy: {extra}")
    have = {c: j for j, c in enumerate(class_ids)}
    missing = [n for n in dag.nodes if n not in have and n != dag.root]
    if missing:
        raise MissingClassError(f"{missing_what}: {missing}")
    return np.fromiter((have.get(n, -1) for n in dag.nodes), dtype=np.intp,
                       count=len(dag))
