"""Score matrices, discrete labelings, validity checks and TSV round-tripping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dag import Dag, _readable, _records, edge_index_arrays
from .errors import (
    AlignmentError,
    HdeError,
    MissingClassError,
    ParseError,
    RangeError,
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
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (len(dag),):
        raise AlignmentError(
            f"row has {row.shape} values for a {len(dag)}-node taxonomy")
    bad = [v[1:] for v in _violations(dag, row[None], eps)]
    gaps = [cs - ps for _, _, ps, cs in bad]
    return ViolationReport(tuple(bad), len(bad), max([0.0] + gaps))


def count_violations(dag: Dag, values: np.ndarray, eps: float = 0.0) -> int:
    """Total number of violating (edge, example) pairs in a whole matrix."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return int(_violation_mask(dag, values, eps).sum())


def _violation_mask(dag: Dag, values: np.ndarray, eps: float = 0.0):
    """(rows, edges) mask of child > parent + eps, edges in `dag.edges`
    order: the one statement of the rule that every violation check uses.
    A non-finite eps is a ValueError: every comparison with NaN is false,
    so it would pass every row as valid."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    pi, ci = edge_index_arrays(dag)
    return values[:, ci] > values[:, pi] + eps


def _violations(dag: Dag, values: np.ndarray, eps: float = 0.0):
    """Yield (row, parent, child, parent score, child score) for every
    violation in a 2-D score matrix, row by row, in edge order in a row."""
    pi, ci = edge_index_arrays(dag)
    names = dag.nodes
    for i, bad in enumerate(_violation_mask(dag, values, eps)):
        ks = np.flatnonzero(bad)
        p, c = pi[ks], ci[ks]
        for a, b, ps, cs in zip(p.tolist(), c.tolist(), values[i, p].tolist(),
                                values[i, c].tolist()):
            yield (i, names[a], names[b], ps, cs)


def _check_rows_in_range(values: np.ndarray, linenos) -> None:
    """RangeError naming the first bad cell of a 2-D array, if it has one.

    The cell is the first out-of-[0, 1] (or NaN) value in file order, given
    with the line number of its row and the repr of the value as a float.
    """
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise RangeError(
            f"line {linenos[r]}: value {float(values[r, c])!r} outside [0, 1]")


# Unicode whitespace that np.loadtxt strips around a number and float()
# refuses; every other cell text parses the same way in both, or fails
# in loadtxt and so reaches the float() loop.
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _parse_cells(lines, linenos, width) -> np.ndarray:
    """The cells after the first column of each line, as float() reads them:
    (len(lines), width).  ParseError names the first line with the wrong
    column count or a cell that is not a float literal; an out-of-range
    value on an earlier line is a RangeError first."""
    if lines and all(line.count("\t") == width
                     and not any(c in line for c in _LOADTXT_ONLY_SPACE)
                     for line in lines):
        try:
            return np.loadtxt(lines, delimiter="\t",
                              usecols=range(1, width + 1), comments=None,
                              dtype=np.float64, ndmin=2)
        except ValueError:
            pass  # the loop below names the line, as float() words it
    rows = []
    for lineno, line in zip(linenos, lines):
        parts = line.split("\t")
        try:
            if len(parts) != width + 1:
                raise ValueError(
                    f"expected {width + 1} columns, got {len(parts)}")
            rows.append(list(map(float, parts[1:])))
        except ValueError as exc:
            _check_rows_in_range(
                np.array(rows, dtype=np.float64).reshape(-1, width), linenos)
            raise ParseError(str(exc), line=lineno) from None
    return np.array(rows, dtype=np.float64).reshape(len(lines), width)


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
    parts = line.split("\t")
    if parts[0] != "example" or len(parts) < 2:
        raise ParseError(
            "header must start with 'example' followed by class ids",
            line=lineno)
    header = parts[1:]
    linenos, lines = [], []
    for lineno, line in records:
        linenos.append(lineno)
        lines.append(line)
    values = _parse_cells(lines, linenos, len(header))
    _check_rows_in_range(values, linenos)
    example_ids = [line.split("\t", 1)[0] for line in lines]
    return ScoreMatrix(example_ids, header, values, comments=comments)


def _write_rows(fh, labels, values, digits: int | None = None,
                head: str = "") -> None:
    """`head`, then one `label<TAB>cell...` line per row of a 2-D float
    array.  A label (as str) that would not read back as its row's first
    field (see `dag._readable`) is an HdeError naming the first such label,
    raised before anything is written.  In each block of about 4096 cells,
    each distinct float64 bit pattern (so -0.0 apart from 0.0) is formatted
    once."""
    names = list(map(str, labels))
    if not _readable(names):
        bad = next(t for t in names if not _readable([t]))
        raise HdeError(f"row label {bad!r} would not read back: it starts "
                       "with '#' after any leading blanks or holds a tab or "
                       "line break")
    fh.write(head)
    fmt = repr if digits is None else f"{{:.{digits}f}}".format
    step = max(1, 4096 // max(values.shape[1], 1))
    for i in range(0, len(values), step):
        block = np.ascontiguousarray(values[i:i + step], dtype=np.float64)
        bits, inv = np.unique(block.view(np.int64), return_inverse=True)
        texts = np.fromiter(map(fmt, bits.view(np.float64).tolist()), object)
        rows = texts[inv].reshape(block.shape).tolist()
        fh.write("".join([f"{lab}\t" + "\t".join(cells) + "\n"
                          for lab, cells in zip(names[i:i + step], rows)]))


def write_scores_stream(matrix: ScoreMatrix, fh, digits: int | None = None) -> None:
    """Write a scores TSV to an open text stream.  A cell is Python's
    shortest round-trip repr, or `{:.Kf}` for digits=K, and -0.0 stays
    -0.0; the bytes do not depend on how the writer batches cells."""
    head = "".join(f"# {c}\n" for c in matrix.comments)
    head += "example\t" + "\t".join(matrix.class_ids) + "\n"
    _write_rows(fh, matrix.example_ids, matrix.values, digits, head)


def write_scores(matrix: ScoreMatrix, path, digits: int | None = None) -> None:
    """Write a scores TSV; `digits=None` keeps full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        write_scores_stream(matrix, fh, digits)


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
