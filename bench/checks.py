"""Output checks of the hde benchmark, written independently of hde.

Every operation the benchmark times is checked here and counted once in a
`Tally`; an operation with any problem counts as failed.  The checks are:

* values lie in [0, 1];
* zero violations under the strict check `hde validate` applies by default:
  a child score greater than its parent's, with no tolerance;
* HTD output obeys its defining equation exactly (every seed);
* ISO output is certified as the Euclidean projection of its input by the
  KKT conditions (every seed), and its squared distance to that input equals
  the one recorded for the default seed;
* HTD and TPR output bytes equal the references recorded for the default
  seed, and repeated corrections of one input give identical bytes.

Known seed defects (`KNOWN_DEFECTS`) are counted as failures like any other,
so they show in `failed`; they only keep `correct` true, because they are
documented in README.md and not a fault of the benchmark.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.optimize import nnls

# A strict violation no larger than this is rounding error of a solver,
# reported under its own problem name; anything larger is a wrong answer.
ROUNDING_GAP = 1e-12
ROUNDING_PROBLEM = "strict violations of at most 1e-12"
# Tolerance of the projection certificate (KKT residual, tight edges).
KKT_TOL = 1e-9
OBJECTIVE_RTOL = 1e-9

# (operation kind, problem) pairs known to fail at the seed commit.
# ISO-TPR's dense NNLS solve leaves child > parent by ~1e-15 on deep DAGs.
KNOWN_DEFECTS = {("iso_row", ROUNDING_PROBLEM)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # (kind, problem) -> count
        self.examples = []  # first few failure messages

    def record(self, kind, problems):
        """Count one operation of `kind`; `problems` lists what went wrong."""
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        for p in problems:
            key = (kind, p.split(":")[0])
            self.failures[key] = self.failures.get(key, 0) + 1
            if len(self.examples) < 10:
                self.examples.append(f"{kind}: {p}")

    @property
    def unexpected(self):
        return {k: v for k, v in self.failures.items() if k not in KNOWN_DEFECTS}

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted if self.attempted else 0.0,
            "failures": {f"{k}: {p}": n for (k, p), n in self.failures.items()},
            "unexpected": sorted(f"{k}: {p}" for k, p in self.unexpected),
            "examples": self.examples,
        }


def digest(data):
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def read_edges(path):
    """(parent, child) name pairs of an edge-list TSV."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh
                if line.strip() and not line.startswith("#")]


def edge_index(edges, columns):
    """Parent and child column indices of every edge."""
    pos = {c: j for j, c in enumerate(columns)}
    pi = np.array([pos[p] for p, _ in edges], dtype=np.intp)
    ci = np.array([pos[c] for _, c in edges], dtype=np.intp)
    return pi, ci


def row_problems(values, pi, ci):
    """Range and strict-validity problems of each row of `values`."""
    values = np.atleast_2d(values)
    bad_range = ~((values >= 0.0) & (values <= 1.0)).all(axis=1)
    gap = values[:, ci] - values[:, pi]
    n_viol = (gap > 0).sum(axis=1)
    worst = gap.max(axis=1, initial=0.0)
    out = []
    for r in range(values.shape[0]):
        probs = []
        if bad_range[r]:
            probs.append("value outside [0, 1]")
        if n_viol[r]:
            name = (ROUNDING_PROBLEM if worst[r] <= ROUNDING_GAP
                    else "strict violations")
            probs.append(f"{name}: {int(n_viol[r])} edges, "
                         f"largest {worst[r]:.3g}")
        out.append(probs)
    return out


def projection_problems(z, y, pi, ci):
    """Problems with `y` as the Euclidean projection of `z` onto the
    hierarchy-consistent set {y : y[child] <= y[parent] on every edge}.

    KKT certificate, independent of hde's solver: with A holding the row
    e_child - e_parent of each edge, y is the projection iff y is feasible
    (checked by `row_problems`) and z - y = A'lam for some lam >= 0 that is
    zero on every edge not tight at y.  The projection is unique, so any
    other answer fails here.
    """
    tight = np.flatnonzero(np.abs(y[ci] - y[pi]) <= KKT_TOL)
    cols = np.arange(tight.size)
    at = np.zeros((y.size, tight.size))
    at[ci[tight], cols] = 1.0
    at[pi[tight], cols] -= 1.0
    if tight.size:
        _, residual = nnls(at, z - y)
    else:  # nnls needs a column; with none tight, z - y itself must vanish
        residual = float(np.linalg.norm(z - y))
    if residual > KKT_TOL:
        return [f"not the projection: KKT residual {residual:.3g}"]
    return []


def objective_problems(key, objective, reference):
    """The squared distance to the projection input against its reference."""
    want = reference.get(key)
    if want is None or abs(objective - want) <= OBJECTIVE_RTOL * max(1.0, want):
        return []
    return [f"objective differs: {key} {objective!r} != {want!r}"]


class HtdEquation:
    """Exact check of HTD's definition: out[c] = min(flat[c], min out[parents])."""

    def __init__(self, pi, ci, n):
        order = np.argsort(ci, kind="stable")
        self.pi = pi[order]
        children, self.starts = np.unique(ci[order], return_index=True)
        self.children = children
        self.roots = np.setdiff1d(np.arange(n), children)

    def problems(self, flat, out):
        pmin = np.minimum.reduceat(out[self.pi], self.starts)
        want = np.minimum(flat[self.children], pmin)
        probs = []
        if not np.array_equal(out[self.children], want):
            probs.append("htd equation: a node differs from min(flat, parents)")
        if not np.array_equal(out[self.roots], flat[self.roots]):
            probs.append("htd equation: root changed")
        return probs


class SameBytes:
    """Byte-identity of outputs: against recorded references, else first seen."""

    def __init__(self, reference=None):
        self.expected = dict(reference or {})

    def problems(self, key, sha):
        want = self.expected.setdefault(key, sha)
        return [] if sha == want else [f"bytes differ: {key}"]


def parse_scores_tsv(path):
    """(example ids, class ids, values) of a scores TSV; comments skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split("\t")
    if header[0] != "example":
        raise ValueError(f"{path}: bad header")
    ids, cells = [], []
    for ln in lines[1:]:
        ex, rest = ln.split("\t", 1)
        ids.append(ex)
        cells.extend(rest.split("\t"))
    values = np.array(cells, dtype=np.float64).reshape(len(ids), len(header) - 1)
    return ids, header[1:], values


def parse_thresholds(path):
    """{class: threshold} of a thresholds TSV."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.strip() and not ln.startswith("#"):
                c, v = ln.rstrip("\n").split("\t")
                out[c] = float(v)
    return out
