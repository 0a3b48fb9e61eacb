"""Hierarchical top-down correction: cap each node by its parents' corrected scores."""

from __future__ import annotations

import numpy as np

from .dag import Dag, _scores
from .errors import AlignmentError


def _check_aligned(dag: Dag, levels: Dag, flat) -> np.ndarray:
    """`flat`, an (R, n) matrix checked against the Dag and levels, in the
    kernels' float64 node-major layout: (n,) for one row, else (n, R)."""
    if levels is not dag:  # what compute_levels(dag) returns
        raise AlignmentError("levels were computed from a different Dag")
    flat = _scores(dag, flat)
    return flat[0] if len(flat) == 1 else np.ascontiguousarray(flat.T)


def _row_major(out: np.ndarray) -> np.ndarray:
    """A kernel's node-major output as a C-contiguous (R, n) matrix."""
    return out[None] if out.ndim == 1 else np.ascontiguousarray(out.T)


def htd_correct_matrix(dag: Dag, levels: Dag, flat: np.ndarray) -> np.ndarray:
    """Top-down pass over a whole examples x classes matrix.

    Visiting nodes by increasing max-distance level, each node's score
    becomes min(own flat score, min over parents of the corrected parent
    scores); the root keeps its flat score.  Max-distance levels guarantee
    every parent is final before its children are visited, so the output
    obeys ancestor >= descendant on every edge.
    """
    return _row_major(dag.topdown(_check_aligned(dag, levels, flat)))


def _row(correct_matrix, dag: Dag, levels: Dag, flat, *config):
    """`correct_matrix` applied to one 1-D score row aligned with dag.nodes."""
    return correct_matrix(dag, levels, _scores(dag, flat, row=True)[None],
                          *config)[0]


def htd_correct(dag: Dag, levels: Dag, flat) -> np.ndarray:
    """Correct a single score row (1-D array aligned with dag.nodes)."""
    return _row(htd_correct_matrix, dag, levels, flat)
