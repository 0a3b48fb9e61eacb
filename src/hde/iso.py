"""Isotonic variant: bottom-up positive propagation, then least-squares
projection onto the set of hierarchy-consistent score vectors.

The feasible set is the polyhedron {y : y_parent >= y_child on every edge}.
Projection onto it is the unique vector closest (in squared error) to the
input that obeys the true path rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import Dag, LevelMap, edge_index_arrays
from .errors import AlignmentError, ConvergenceError
from .htd import _check_aligned
from .tpr import TprConfig, _bottom_up_matrix


@dataclass(frozen=True)
class IsoSolution:
    """Result of one projection.

    `objective` is the squared distance to the projection input;
    `residual` the worst edge violation before [0, 1] clamping;
    `iterations` the number of solves (1, or 0 for an edgeless taxonomy).
    """

    values: np.ndarray
    objective: float
    iterations: int
    residual: float


def isotonic_project(dag: Dag, z) -> IsoSolution:
    """Euclidean projection of a score row onto the hierarchy-consistent set.

    Exact active-set solve via the dual: with A holding one row
    e_child - e_parent per edge, the projection of z onto {y : Ay <= 0} is
    y = z - A'lam where lam >= 0 minimizes ||A'lam - z||, a plain
    non-negative least-squares problem.  NNLS running out of iterations
    (scipy raises RuntimeError) is reported as ConvergenceError.  scipy is
    imported here, not at module level, so that no other path of the
    package pays its start-up cost.

    The solve leaves rounding-sized violations on some edges; each violating
    child is lowered to its parents' minimum until none is left (at most one
    pass per level), so the values obey the true path rule exactly.
    `objective` and `residual` describe the raw solve.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (len(dag),):
        raise AlignmentError(
            f"row has {z.shape} values for a {len(dag)}-node taxonomy")
    if not dag.edges:
        return IsoSolution(z.copy(), 0.0, 0, 0.0)
    from scipy.optimize import nnls

    pi, ci = edge_index_arrays(dag)
    n, m = len(dag), len(dag.edges)
    at = np.zeros((n, m))
    at[ci, np.arange(m)] = 1.0
    at[pi, np.arange(m)] -= 1.0
    try:
        lam, _ = nnls(at, z)
    except RuntimeError as exc:
        raise ConvergenceError(f"isotonic projection: {exc}") from None
    y = z - at @ lam
    residual = float(max(0.0, (y[ci] - y[pi]).max()))
    objective = float(((z - y) ** 2).sum())
    y = np.clip(y, 0.0, 1.0)
    bad = np.flatnonzero(y[ci] > y[pi])
    while bad.size:
        np.minimum.at(y, ci[bad], y[pi[bad]])
        bad = np.flatnonzero(y[ci] > y[pi])
    return IsoSolution(y, objective, 1, residual)


def iso_tpr_correct(dag: Dag, levels: LevelMap, flat,
                    config: TprConfig | None,
                    on_flat: bool = False) -> np.ndarray:
    """Bottom-up TPR pass, then isotonic projection of the result.

    With `on_flat` the projection input is the flat row itself instead of
    the bottom-up output (the two readings of the algorithm's final step);
    `config` is then unused.
    """
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise AlignmentError("expected a 1-D score row")
    return iso_tpr_correct_matrix(dag, levels, flat[None, :], config,
                                  on_flat=on_flat)[0]


def iso_tpr_correct_matrix(dag: Dag, levels: LevelMap, flat: np.ndarray,
                           config: TprConfig | None,
                           on_flat: bool = False) -> np.ndarray:
    flat = np.atleast_2d(np.asarray(flat, dtype=np.float64))
    _check_aligned(dag, levels, flat)
    base = flat if on_flat else _bottom_up_matrix(dag, levels, flat, config)
    out = np.empty_like(base)
    for r in range(base.shape[0]):
        out[r] = isotonic_project(dag, base[r]).values
    return out
