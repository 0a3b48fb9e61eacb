"""True-path-rule correction: bottom-up positive propagation, then a top-down pass.

Phase B walks the levels from the deepest up to 1 and blends each node's
flat score with the already-final scores of its "positive" children (or
descendants, in the descendant variants).  Phase C re-establishes
hierarchy consistency with the same top-down sweep HTD uses, applied to
the phase-B values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import Dag
from .errors import AlignmentError, WeightRangeError, check_unit_interval
from .htd import _check_aligned, _row, _row_major

POSITIVE_SELECTIONS = ("threshold", "adaptive")
DESCENDANT_MODES = ("children", "descendants-constant", "descendants-linear")


@dataclass
class TprConfig:
    """Knobs of the bottom-up phase.

    positive_selection "threshold" admits a child j into the positive set
    when its corrected score strictly exceeds t_j; "adaptive" compares it
    against the parent's flat score instead and needs no thresholds.
    `w`, when set, blends flat score and positive-children mean with weight
    w on the flat side.  descendant modes pool all positive descendants,
    with equal weight ("descendants-constant") or weights decaying linearly
    in the node-to-descendant distance ("descendants-linear").
    `thresholds` is kept as given.  A ThresholdVector must list the Dag's
    nodes in order (the passes check its class ids each time); a plain
    array is read by position.
    """

    positive_selection: str = "threshold"
    thresholds: np.ndarray | None = None
    w: float | None = None
    descendant_mode: str = "children"

    def __post_init__(self):
        if self.positive_selection not in POSITIVE_SELECTIONS:
            raise ValueError(f"positive_selection must be one of "
                             f"{POSITIVE_SELECTIONS}")
        if self.descendant_mode not in DESCENDANT_MODES:
            raise ValueError(f"descendant_mode must be one of {DESCENDANT_MODES}")
        if self.thresholds is not None:
            check_unit_interval(_values(self.thresholds), "thresholds")
        if self.w is not None and not (0.0 <= self.w <= 1.0):
            raise WeightRangeError(f"w must lie in [0, 1], got {self.w}")
        if self.positive_selection == "threshold" and self.thresholds is None:
            raise ValueError("threshold selection requires a threshold vector")


def _values(thresholds) -> np.ndarray:
    """A ThresholdVector's values, or a plain array, as float64."""
    return np.asarray(getattr(thresholds, "values", thresholds),
                      dtype=np.float64)


def _bottom_up(dag: Dag, levels: Dag, flat: np.ndarray,
               cfg: TprConfig) -> np.ndarray:
    """Phase B on node-major scores; root values are left untouched.

    Per level of the plan (children or descendants), deepest first: one
    gather of every run's cells, `(cells,)` for one row and `(cells, R)`
    for R rows, one compare, one multiply by the mask, and two sums per
    run, of its positives' weights (1 each, or the linear decay) and of
    their values.  R rows add both with `np.bincount` over each cell's
    owner * R + column, which adds every run's cells in order.  One row
    counts with `np.bincount` over the owners, exact in any order, and
    keeps `np.add.reduceat` from the run starts for the value sums and
    linear weights, whose bits depend on the order: it adds a run led by
    0.0 as `run.sum()` does.  `test_plan.py` pins these numpy rules.  A
    run starts with the sentinel slot, index n: row n of the working copy
    holds 0.0 and the mask is cleared at every run start, so whatever the
    owner's score the slot is in no positive set and adds one leading 0.0
    to each sum.  What a level needs depends only on `cfg` and the number
    of rows, so that is decided once, before the loop.
    """
    t = None
    if cfg.thresholds is not None:
        t = _values(cfg.thresholds)
        ids = getattr(cfg.thresholds, "class_ids", dag.nodes)
        if t.shape != (len(dag),) or tuple(ids) != dag.nodes:
            raise AlignmentError(
                "threshold vector not aligned with the taxonomy")
        t = np.append(t, 0.0)
    adaptive = cfg.positive_selection == "adaptive"
    linear = cfg.descendant_mode == "descendants-linear"
    up = (levels.up if cfg.descendant_mode == "children"
          else levels.descendants)
    many = flat.ndim == 2
    if many:
        R = flat.shape[1]
        cols = np.arange(R)
    out = np.concatenate([flat, np.zeros((1, *flat.shape[1:]))])
    for ni, midx, starts, owner, *weights in up:
        if many:
            vals, own = out.take(midx, axis=0), flat.take(ni, axis=0)
            mask = vals > (own.take(owner, axis=0) if adaptive
                           else t[midx][:, None])
        else:
            vals, own = out[midx], flat[ni]
            mask = vals > (own[owner] if adaptive else t[midx])
        mask[starts] = False  # the sentinel, whatever the owner's score
        if linear:
            mask = mask * (weights[0][:, None] if many else weights[0])
        vals *= mask  # each cell's share of its owner's value sum
        if many:
            cells = ((owner * R)[:, None] + cols).ravel()
            wsum, vsum = (np.bincount(cells, x.ravel(), len(ni) * R)
                          .reshape(len(ni), R) for x in (mask, vals))
        else:
            wsum = (np.add.reduceat(mask, starts) if linear
                    else np.bincount(owner, mask, len(ni)))
            vsum = np.add.reduceat(vals, starts)
        if cfg.w is None:
            out[ni] = (own + vsum) / (1.0 + wsum)
        else:
            # empty positive set: the children term vanishes entirely
            safe = np.where(wsum > 0, wsum, 1.0)
            out[ni] = np.where(
                wsum > 0, cfg.w * own + (1.0 - cfg.w) * vsum / safe, own)
    return out[:-1]


def _bottom_up_matrix(dag: Dag, levels: Dag, flat: np.ndarray,
                      config: TprConfig) -> np.ndarray:
    """Phase B of an (R, n) score matrix, as an (R, n) matrix."""
    return _row_major(_bottom_up(dag, levels, _check_aligned(dag, levels, flat),
                                 config))


def tpr_correct_matrix(dag: Dag, levels: Dag, flat: np.ndarray,
                       config: TprConfig) -> np.ndarray:
    """Full TPR correction (any variant, per `config`) of a score matrix.

    Phase C is the HTD sweep applied to the phase-B values.
    """
    flat = _check_aligned(dag, levels, flat)
    return _row_major(levels.topdown(_bottom_up(dag, levels, flat, config)))


def tpr_correct(dag: Dag, levels: Dag, flat, config: TprConfig) -> np.ndarray:
    """Full TPR correction (any variant, per `config`) of one score row."""
    return _row(tpr_correct_matrix, dag, levels, flat, config)
