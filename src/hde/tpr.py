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

    One gather per block of same-level nodes with the same summation width
    (children or descendants, per the level plan): (nb, w) for one row,
    (nb, w, R) for R rows, summed over the members' axis 1.  Member rows
    are padded with index n: row n of the working copy holds -inf, which
    no comparison admits into a positive set, so a pad adds only zeros
    after the node's own terms and each node's sums keep their bits.
    """
    t = None
    if cfg.thresholds is not None:
        t = _values(cfg.thresholds)
        ids = getattr(cfg.thresholds, "class_ids", dag.nodes)
        if t.shape != (len(dag),) or tuple(ids) != dag.nodes:
            raise AlignmentError(
                "threshold vector not aligned with the taxonomy")
        t = np.append(t, 0.0)
    up = (levels.up if cfg.descendant_mode == "children"
          else levels.descendants)
    linear = cfg.descendant_mode == "descendants-linear"
    per_node = (..., *[None] * (flat.ndim - 1))  # broadcast over rows
    out = np.concatenate([flat, np.full((1, *flat.shape[1:]), -np.inf)])
    for ni, midx, weights in up:
        vals = out[midx]  # nodes x members (x rows)
        own = flat[ni]
        if cfg.positive_selection == "threshold":
            mask = vals > t[midx][per_node]
        else:
            mask = vals > own[:, None]
        if not linear:
            wsum = mask.sum(axis=1)
            vsum = np.where(mask, vals, 0.0).sum(axis=1)
        else:
            weights = weights[per_node]
            wsum = (mask * weights).sum(axis=1)
            vsum = (np.where(mask, vals, 0.0) * weights).sum(axis=1)
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
