"""Hierarchy-consistent correction of flat per-class prediction scores.

Given a DAG-structured class taxonomy and an examples x classes matrix of
scores in [0, 1], the correction algorithms here return the closest-in-spirit
score matrices that obey the true path rule (every parent score >= every
child score): a top-down capping pass (HTD), bottom-up positive propagation
followed by a top-down pass (TPR and its weighted/descendant variants), and
bottom-up propagation followed by isotonic projection (ISO-TPR).
"""

__version__ = "0.1.0"

from .dag import (
    SYNTHETIC_ROOT,
    Dag,
    build_dag,
    compute_levels,
    read_edge_list,
    write_edge_list,
)
from .errors import (
    AlignmentError,
    ConvergenceError,
    CycleError,
    DagError,
    DuplicateEdgeError,
    EmptyGraphError,
    EmptyGridError,
    HdeError,
    MissingClassError,
    NoPositivesWarning,
    ParseError,
    RangeError,
    SelfLoopError,
    UnknownNodeError,
    WeightRangeError,
)
from .htd import htd_correct, htd_correct_matrix
from .iso import IsoSolution, iso_tpr_correct, iso_tpr_correct_matrix, isotonic_project
from .scores import (
    ScoreMatrix,
    ViolationReport,
    align_to_dag,
    check_valid_continuous,
    check_valid_discrete,
    count_violations,
    read_scores,
    write_scores,
)
from .thresholds import (
    ClassMetrics,
    EvalReport,
    ThresholdVector,
    align_thresholds,
    evaluate,
    fit_fscore,
    fit_global,
    fit_percentile,
    read_thresholds,
    write_thresholds,
)
from .tpr import TprConfig, tpr_correct, tpr_correct_matrix
