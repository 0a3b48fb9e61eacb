"""Batch command line interface over TSV files.

Subcommands: correct, levels, validate, fit-thresholds, eval.  Each returns
its exit code and its output's writer, which `main` runs on -o or stdout.
Exit codes: 0 success/valid, 1 validation failure, 2 I/O or parse error
(or out of memory), 3 parameter error, 4 convergence error.  Errors go to stderr as one
machine-parsable line (`E_IO: ...`, `E_PARAM: ...`, `E_CONVERGENCE: ...`),
a warning as one `W_...` line (`W_NO_POSITIVES: ...` from a percentile fit).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import __version__
from ._tsv import _emit, _write_rows
from .dag import build_dag, compute_levels, read_edge_list
from .errors import (
    ConvergenceError,
    EmptyGridError,
    HdeError,
    NoPositivesWarning,
    WeightRangeError,
)
from .htd import htd_correct_matrix
from .iso import iso_tpr_correct_matrix
from .scores import (
    ScoreMatrix,
    _violations,
    align_to_dag,
    read_scores,
    write_scores_stream,
)
from .thresholds import (
    ThresholdVector,
    align_thresholds,
    evaluate,
    fit_fscore,
    fit_global,
    fit_percentile,
    read_thresholds,
    write_thresholds_stream,
)
from .tpr import TprConfig, tpr_correct_matrix

METHODS = ("htd", "tpr", "tpr-w", "tpr-desc-const", "tpr-desc-lin", "iso-tpr")
MAX_GRID_STEPS = 10 ** 6
# fractional digits of 2**-1074: every float64 in [0, 1] prints exactly
MAX_DIGITS = 1074


class _ParamError(HdeError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a _ParamError: one E_PARAM line, exit 3."""

    def error(self, message):
        raise _ParamError(message)


def _check_range(option, value, lo, hi):
    if not (lo <= value <= hi):  # also rejects NaN
        raise _ParamError(f"{option} must lie in [{lo}, {hi}]")
    return value


def _load_dag(args):
    edges = read_edge_list(args.dag)
    return build_dag(edges, dedup=args.dedup)


def _thresholds(args, dag) -> ThresholdVector | None:
    """The --thresholds-file or --threshold thresholds in the Dag's node
    order, or None when neither option is given."""
    if args.thresholds_file is not None:
        return align_thresholds(read_thresholds(args.thresholds_file), dag)
    if args.threshold is not None:
        return fit_global(_check_range("--threshold", args.threshold, 0, 1),
                          dag.nodes)
    return None


def _build_config(args, dag):
    if args.adaptive:
        selection, tv = "adaptive", None
    else:
        selection, tv = "threshold", _thresholds(args, dag)
        if tv is None:
            raise _ParamError("method requires --threshold, "
                              "--thresholds-file or --adaptive")
    mode = {"tpr-desc-const": "descendants-constant",
            "tpr-desc-lin": "descendants-linear"}.get(args.method, "children")
    return TprConfig(positive_selection=selection, thresholds=tv, w=args.w,
                     descendant_mode=mode)


def cmd_correct(args):
    if args.digits is not None:
        _check_range("--digits", args.digits, 0, MAX_DIGITS)
    if (args.w is not None) != (args.method == "tpr-w"):
        raise _ParamError("--w is required by, and only used by, "
                          "--method tpr-w")
    has_source = (args.threshold is not None
                  or args.thresholds_file is not None or args.adaptive)
    if has_source and args.method == "htd":
        raise _ParamError("--threshold, --thresholds-file and --adaptive are "
                          "not used by --method htd")
    dag = _load_dag(args)
    levels = compute_levels(dag)
    matrix = align_to_dag(read_scores(args.scores), dag)
    if args.method == "htd":
        corrected = htd_correct_matrix(dag, levels, matrix.values)
    else:
        correct = (iso_tpr_correct_matrix if args.method == "iso-tpr"
                   else tpr_correct_matrix)
        corrected = correct(dag, levels, matrix.values,
                            _build_config(args, dag))
    comments = list(matrix.comments)
    if dag.synthetic_root_flag:
        comments.append(f"synthetic root '{dag.root}' column included")
    comments.append(f"corrected with method={args.method}")
    out = ScoreMatrix(matrix.example_ids, matrix.class_ids,
                      np.clip(corrected, 0.0, 1.0), comments=comments)
    return 0, lambda fh: write_scores_stream(out, fh, args.digits)


def cmd_levels(args):
    dag = _load_dag(args)
    levels = compute_levels(dag)
    return 0, lambda fh: fh.write(
        "".join(f"{n}\t{levels.dist[n]}\n" for n in dag.nodes))


def cmd_validate(args):
    if not np.isfinite(args.eps):
        raise _ParamError("--eps must be finite")
    dag = _load_dag(args)
    matrix = align_to_dag(read_scores(args.scores), dag)
    lines = ["example\tparent\tchild\tparent_score\tchild_score"]
    for i, p, c, ps, cs in _violations(dag, matrix.values, args.eps):
        lines.append(f"{matrix.example_ids[i]}\t{p}\t{c}\t{ps!r}\t{cs!r}")
    return int(len(lines) > 1), lambda fh: fh.write("\n".join(lines) + "\n")


def cmd_fit_thresholds(args):
    for option, strategy in (("grid", "fscore"), ("k", "percentile")):
        if getattr(args, option) is not None and args.strategy != strategy:
            raise _ParamError(f"--{option} is only used by --strategy {strategy}")
    if args.strategy == "percentile":
        if args.k is None:
            raise _ParamError("--strategy percentile requires --k")
        _check_range("--k", args.k, 0, 100)
    grid = _parse_grid(args.grid) if args.grid else None
    dag = _load_dag(args)
    scores = align_to_dag(read_scores(args.scores), dag)
    labels = align_to_dag(read_scores(args.labels), dag)
    if args.strategy == "fscore":
        tv = fit_fscore(scores, labels, grid)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NoPositivesWarning)
            tv = fit_percentile(scores, labels, args.k)
        for w in caught:
            if w.category is NoPositivesWarning:
                print(f"W_NO_POSITIVES: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0, lambda fh: write_thresholds_stream(tv, fh)


def cmd_eval(args):
    dag = _load_dag(args)
    scores = align_to_dag(read_scores(args.scores), dag)
    labels = align_to_dag(read_scores(args.labels), dag)
    report = evaluate(dag, scores, labels, _thresholds(args, dag))
    m = report.metrics
    comments = [f"examples: {report.n_examples}",
                f"violations: {report.violation_count}",
                f"max_violation_gap: {report.max_violation_gap!r}"]
    return 0, lambda fh: _write_rows(
        fh, m.class_ids, np.column_stack([m.precision, m.recall, m.f_score]),
        comments=comments, header=["class", "P", "R", "F"])


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise _ParamError("--grid must be 'start:stop:step'") from None
    if not np.isfinite([start, stop, step]).all():
        raise _ParamError("--grid parts must be finite")
    if step <= 0 or stop < start:
        raise _ParamError("--grid must satisfy start <= stop, step > 0")
    steps = (stop - start) / step  # inf when stop - start overflows
    if steps > MAX_GRID_STEPS:
        raise _ParamError(f"--grid has more than {MAX_GRID_STEPS} steps")
    n = int(round(steps)) + 1
    grid = start + step * np.arange(n)
    grid = grid[(grid >= 0.0) & (grid <= 1.0 + 1e-12)]
    if grid.size == 0:
        raise EmptyGridError("--grid produced no candidates")
    return np.clip(grid, 0.0, 1.0)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hde",
        description="Hierarchy-consistent correction of per-class prediction "
                    "scores over a DAG taxonomy.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scores=True):
        sp.add_argument("--dag", required=True, help="edge-list TSV (parent<TAB>child)")
        sp.add_argument("--dedup", action="store_true",
                        help="silently drop duplicate edges")
        if scores:
            sp.add_argument("--scores", required=True, help="scores TSV")
        sp.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")

    sp = sub.add_parser("correct", help="correct a score matrix")
    common(sp)
    sp.add_argument("--method", required=True, choices=METHODS)
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--threshold", type=float, default=None,
                        help="single global threshold for the positive sets")
    source.add_argument("--thresholds-file", default=None,
                        help="per-class thresholds TSV")
    source.add_argument("--adaptive", action="store_true",
                        help="threshold-free positive-child selection")
    sp.add_argument("--w", type=float, default=None,
                    help="flat-score weight for --method tpr-w")
    sp.add_argument("--digits", type=int, default=None,
                    help="decimal places in the output (default: full precision)")
    sp.set_defaults(func=cmd_correct)

    sp = sub.add_parser("levels", help="max root distance of every node")
    common(sp, scores=False)
    sp.set_defaults(func=cmd_levels)

    sp = sub.add_parser("validate", help="report true-path-rule violations")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.0,
                    help="tolerance for the parent >= child comparison")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("fit-thresholds", help="fit per-class thresholds")
    common(sp)
    sp.add_argument("--labels", required=True, help="training 0/1 labels TSV")
    sp.add_argument("--strategy", required=True,
                    choices=("fscore", "percentile"))
    sp.add_argument("--k", type=float, default=None, help="percentile in [0, 100]")
    sp.add_argument("--grid", default=None,
                    help="candidate grid 'start:stop:step' for --strategy fscore")
    sp.set_defaults(func=cmd_fit_thresholds)

    sp = sub.add_parser("eval", help="per-class precision/recall/F at thresholds")
    common(sp)
    sp.add_argument("--labels", required=True, help="0/1 labels TSV")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--threshold", type=float, default=None)
    source.add_argument("--thresholds-file", default=None)
    sp.set_defaults(func=cmd_eval)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, write = args.func(args)
        if args.output in (None, "-"):
            write(sys.stdout)
        else:
            _emit(args.output, write)
        return code
    except (_ParamError, WeightRangeError, EmptyGridError) as exc:
        print(f"E_PARAM: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"E_CONVERGENCE: {exc}", file=sys.stderr)
        return 4
    except (HdeError, OSError, UnicodeEncodeError) as exc:
        print(f"E_IO: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("E_IO: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
