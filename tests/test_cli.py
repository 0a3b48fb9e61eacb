import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dag
from hde import (
    ScoreMatrix,
    build_dag,
    isotonic_project,
    read_scores,
    read_thresholds,
    write_edge_list,
    write_scores,
)
from hde.cli import (MAX_GRID_STEPS, _ParamError, _parse_grid, build_parser,
                     main)

DIAMOND = "r\ta\nr\tb\na\tc\nb\tc\n"
SKIP = "r\ta\na\tc\nr\tc\n"
DIAMOND_SCORES = "example\tr\ta\tb\tc\ne1\t0.9\t0.5\t0.7\t0.6\n"
THRESHOLDS = "r\t0.5\na\t0.5\nb\t0.5\nc\t0.5\n"
DIAMOND_LABELS = "example\tr\ta\tb\tc\ne1\t1\t0\t1\t0\n"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fx(tmp_path):
    (tmp_path / "dag.tsv").write_text(DIAMOND)
    (tmp_path / "skip.tsv").write_text(SKIP)
    (tmp_path / "scores.tsv").write_text(DIAMOND_SCORES)
    (tmp_path / "thr.tsv").write_text(THRESHOLDS)
    (tmp_path / "labels.tsv").write_text(DIAMOND_LABELS)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestCorrect:
    def test_htd_golden(self, fx):
        out = fx / "out.tsv"
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "htd", "-o", out) == 0
        m = read_scores(out)
        assert m.values[0].tolist() == [0.9, 0.5, 0.7, 0.5]

    def test_tpr_golden(self, fx):
        out = fx / "out.tsv"
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr",
                   "--threshold", "0.5", "-o", out) == 0
        m = read_scores(out)
        assert m.values[0] == pytest.approx([0.9, 0.55, 0.65, 0.55])

    def test_iso_tpr_golden(self, fx):
        out = fx / "out.tsv"
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "iso-tpr",
                   "--threshold", "0.5", "-o", out) == 0
        m = read_scores(out)
        assert m.values[0] == pytest.approx([0.9, 0.575, 0.65, 0.575],
                                            abs=1e-9)

    def test_tpr_threshold_one_byte_identical_to_htd(self, fx):
        a, b = fx / "a.tsv", fx / "b.tsv"
        run("correct", "--dag", fx / "dag.tsv", "--scores", fx / "scores.tsv",
            "--method", "htd", "-o", a)
        run("correct", "--dag", fx / "dag.tsv", "--scores", fx / "scores.tsv",
            "--method", "tpr", "--threshold", "1.0", "-o", b)
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("#")]
        assert strip(a) == strip(b)

    def test_determinism_byte_identical(self, fx):
        a, b = fx / "a.tsv", fx / "b.tsv"
        for out in (a, b):
            run("correct", "--dag", fx / "dag.tsv", "--scores",
                fx / "scores.tsv", "--method", "tpr", "--threshold", "0.5",
                "-o", out)
        assert a.read_bytes() == b.read_bytes()

    def test_correct_then_validate_is_clean(self, fx):
        out = fx / "out.tsv"
        for method, extra in (("htd", []),
                              ("tpr", ["--threshold", "0.4"]),
                              ("tpr", ["--adaptive"]),
                              ("tpr-w", ["--threshold", "0.4", "--w", "0.5"]),
                              ("tpr-desc-const", ["--threshold", "0.4"]),
                              ("tpr-desc-lin", ["--threshold", "0.4"]),
                              ("iso-tpr", ["--threshold", "0.4"])):
            assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                       fx / "scores.tsv", "--method", method, *extra,
                       "-o", out) == 0
            assert run("validate", "--dag", fx / "dag.tsv", "--scores", out,
                       "--eps", "0", "-o", fx / "report.tsv") == 0

    def test_missing_scores_file(self, fx, capsys):
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "nope.tsv", "--method", "htd")
        assert code == 2
        assert capsys.readouterr().err.startswith("E_IO:")

    def test_param_error_missing_threshold(self, fx, capsys):
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr")
        assert code == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    def test_param_error_exclusive_sources(self, fx, capsys):
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr",
                   "--threshold", "0.5", "--adaptive")
        assert code == 3

    def test_bad_w(self, fx):
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr-w",
                   "--threshold", "0.5", "--w", "2.0") == 3

    def test_digits(self, fx):
        out = fx / "out.tsv"
        run("correct", "--dag", fx / "dag.tsv", "--scores", fx / "scores.tsv",
            "--method", "htd", "--digits", "2", "-o", out)
        data_lines = [l for l in out.read_text().splitlines()
                      if not l.startswith(("#", "example"))]
        assert data_lines[0].split("\t")[1:] == ["0.90", "0.50", "0.70", "0.50"]

    def test_negative_digits_is_param_error(self, fx, capsys):
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "htd", "--digits", "-1")
        assert code == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    @pytest.mark.parametrize("digits", [1075, 2 ** 31])
    def test_too_many_digits_is_param_error(self, fx, capsys, digits):
        # rejected before any output: the header must not be written
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "htd", "--digits", digits)
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert [l.startswith("E_PARAM:") for l in err.splitlines()] == [True]

    def test_most_digits_print_every_float_exactly(self, fx, capsys):
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "htd",
                   "--digits", "1074") == 0
        row = capsys.readouterr().out.splitlines()[-1].split("\t")
        assert row[1:] == [format(v, ".1074f") for v in (0.9, 0.5, 0.7, 0.5)]

    def test_w_without_tpr_w_is_param_error(self, fx, capsys):
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "htd", "--w", "0.3")
        assert code == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    @pytest.mark.parametrize("method", [["htd"]], ids=["htd"])
    @pytest.mark.parametrize("source", [["--threshold", "0.5"],
                                        ["--thresholds-file", "thr.tsv"],
                                        ["--adaptive"]],
                             ids=["threshold", "thresholds-file", "adaptive"])
    def test_unused_threshold_source_is_param_error(self, fx, capsys, method,
                                                    source):
        source = [fx / a if a == "thr.tsv" else a for a in source]
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", *method, *source)
        assert code == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    def test_nnls_iteration_limit_is_convergence_error(self, fx, capsys,
                                                       monkeypatch):
        # no step allowed: the first violated edge exhausts the solver
        monkeypatch.setattr("hde.iso._STEPS_PER_EDGE", 0)
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "iso-tpr", "--threshold", "1")
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert [l.startswith("E_CONVERGENCE:") for l in lines] == [True]

    def test_nan_in_thresholds_file_is_io_error(self, fx, capsys):
        # like a NaN score, a NaN threshold is a bad input value
        (fx / "thr.tsv").write_text(THRESHOLDS.replace("c\t0.5", "c\tnan"))
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr",
                   "--thresholds-file", fx / "thr.tsv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_IO:") and "[0, 1]" in err

    def test_repeated_class_in_thresholds_file_is_io_error(self, fx, capsys):
        # with the repeat accepted, the last value would silently win
        (fx / "thr.tsv").write_text(THRESHOLDS + "a\t0.1\n")
        code = run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "tpr",
                   "--thresholds-file", fx / "thr.tsv")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["E_IO: duplicate class ids"]

    def test_iso_tpr_threshold_one_projects_flat_scores(self, fx):
        # no child score exceeds 1: the bottom-up pass keeps the flat row
        out = fx / "out.tsv"
        assert run("correct", "--dag", fx / "dag.tsv", "--scores",
                   fx / "scores.tsv", "--method", "iso-tpr", "--threshold",
                   "1", "-o", out) == 0
        dag = build_dag([tuple(l.split("\t")) for l in DIAMOND.splitlines()])
        expected = isotonic_project(dag, [0.9, 0.5, 0.7, 0.6]).values
        assert read_scores(out).values[0].tolist() == expected.tolist()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["correct", "--scores", "scores.tsv", "--method", "htd"],
        ["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--method", "magic"],
        ["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--method", "tpr", "--threshold", "abc"],
        ["eval", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--labels", "scores.tsv"],
        ["eval", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--labels", "scores.tsv", "--threshold", "0.9",
         "--thresholds-file", "thr.tsv"],
        ["fit-thresholds", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--labels", "labels.tsv", "--strategy", "global"],
        ["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
         "--method", "iso-tpr", "--iso-on-flat"]],
        ids=["no-command", "no-dag", "bad-method", "bad-threshold",
             "eval-no-threshold", "eval-two-thresholds",
             "fit-strategy-global", "iso-on-flat"])
    def test_usage_error_is_one_param_line(self, fx, capsys, argv):
        argv = [fx / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [l.startswith("E_PARAM:") for l in lines] == [True]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["correct", "--help"]])
    def test_help_and_version_exit_zero(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0


COMMON = {"-h", "--help", "--dag", "--dedup", "-o", "--output"}
KNOBS = {
    "": {"-h", "--help", "--version"},
    "correct": COMMON | {"--scores", "--method", "--threshold",
                        "--thresholds-file", "--adaptive", "--w", "--digits"},
    "levels": COMMON,
    "validate": COMMON | {"--scores", "--eps"},
    "fit-thresholds": COMMON | {"--scores", "--labels", "--strategy", "--k",
                               "--grid"},
    "eval": COMMON | {"--scores", "--labels", "--threshold",
                     "--thresholds-file"},
}


def test_knob_inventory():
    """Every option of every subcommand: adding or removing one is an edit
    to KNOBS."""
    def options(parser):
        return {s for a in parser._actions for s in a.option_strings}

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {"": options(parser)}
    found.update((name, options(sp)) for name, sp in sub.choices.items())
    assert found == KNOBS


class TestLevels:
    def test_skip_edge_levels(self, fx, capsys):
        assert run("levels", "--dag", fx / "skip.tsv") == 0
        out = capsys.readouterr().out
        assert "c\t2" in out.splitlines()

    def test_cycle_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\nb\ta\n")
        assert run("levels", "--dag", bad) == 2
        assert capsys.readouterr().err.startswith("E_IO:")

    def test_unencodable_stdout_is_io_error(self, tmp_path, capsys,
                                            monkeypatch):
        dag = tmp_path / "u.tsv"
        dag.write_text("r\t\u00e9\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert run("levels", "--dag", dag) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("E_IO:") and "ascii" in lines[0]


class TestValidate:
    def test_violations_reported(self, fx, capsys):
        code = run("validate", "--dag", fx / "dag.tsv",
                   "--scores", fx / "scores.tsv")
        assert code == 1
        out = capsys.readouterr().out
        assert "e1\ta\tc\t0.5\t0.6" in out

    def test_consistent_scores_exit_zero(self, fx, tmp_path):
        good = tmp_path / "good.tsv"
        good.write_text("example\tr\ta\tb\tc\ne1\t0.9\t0.8\t0.7\t0.6\n")
        assert run("validate", "--dag", fx / "dag.tsv", "--scores", good) == 0

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_listing_matches_per_edge_loop(self, tmp_path, capsys, eps):
        rng = np.random.default_rng(17)
        dag = random_dag(rng, 300, 600)
        values = rng.uniform(size=(50, len(dag)))
        ids = [f"e{i}" for i in range(50)]
        write_edge_list(dag, tmp_path / "dag.tsv")
        write_scores(ScoreMatrix(ids, list(dag.nodes), values),
                     tmp_path / "scores.tsv")
        expected = ["example\tparent\tchild\tparent_score\tchild_score"]
        for ex, row in zip(ids, values):
            for p, c in dag.edges:
                ps, cs = row[dag.index(p)], row[dag.index(c)]
                if cs > ps + eps:
                    expected.append(f"{ex}\t{p}\t{c}\t{float(ps)!r}"
                                    f"\t{float(cs)!r}")
        assert run("validate", "--dag", tmp_path / "dag.tsv", "--scores",
                   tmp_path / "scores.tsv", "--eps", eps) == 1
        assert capsys.readouterr().out.splitlines() == expected
        assert len(expected) > 10000

    def test_nan_eps_is_param_error(self, fx, capsys):
        # every comparison with NaN is false, so it would pass any matrix
        code = run("validate", "--dag", fx / "dag.tsv",
                   "--scores", fx / "scores.tsv", "--eps", "nan")
        assert code == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")


class TestFitThresholdsAndEval:
    def make_training(self, tmp_path):
        (tmp_path / "tdag.tsv").write_text("r\ta\nr\tb\n")
        (tmp_path / "tscores.tsv").write_text(
            "example\tr\ta\tb\n"
            "e1\t0.9\t0.8\t0.1\n"
            "e2\t0.8\t0.6\t0.2\n"
            "e3\t0.7\t0.4\t0.3\n"
            "e4\t0.6\t0.2\t0.4\n")
        (tmp_path / "tlabels.tsv").write_text(
            "example\tr\ta\tb\n"
            "e1\t1\t1\t0\n"
            "e2\t1\t1\t0\n"
            "e3\t1\t0\t1\n"
            "e4\t1\t0\t1\n")

    def test_percentile_k100_is_max_positive(self, tmp_path):
        self.make_training(tmp_path)
        out = tmp_path / "t.tsv"
        assert run("fit-thresholds", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--strategy", "percentile", "--k", "100", "-o", out) == 0
        tv = read_thresholds(out)
        got = dict(zip(tv.class_ids, tv.values))
        assert got["a"] == pytest.approx(0.8)
        assert got["b"] == pytest.approx(0.4)

    def test_fscore_with_grid(self, tmp_path):
        self.make_training(tmp_path)
        out = tmp_path / "t.tsv"
        assert run("fit-thresholds", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--strategy", "fscore", "--grid", "0.1:0.9:0.1",
                   "-o", out) == 0
        tv = read_thresholds(out)
        assert set(tv.class_ids) == {"r", "a", "b"}

    @pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:0.1", "nan:1:0.1"])
    def test_non_finite_grid_is_param_error(self, tmp_path, capsys, grid):
        self.make_training(tmp_path)
        assert run("fit-thresholds", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--strategy", "fscore", "--grid", grid) == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    def test_grid_step_count_is_capped(self):
        # the cap is checked before the candidates are allocated; the
        # grids here stay small even without it
        assert _parse_grid(f"0:1:{1 / MAX_GRID_STEPS}").size == MAX_GRID_STEPS + 1
        for spec in (f"0:1:{0.5 / MAX_GRID_STEPS}", "-1e308:1e308:1"):
            with pytest.raises(_ParamError):
                _parse_grid(spec)

    @pytest.mark.parametrize("argv", [
        ["fit-thresholds", "--strategy", "percentile", "--k", "-1"],
        ["eval", "--threshold", "1.5"],
        ["fit-thresholds", "--strategy", "percentile", "--k", "nan"],
        ["fit-thresholds", "--strategy", "percentile", "--k", "101"],
        ["eval", "--threshold", "nan"]])
    def test_out_of_range_value_is_param_error(self, tmp_path, capsys, argv):
        self.make_training(tmp_path)
        assert run(*argv, "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv") == 3
        assert capsys.readouterr().err.startswith("E_PARAM:")

    @pytest.mark.parametrize("strategy, extra", [
        ("percentile", ["--grid", "0.1:0.9:0.1"]),
        ("percentile", ["--k", "50", "--grid", "0.1:0.9:0.1"]),
        ("fscore", ["--t", "0.5"]), ("percentile", ["--k", "50", "--t", "0.5"]),
        ("percentile", ["--k", "101", "--grid", "0.1:0.9:0.1"]),
        ("fscore", ["--k", "50"])])
    def test_unused_option_is_param_error(self, tmp_path, capsys, strategy,
                                          extra):
        self.make_training(tmp_path)
        assert run("fit-thresholds", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--strategy", strategy, *extra) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [l.startswith("E_PARAM:") for l in lines] == [True]

    def test_missing_k(self, tmp_path):
        self.make_training(tmp_path)
        assert run("fit-thresholds", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--strategy", "percentile") == 3

    def test_eval(self, tmp_path, capsys):
        self.make_training(tmp_path)
        assert run("eval", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--threshold", "0.5") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[3] == "class\tP\tR\tF"
        # class r: every example positive and predicted => F = 1
        assert any(l.startswith("r\t1.0\t1.0\t1.0") for l in out.splitlines())

    def test_score_outside_unit_interval_is_io_error(self, tmp_path, capsys):
        # a bad value in an input file is an input error, not a parameter one
        self.make_training(tmp_path)
        (tmp_path / "tscores.tsv").write_text(
            "example\tr\ta\tb\ne1\t1.5\t0.8\t0.1\n")
        assert run("eval", "--dag", tmp_path / "tdag.tsv",
                   "--scores", tmp_path / "tscores.tsv",
                   "--labels", tmp_path / "tlabels.tsv",
                   "--threshold", "0.5") == 2
        err = capsys.readouterr().err
        assert err.startswith("E_IO:") and "[0, 1]" in err


# file bytes for the fuzzer: TSV punctuation, numbers, class ids and one
# byte that is not UTF-8
FUZZ = st.lists(st.sampled_from(
    [b"\t", b"\n", b"\r", b"#", *(b"%d" % d for d in range(10)), b".",
     b"-", b"e", b"nan", b"inf", b"r", b"a", b"b", b"c", b"example",
     b"\xff"]), max_size=30).map(b"".join)


def fuzzed(valid):
    """A valid file, a fuzzed one, or a valid one with fuzz spliced in."""
    valid = valid.encode()
    splice = st.tuples(st.integers(0, len(valid)), FUZZ)
    return st.one_of(st.just(valid), FUZZ,
                     splice.map(lambda t: valid[:t[0]] + t[1] + valid[t[0]:]))


class TestInputBoundary:
    """Every input file goes through one reader: a bad file is one E_ line."""

    @pytest.mark.parametrize("target, argv", [
        ("dag.tsv", ["levels"]),
        ("scores.tsv", ["correct", "--scores", "scores.tsv",
                        "--method", "htd"]),
        ("scores.tsv", ["validate", "--scores", "scores.tsv"]),
        ("thr.tsv", ["correct", "--scores", "scores.tsv", "--method", "tpr",
                     "--thresholds-file", "thr.tsv"]),
        ("labels.tsv", ["eval", "--scores", "scores.tsv",
                        "--labels", "labels.tsv", "--threshold", "0.5"])],
        ids=["levels-dag", "correct-scores", "validate-scores",
             "correct-thresholds-file", "eval-labels"])
    def test_non_utf8_input_is_io_error(self, fx, capsys, target, argv):
        path = fx / target
        path.write_bytes(path.read_bytes().replace(b"a", b"a\xff", 1))
        argv = [fx / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, "--dag", fx / "dag.tsv") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("E_IO:") and "not UTF-8" in lines[0]

    COMMANDS = [
        ["levels"],
        ["validate", "--scores", "scores.tsv"],
        ["correct", "--scores", "scores.tsv", "--method", "htd"],
        ["correct", "--scores", "scores.tsv", "--method", "tpr",
         "--thresholds-file", "thr.tsv"],
        ["eval", "--scores", "scores.tsv", "--labels", "labels.tsv",
         "--thresholds-file", "thr.tsv"],
        ["fit-thresholds", "--scores", "scores.tsv", "--labels",
         "labels.tsv", "--strategy", "fscore"]]

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(argv=st.sampled_from(COMMANDS), dag=fuzzed(DIAMOND),
           scores=fuzzed(DIAMOND_SCORES), labels=fuzzed(DIAMOND_LABELS),
           thresholds=fuzzed(THRESHOLDS))
    def test_fuzzed_inputs_exit_cleanly(self, tmp_path_factory, argv, dag,
                                        scores, labels, thresholds):
        d = tmp_path_factory.mktemp("fuzz")
        for name, data in (("dag.tsv", dag), ("scores.tsv", scores),
                           ("labels.tsv", labels), ("thr.tsv", thresholds)):
            (d / name).write_bytes(data)
        argv = [d / a if a.endswith(".tsv") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(*argv, "--dag", d / "dag.tsv")
        assert code in (0, 1, 2, 3)
        if code >= 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("E_"), lines


class TestScipyStaysUnloaded:
    """No path of hde imports scipy; only tests and the benchmark use it.

    Each case runs in a fresh interpreter, because other tests in the same
    session import scipy.
    """

    SCRIPT = ("import json, sys\n"
              "import hde, hde.cli\n"
              "argv = json.loads(sys.argv[1])\n"
              "code = hde.cli.main(argv) if argv else 0\n"
              "print(json.dumps([code, 'scipy' in sys.modules]))\n")

    def fresh_run(self, fx, argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
            cwd=fx, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("argv, code", [
        ([], 0),
        (["levels", "--dag", "dag.tsv"], 0),
        (["validate", "--dag", "dag.tsv", "--scores", "scores.tsv"], 1),
        (["eval", "--dag", "dag.tsv", "--scores", "scores.tsv",
          "--labels", "labels.tsv", "--threshold", "0.5"], 0),
        (["fit-thresholds", "--dag", "dag.tsv", "--strategy", "fscore",
          "--scores", "scores.tsv", "--labels", "labels.tsv"], 0),
        (["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
          "--method", "htd"], 0),
        (["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
          "--method", "tpr", "--thresholds-file", "thr.tsv"], 0),
        (["correct", "--dag", "dag.tsv", "--scores", "scores.tsv",
          "--method", "iso-tpr", "--threshold", "0.5"], 0)],
        ids=["import", "levels", "validate", "eval", "fit-fscore",
             "correct-htd", "correct-tpr", "correct-iso-tpr"])
    def test_scipy_not_imported(self, fx, argv, code):
        assert self.fresh_run(fx, argv) == [code, False]


def test_every_package_module_is_loaded_by_the_cli():
    """The package holds no reference-only module: a fresh interpreter that
    imports hde and hde.cli has loaded every module in it."""
    script = ("import pkgutil, sys\n"
              "import hde, hde.cli\n"
              "print([m.name for m in pkgutil.iter_modules(hde.__path__)\n"
              "       if f'hde.{m.name}' not in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
