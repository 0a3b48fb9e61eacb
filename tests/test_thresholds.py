import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hde import (
    AlignmentError,
    EmptyGridError,
    HdeError,
    NoPositivesWarning,
    ParseError,
    RangeError,
    ScoreMatrix,
    ThresholdVector,
    build_dag,
    evaluate,
    fit_fscore,
    fit_global,
    fit_percentile,
    read_thresholds,
    write_thresholds,
)
from hde.thresholds import align_thresholds

import per_node_reference as ref


def matrix_pair(scores, labels, class_ids=None):
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    labels = np.atleast_2d(np.asarray(labels, dtype=float))
    ids = class_ids or [f"c{j}" for j in range(scores.shape[1])]
    ex = [f"e{i}" for i in range(scores.shape[0])]
    return (ScoreMatrix(ex, list(ids), scores),
            ScoreMatrix(ex, list(ids), labels))


def exhaustive_best_threshold(scores, labels, grid):
    """Independent oracle: scan every grid point, recompute F from scratch."""
    best = None
    for t in sorted(grid):
        tp = sum(1 for s, l in zip(scores, labels) if s > t and l)
        fp = sum(1 for s, l in zip(scores, labels) if s > t and not l)
        fn = sum(1 for s, l in zip(scores, labels) if s <= t and l)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        if best is None or f > best[1]:
            best = (t, f)
    return best


class TestFitGlobal:
    def test_constant_vector(self):
        tv = fit_global(0.5, ["r", "a", "b", "c"])
        assert tv.values.tolist() == [0.5] * 4
        assert tv.strategy_tag == "global"

    def test_zero(self):
        assert fit_global(0.0, ["a"]).values.tolist() == [0.0]

    def test_out_of_range(self):
        for bad in (1.1, float("nan")):
            with pytest.raises(RangeError):
                fit_global(bad, ["a"])


class TestFitFscore:
    GRID = np.round(np.arange(0.1, 1.0, 0.1), 1)

    def test_separable_class(self):
        scores, labels = matrix_pair([[0.8], [0.6], [0.4], [0.2]],
                                     [[1], [1], [0], [0]])
        tv = fit_fscore(scores, labels, self.GRID)
        t, f = exhaustive_best_threshold([0.8, 0.6, 0.4, 0.2], [1, 1, 0, 0],
                                         self.GRID)
        assert f == 1.0
        # smallest maximizing grid value under the strict ">" rule
        assert t == pytest.approx(0.4)
        assert tv.values[0] == pytest.approx(t)

    def test_no_positives_gets_max_grid(self):
        scores, labels = matrix_pair([[0.8], [0.2]], [[0], [0]])
        tv = fit_fscore(scores, labels, self.GRID)
        assert tv.values[0] == pytest.approx(0.9)

    def test_inverted_scores_matches_exhaustive_scan(self):
        s = [0.9, 0.8, 0.2, 0.1]  # negatives on top
        l = [0, 0, 1, 1]
        scores, labels = matrix_pair([[v] for v in s], [[v] for v in l])
        tv = fit_fscore(scores, labels, self.GRID)
        t, _ = exhaustive_best_threshold(s, l, self.GRID)
        assert tv.values[0] == pytest.approx(t)

    def test_random_matches_exhaustive_scan(self):
        rng = np.random.default_rng(71)
        for i in range(40):
            m, k = int(rng.integers(3, 25)), int(rng.integers(1, 41))
            s = rng.uniform(size=(m, k))
            if i % 2:  # scores on the grid, so F ties across grid values
                s = np.round(s, 1)
            l = (rng.uniform(size=(m, k)) > 0.5).astype(float)
            l[:, rng.uniform(size=k) < 0.2] = 0.0  # all-negative columns
            scores, labels = matrix_pair(s, l)
            tv = fit_fscore(scores, labels, self.GRID)
            for j in range(k):
                if l[:, j].any():
                    t, _ = exhaustive_best_threshold(s[:, j], l[:, j], self.GRID)
                    assert tv.values[j] == t
                else:
                    assert tv.values[j] == self.GRID.max()

    def test_selected_threshold_always_in_grid(self):
        rng = np.random.default_rng(72)
        s = rng.uniform(size=(20, 5))
        l = (rng.uniform(size=(20, 5)) > 0.4).astype(float)
        scores, labels = matrix_pair(s, l)
        tv = fit_fscore(scores, labels, self.GRID)
        assert all(any(np.isclose(v, g) for g in self.GRID) for v in tv.values)

    def test_separable_reaches_perfect_f(self):
        scores, labels = matrix_pair([[0.9], [0.7], [0.3], [0.1]],
                                     [[1], [1], [0], [0]])
        tv = fit_fscore(scores, labels, np.array([0.5]))
        pred = scores.values[:, 0] > tv.values[0]
        assert (pred == labels.values[:, 0].astype(bool)).all()

    def test_matches_per_grid_reference(self):
        rng = np.random.default_rng(73)
        # the last two shapes span several column blocks
        shapes = [(int(rng.integers(0, 30)), int(rng.integers(1, 12)))
                  for _ in range(300)] + [(300, 700), (70_000, 3)]
        for i, (m, k) in enumerate(shapes):
            s = rng.uniform(size=(m, k))
            if i % 3 == 1:  # tied scores, some on the grid
                s = np.round(s, 1)
            elif i % 3 == 2:
                s = np.round(s, int(rng.integers(0, 3)))
            l = (rng.uniform(size=(m, k)) > rng.uniform()).astype(float)
            l[:, rng.uniform(size=k) < 0.2] = 0.0  # all-negative columns
            if i % 4 == 0:  # duplicates, values on and off the data
                grid = np.concatenate([rng.choice(s.ravel(), 3), [0.0, 1.0],
                                       np.round(rng.uniform(size=5), 1)]) \
                    if m else np.array([0.5, 0.5])
            elif i % 4 == 1:
                grid = rng.uniform(size=int(rng.integers(1, 60)))
            elif i % 4 == 2:
                grid = rng.uniform(0.9, 1.0, size=3)  # above most scores
            else:
                grid = TestFitFscore.GRID
            scores, labels = matrix_pair(s, l)
            got = fit_fscore(scores, labels, grid)
            want = ref.fit_fscore_grid(scores, labels, grid)
            assert got.values.tobytes() == want.values.tobytes(), i

    def test_long_grid_time_does_not_grow_with_its_length(self):
        rng = np.random.default_rng(74)
        s = rng.uniform(size=(200, 300))
        scores, labels = matrix_pair(s, (s > rng.uniform(size=300)) * 1.0)
        t0 = time.perf_counter()
        tv = fit_fscore(scores, labels, np.linspace(0.0, 1.0, 100_001))
        assert time.perf_counter() - t0 < 5.0
        assert tv.values.shape == (300,)

    def test_empty_grid(self):
        scores, labels = matrix_pair([[0.5]], [[1]])
        with pytest.raises(EmptyGridError):
            fit_fscore(scores, labels, np.array([]))

    def test_grid_out_of_range(self):
        scores, labels = matrix_pair([[0.5]], [[1]])
        for bad in (1.5, np.nan):
            with pytest.raises(RangeError):
                fit_fscore(scores, labels, np.array([0.5, bad]))

    def test_misaligned(self):
        s, _ = matrix_pair([[0.5]], [[1]])
        _, l = matrix_pair([[0.5], [0.2]], [[1], [0]])
        with pytest.raises(AlignmentError):
            fit_fscore(s, l, self.GRID)


class TestFitPercentile:
    def test_nearest_rank_k25(self):
        scores, labels = matrix_pair([[0.2], [0.4], [0.6], [0.8]],
                                     [[1], [1], [1], [1]])
        assert fit_percentile(scores, labels, 25).values[0] == pytest.approx(0.2)

    def test_k100_is_max(self):
        scores, labels = matrix_pair([[0.2], [0.4], [0.6], [0.8]],
                                     [[1], [1], [1], [1]])
        assert fit_percentile(scores, labels, 100).values[0] == pytest.approx(0.8)

    def test_k0_is_min(self):
        scores, labels = matrix_pair([[0.2], [0.4], [0.6], [0.8]],
                                     [[1], [1], [1], [1]])
        assert fit_percentile(scores, labels, 0).values[0] == pytest.approx(0.2)

    def test_single_positive(self):
        scores, labels = matrix_pair([[0.7], [0.3]], [[1], [0]])
        assert fit_percentile(scores, labels, 60).values[0] == pytest.approx(0.7)

    def test_no_positives_warns_and_falls_back(self):
        scores, labels = matrix_pair([[0.7], [0.3]], [[0], [0]])
        with pytest.warns(NoPositivesWarning):
            tv = fit_percentile(scores, labels, 50)
        assert tv.values[0] == 0.5

    def test_bad_k(self):
        scores, labels = matrix_pair([[0.7]], [[1]])
        with pytest.raises(RangeError):
            fit_percentile(scores, labels, 101)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(rows=st.integers(0, 29), cols=st.integers(1, 19),
           decimals=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           k=st.sampled_from([0, 33.3, 50, 100]) | st.floats(0, 100))
    def test_matches_per_class_loop(self, rows, cols, decimals, seed, k):
        # ties from rounding, classes without positives, and no rows at all
        rng = np.random.default_rng(seed)
        s = np.round(rng.uniform(size=(rows, cols)), decimals)
        pos = rng.uniform(size=(rows, cols)) < rng.uniform()
        scores, labels = matrix_pair(s, pos * 1.0)

        def run(fit):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tv = fit(scores, labels, k)
            return tv, [(w.category, str(w.message)) for w in caught]

        got, got_warned = run(fit_percentile)
        want, want_warned = run(ref.fit_percentile_loop)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.strategy_tag == want.strategy_tag == "percentile"
        assert got_warned == want_warned
        assert len(want_warned) == int((~pos.any(axis=0)).sum())


class TestEvaluate:
    def setup_method(self):
        self.dag = build_dag([("r", "a"), ("r", "b")])

    def test_perfect_scores(self):
        scores, labels = matrix_pair([[1, 1, 0], [1, 0, 1]],
                                     [[1, 1, 0], [1, 0, 1]],
                                     class_ids=["r", "a", "b"])
        rep = evaluate(self.dag, scores, labels,
                       fit_global(0.5, self.dag.nodes))
        assert rep.metrics.f_score.tolist() == [1.0, 1.0, 1.0]
        assert rep.violation_count == 0

    def test_all_zero_scores(self):
        scores, labels = matrix_pair([[0, 0, 0]], [[1, 1, 0]],
                                     class_ids=["r", "a", "b"])
        rep = evaluate(self.dag, scores, labels,
                       fit_global(0.5, self.dag.nodes))
        assert rep.metrics.recall[0] == 0.0
        assert rep.metrics.f_score[0] == 0.0

    def test_flipped_scores_zero_precision(self):
        scores, labels = matrix_pair([[0, 0, 1]], [[1, 1, 0]],
                                     class_ids=["r", "a", "b"])
        rep = evaluate(self.dag, scores, labels,
                       fit_global(0.5, self.dag.nodes))
        assert rep.metrics.precision.tolist() == [0.0, 0.0, 0.0]

    def test_violation_stats(self):
        scores, labels = matrix_pair([[0.2, 0.9, 0.1]], [[1, 1, 0]],
                                     class_ids=["r", "a", "b"])
        rep = evaluate(self.dag, scores, labels,
                       fit_global(0.5, self.dag.nodes))
        assert rep.violation_count == 1
        assert rep.max_violation_gap == pytest.approx(0.7)

    def test_counts_sum_to_examples(self):
        rng = np.random.default_rng(73)
        s = rng.uniform(size=(17, 3))
        l = (rng.uniform(size=(17, 3)) > 0.5).astype(float)
        scores, labels = matrix_pair(s, l, class_ids=["r", "a", "b"])
        rep = evaluate(self.dag, scores, labels,
                       fit_global(0.3, self.dag.nodes))
        m = rep.metrics
        assert ((m.tp + m.fp + m.tn + m.fn) == 17).all()


class TestThresholdIO:
    def test_round_trip(self, tmp_path):
        tv = ThresholdVector(["r", "a", "b"], np.array([1.0, 0.25, 0.625]),
                             "fscore")
        path = tmp_path / "t.tsv"
        write_thresholds(tv, path)
        back = read_thresholds(path)
        assert back.class_ids == tv.class_ids
        assert np.array_equal(back.values, tv.values)

    @pytest.mark.parametrize("class_ids, tag", [(["r", "a\ud800"], "fscore"),
                                                (["r", "a"], "f\ud800")],
                             ids=["class-id", "strategy"])
    def test_lone_surrogate_refused_before_writing(self, tmp_path, class_ids,
                                                   tag):
        # in a class id or in the strategy comment: UTF-8 cannot encode it
        tv = ThresholdVector(class_ids, np.array([1.0, 0.5]), tag)
        path = tmp_path / "t.tsv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(HdeError, match="would not read back"):
            write_thresholds(tv, path)
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_unreadable_class_id_refused_before_writing(self, tmp_path):
        # `#a` would read back as a comment, leaving only `r`; the check
        # comes before the file is opened, so a refused write leaves it as
        # it was
        tv = ThresholdVector(["r", "#a"], np.array([1.0, 0.5]), "fscore")
        path = tmp_path / "t.tsv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(HdeError, match="'#a'"):
            write_thresholds(tv, path)
        assert path.read_text(encoding="utf-8") == "old\n"
        with pytest.raises(HdeError, match="'#a'"):
            write_thresholds(tv, tmp_path / "new.tsv")
        assert not (tmp_path / "new.tsv").exists()

    def test_blank_led_class_ids_round_trip(self, tmp_path):
        tv = ThresholdVector(["r", " a", "b c"], np.array([1.0, 0.5, 0.25]),
                             "fscore")
        path = tmp_path / "t.tsv"
        write_thresholds(tv, path)
        assert read_thresholds(path).class_ids == tv.class_ids

    def test_tied_values_write_as_one_at_a_time(self, tmp_path):
        # 9000 classes span three of the writer's 4096-cell blocks
        pool = np.array([-0.0, 0.0, 5e-324, 1e-05, np.nextafter(1.0, 0.0),
                         0.5])
        values = pool[np.random.default_rng(3).integers(len(pool), size=9000)]
        tv = ThresholdVector([f"c{j}" for j in range(9000)], values, "fscore")
        path = tmp_path / "t.tsv"
        write_thresholds(tv, path)
        expected = ["# strategy: fscore\n"] + [
            f"{c}\t{float(v)!r}\n" for c, v in zip(tv.class_ids, values)]
        assert path.read_text(encoding="utf-8").splitlines(True) == expected

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.25"])
    def test_out_of_range_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "t.tsv"
        path.write_text(f"# strategy: file\nr\t1.0\n\na\t{value}\n",
                        encoding="utf-8")
        with pytest.raises(RangeError, match="^" + re.escape(
                f"line 4: value {float(value)!r} outside [0, 1]") + "$"):
            read_thresholds(path)

    @pytest.mark.parametrize("line3", ["b\tabc", "b\t0.5\t0.5"],
                             ids=["unparseable", "column-count"])
    def test_range_error_comes_before_a_later_parse_error(self, tmp_path,
                                                          line3):
        # the rule of a scores file: cells are read in file order
        path = tmp_path / "t.tsv"
        path.write_text(f"r\t1.0\na\t1.5\n{line3}\n", encoding="utf-8")
        with pytest.raises(RangeError, match="^line 2: value 1.5 outside"):
            read_thresholds(path)

    @pytest.mark.parametrize("body", ["", "# strategy: file\n\n"],
                             ids=["empty", "comments-only"])
    def test_empty_file_is_parse_error(self, tmp_path, body):
        path = tmp_path / "t.tsv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError, match="no thresholds found"):
            read_thresholds(path)

    def test_align_to_dag_order(self):
        dag = build_dag([("r", "a"), ("r", "b")])
        tv = ThresholdVector(["b", "a"], np.array([0.3, 0.7]))
        aligned = align_thresholds(tv, dag)
        assert aligned.class_ids == list(dag.nodes)
        assert aligned.values.tolist() == [1.0, 0.7, 0.3]  # root defaults to 1

    def test_align_missing_class(self):
        dag = build_dag([("r", "a"), ("r", "b")])
        tv = ThresholdVector(["a"], np.array([0.3]))
        with pytest.raises(AlignmentError):
            align_thresholds(tv, dag)
