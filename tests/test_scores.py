import itertools

import numpy as np
import pytest

from hde import (
    AlignmentError,
    MissingClassError,
    ParseError,
    RangeError,
    ScoreMatrix,
    align_to_dag,
    build_dag,
    check_valid_continuous,
    check_valid_discrete,
    count_violations,
    read_scores,
    write_scores,
)
from hde.oracles import validity_oracle

from conftest import random_dag


@pytest.fixture
def diamond_dag():
    return build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])


class TestDiscreteValidity:
    def test_ancestor_closed_set(self, diamond_dag):
        assert check_valid_discrete(diamond_dag, {"r", "a"})

    def test_missing_parents(self, diamond_dag):
        assert not check_valid_discrete(diamond_dag, {"c"})

    def test_empty_set(self, diamond_dag):
        assert check_valid_discrete(diamond_dag, set())

    def test_unknown_node(self, diamond_dag):
        from hde import UnknownNodeError
        with pytest.raises(UnknownNodeError):
            check_valid_discrete(diamond_dag, {"zzz"})


class TestContinuousValidity:
    def test_single_violation(self, diamond_dag):
        rep = check_valid_continuous(diamond_dag, [0.9, 0.5, 0.7, 0.6])
        assert rep.violations == (("a", "c", 0.5, 0.6),)
        assert rep.total_count == 1
        assert rep.max_gap == pytest.approx(0.1)

    def test_constant_row_valid(self, diamond_dag):
        rep = check_valid_continuous(diamond_dag, [0.4] * 4)
        assert not rep

    def test_single_edge(self):
        dag = build_dag([("r", "a")])
        rep = check_valid_continuous(dag, [0.2, 0.8])
        assert rep.violations == (("r", "a", 0.2, 0.8),)

    def test_eps_absorbs_small_gaps(self):
        dag = build_dag([("r", "a")])
        assert not check_valid_continuous(dag, [0.5, 0.5 + 1e-12], eps=1e-9)
        assert check_valid_continuous(dag, [0.5, 0.5 + 1e-12], eps=0.0)

    def test_misaligned_row(self, diamond_dag):
        with pytest.raises(AlignmentError):
            check_valid_continuous(diamond_dag, [0.1, 0.2])

    def test_count_violations_matches_per_row_reports(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dag = random_dag(rng, int(rng.integers(2, 20)))
            vals = rng.uniform(size=(4, len(dag)))
            per_row = sum(check_valid_continuous(dag, vals[r]).total_count
                          for r in range(4))
            assert count_violations(dag, vals) == per_row


class TestDiscreteContinuousAgreement:
    def test_exhaustive_small_dags(self):
        # 0/1 indicator validity and continuous validity coincide
        rng = np.random.default_rng(5)
        for _ in range(10):
            dag = random_dag(rng, int(rng.integers(2, 8)))
            n = len(dag)
            for bits in itertools.product((0, 1), repeat=n):
                s = {dag.nodes[i] for i in range(n) if bits[i]}
                discrete = check_valid_discrete(dag, s)
                continuous = not check_valid_continuous(dag, np.array(bits, float))
                assert discrete == continuous
                assert validity_oracle(dag, s) == discrete


class TestScoreMatrix:
    def test_range_enforced(self):
        for bad in (1.5, np.nan):
            with pytest.raises(RangeError):
                ScoreMatrix(["e1"], ["a"], np.array([[bad]]))

    def test_duplicate_examples(self):
        with pytest.raises(ParseError):
            ScoreMatrix(["e1", "e1"], ["a"], np.zeros((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            ScoreMatrix(["e1"], ["a", "b"], np.zeros((1, 3)))


class TestScoresIO:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\t0.5\n")
        m = read_scores(path)
        assert m.example_ids == ["e1"]
        assert m.class_ids == ["r", "a"]
        assert m.values.shape == (1, 2)
        assert m.values[0, 0] == 0.9

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ne1\t1.5\n")
        with pytest.raises(RangeError, match="line 2"):
            read_scores(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\n")
        with pytest.raises(ParseError, match="line 2"):
            read_scores(path)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(8)
        m = ScoreMatrix([f"e{i}" for i in range(5)],
                        [f"c{j}" for j in range(7)],
                        rng.uniform(size=(5, 7)))
        path = tmp_path / "s.tsv"
        write_scores(m, path)
        assert read_scores(path) == m

    def test_digits_truncation(self, tmp_path):
        m = ScoreMatrix(["e1"], ["a"], np.array([[0.123456789]]))
        path = tmp_path / "s.tsv"
        write_scores(m, path, digits=3)
        assert read_scores(path).values[0, 0] == 0.123


class TestAlignToDag:
    def test_reorders_columns(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["c", "a", "b", "r"],
                        np.array([[0.6, 0.5, 0.7, 0.9]]))
        aligned = align_to_dag(m, diamond_dag)
        assert aligned.class_ids == list(diamond_dag.nodes)
        assert aligned.values.tolist() == [[0.9, 0.5, 0.7, 0.6]]

    def test_missing_root_imputed(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["a", "b", "c"], np.array([[0.5, 0.7, 0.6]]))
        aligned = align_to_dag(m, diamond_dag)
        assert aligned.values[0, 0] == 1.0
        assert any("imputed" in c for c in aligned.comments)

    def test_missing_class_raises(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["r", "a"], np.array([[0.9, 0.5]]))
        with pytest.raises(MissingClassError):
            align_to_dag(m, diamond_dag)

    def test_extra_column_raises(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["r", "a", "b", "c", "zz"],
                        np.array([[0.9, 0.5, 0.7, 0.6, 0.1]]))
        with pytest.raises(AlignmentError):
            align_to_dag(m, diamond_dag)
