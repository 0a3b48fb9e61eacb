import numpy as np
import pytest

from hde import build_dag, check_valid_continuous

from conftest import random_dag
from oracles import (
    SizeError,
    bellman_ford_levels,
    iso_oracle,
    longest_path_oracle,
    validity_oracle,
)


class TestLongestPathOracle:
    def test_skip_edge(self):
        dag = build_dag([("r", "a"), ("a", "c"), ("r", "c")])
        assert longest_path_oracle(dag, "c") == 2

    def test_root(self):
        dag = build_dag([("r", "a")])
        assert longest_path_oracle(dag, "r") == 0

    def test_chain_tail(self):
        dag = build_dag([(f"n{i}", f"n{i+1}") for i in range(5)])
        assert longest_path_oracle(dag, "n5") == 5

    def test_size_cap(self):
        dag = build_dag([("r", f"n{i}") for i in range(13)])
        with pytest.raises(SizeError):
            longest_path_oracle(dag, "r")


class TestIsoOracle:
    def test_two_point_pool(self):
        dag = build_dag([("p", "c")])
        assert iso_oracle(dag, [0.2, 0.8]) == pytest.approx([0.5, 0.5],
                                                            abs=1e-10)

    def test_feasible_unchanged(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        z = [0.9, 0.6, 0.1]
        assert iso_oracle(dag, z) == pytest.approx(z, abs=1e-10)

    def test_chain_pav(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        assert iso_oracle(dag, [0.2, 0.9, 0.4]) == pytest.approx(
            [0.55, 0.55, 0.4], abs=1e-10)

    def test_size_cap(self):
        dag = build_dag([("r", f"n{i}") for i in range(16)])
        with pytest.raises(SizeError):
            iso_oracle(dag, np.zeros(17))


class TestValidityOracle:
    def test_closed_set(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        assert validity_oracle(dag, {"r", "a"})

    def test_missing_ancestor(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        assert not validity_oracle(dag, {"r", "b"})

    def test_continuous_consistent(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        assert validity_oracle(dag, np.array([0.9, 0.5, 0.5]))

    def test_agrees_with_edge_scan(self):
        # ancestor-wise and edge-wise checks coincide by transitivity
        rng = np.random.default_rng(81)
        for _ in range(200):
            dag = random_dag(rng, int(rng.integers(2, 15)))
            row = rng.uniform(size=len(dag))
            assert validity_oracle(dag, row) == (
                not check_valid_continuous(dag, row))


def test_bellman_ford_handles_early_exit():
    dag = build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
    assert bellman_ford_levels(dag) == {"r": 0, "a": 1, "b": 1, "c": 2}
