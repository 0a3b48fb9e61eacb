import math
import time

import numpy as np
import pytest

from hde import (
    TprConfig,
    build_dag,
    check_valid_continuous,
    compute_levels,
    htd_correct,
    iso_tpr_correct,
    iso_tpr_correct_matrix,
    isotonic_project,
)

import hde.iso
from hde.errors import ConvergenceError
from hde.tpr import _bottom_up_matrix

from conftest import (
    deep_narrow_dag,
    random_dag,
    random_scores,
    threshold_config,
)
from oracles import iso_oracle
from per_node_reference import kkt_residual

EPS = 1e-9


def sample_feasible(rng, dag, levels, n):
    """Random hierarchy-consistent rows: HTD projection of random vectors."""
    return np.array([htd_correct(dag, levels, r)
                     for r in rng.uniform(size=(n, len(dag)))])


class TestIsotonicProject:
    def test_single_edge_pools_to_mean(self):
        dag = build_dag([("p", "c")])
        sol = isotonic_project(dag, [0.2, 0.8])
        assert sol.values == pytest.approx([0.5, 0.5], abs=1e-9)
        assert sol.objective == pytest.approx(2 * 0.3 ** 2, abs=1e-9)

    def test_chain_hand_fixture(self):
        dag = build_dag([("r", "a"), ("a", "b")])
        sol = isotonic_project(dag, [0.2, 0.9, 0.4])
        assert sol.values == pytest.approx([0.55, 0.55, 0.4], abs=1e-9)

    def test_feasible_input_unchanged(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 15)))
            lv = compute_levels(dag)
            z = sample_feasible(rng, dag, lv, 1)[0]
            sol = isotonic_project(dag, z)
            assert sol.values == pytest.approx(z, abs=1e-9)
            assert sol.objective <= 1e-18

    def test_smallest_dag_feasible_row_unchanged(self):
        sol = isotonic_project(build_dag([("r", "a")]), [0.3, 0.2])
        assert np.array_equal(sol.values, [0.3, 0.2])
        assert sol.objective == 0.0

    def test_smallest_dag_row_is_clipped_like_any_other(self):
        sol = isotonic_project(build_dag([("r", "a")]), [1.5, 0.2])
        assert np.array_equal(sol.values, [1.0, 0.2])
        assert sol.objective == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_value_error(self, chain, bad):
        dag, _ = chain
        with pytest.raises(ValueError):
            isotonic_project(dag, [0.5, bad, 0.2])

    def test_tied_scores_hand_fixture(self):
        # two paths n1 -> n4 and n1 -> n2 -> n4 with z tied at 1 on n3, n4
        dag = build_dag([("n0", "n1"), ("n1", "n2"), ("n0", "n3"),
                         ("n2", "n4"), ("n1", "n4"), ("n3", "n4")])
        sol = isotonic_project(dag, [0.5, 0.0, 0.5, 1.0, 1.0])
        assert sol.values == pytest.approx([0.75, 0.5, 0.5, 0.75, 0.5],
                                           abs=1e-12)
        assert sol.objective == pytest.approx(0.625, abs=1e-12)

    def test_tied_and_rounded_scores_are_certified(self):
        rng = np.random.default_rng(59)
        for k in range(600):
            dag = random_dag(rng, int(rng.integers(2, 61)))
            if k % 2:
                z = rng.choice([0.0, 0.5, 1.0], size=len(dag))
            else:
                z = rng.uniform(size=len(dag)).round(1)
            y = isotonic_project(dag, z).values
            assert not check_valid_continuous(dag, y, eps=0.0)
            assert kkt_residual(dag, z, y) <= 1e-9
            if len(dag) <= 15:
                assert np.abs(y - iso_oracle(dag, z)).max() <= 1e-6

    def test_deep_narrow_taxonomies_are_certified(self):
        """The shape of the benchmark's iso-deep rows: long chains of small
        trees, where the step back drops edges most often."""
        rng = np.random.default_rng(60)
        cfg = TprConfig(positive_selection="adaptive")
        for _ in range(4):
            dag = deep_narrow_dag(rng, int(rng.integers(100, 401)))
            lv = compute_levels(dag)
            flat = rng.uniform(size=(1, len(dag)))
            for z in (flat[0], flat[0].round(1),
                      rng.choice([0.0, 0.5, 1.0], size=len(dag)),
                      _bottom_up_matrix(dag, lv, flat, cfg)[0]):
                sol = isotonic_project(dag, z)
                assert kkt_residual(dag, z, sol.values) <= 1e-9
                assert not check_valid_continuous(dag, sol.values, eps=0.0)
                assert sol.iterations <= 3 * len(dag.edges)

    def test_step_cap_raises_mid_solve(self, monkeypatch):
        """With the cap at a quarter step per edge, a deep narrow row that
        needs more steps stops once the cap is passed, mid-solve."""
        rng = np.random.default_rng(65)
        dag = deep_narrow_dag(rng, 300)
        lv = compute_levels(dag)
        cfg = TprConfig(positive_selection="adaptive")
        z = _bottom_up_matrix(dag, lv, rng.uniform(size=(1, len(dag))), cfg)[0]
        steps = isotonic_project(dag, z).iterations
        monkeypatch.setattr(hde.iso, "_STEPS_PER_EDGE", 0.25)
        cap = math.floor(0.25 * dag._pi.size)
        assert 0 < cap < steps
        with pytest.raises(ConvergenceError, match=(
                rf"^isotonic projection: no solution within {cap} steps$")):
            isotonic_project(dag, z)

    def test_feasibility(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 16)))
            sol = isotonic_project(dag, rng.uniform(size=len(dag)))
            assert not check_valid_continuous(dag, sol.values, eps=0.0)
            assert sol.residual <= EPS  # the raw solve, before the repair

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 16)))
            z = rng.uniform(size=len(dag))
            got = isotonic_project(dag, z).values
            assert np.abs(got - iso_oracle(dag, z)).max() <= 1e-6

    def test_no_feasible_point_beats_objective(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 16)))
            lv = compute_levels(dag)
            z = rng.uniform(size=len(dag))
            sol = isotonic_project(dag, z)
            for f in sample_feasible(rng, dag, lv, 200):
                assert ((z - f) ** 2).sum() >= sol.objective - 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 16)))
            first = isotonic_project(dag, rng.uniform(size=len(dag))).values
            again = isotonic_project(dag, first).values
            assert np.abs(again - first).max() <= 1e-9

    def test_never_worse_fit_than_htd(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 20)))
            lv = compute_levels(dag)
            z = rng.uniform(size=len(dag))
            sol = isotonic_project(dag, z)
            htd_obj = ((z - htd_correct(dag, lv, z)) ** 2).sum()
            assert sol.objective <= htd_obj + 1e-12

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 16)))
            v = isotonic_project(dag, rng.uniform(size=len(dag))).values
            assert v.min() >= 0.0 and v.max() <= 1.0


class TestIsoTprCorrect:
    def test_diamond_worked_example(self, diamond):
        dag, lv = diamond
        out = iso_tpr_correct(dag, lv, [0.9, 0.5, 0.7, 0.6],
                              threshold_config(dag, 0.5))
        # phase B gives (0.9, 0.55, 0.65, 0.6); edge a->c pools to 0.575
        assert out == pytest.approx([0.9, 0.575, 0.65, 0.575], abs=1e-9)

    def test_identity_on_consistent_flat_with_inert_thresholds(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            dag = random_dag(rng, int(rng.integers(2, 15)))
            lv = compute_levels(dag)
            y = htd_correct(dag, lv, rng.uniform(size=len(dag)))
            out = iso_tpr_correct(dag, lv, y, threshold_config(dag, 1.0))
            assert out == pytest.approx(y, abs=1e-9)

    def test_output_consistent(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            dag = random_dag(rng, int(rng.integers(2, 40)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            out = iso_tpr_correct(dag, lv, y, threshold_config(dag, 0.5))
            assert not check_valid_continuous(dag, out, eps=EPS)

    def test_adaptive_row_at_5000_nodes(self):
        rng = np.random.default_rng(63)
        dag = random_dag(rng, 5000)
        lv = compute_levels(dag)
        cfg = TprConfig(positive_selection="adaptive")
        flat = random_scores(rng, dag)
        t0 = time.perf_counter()
        out = iso_tpr_correct(dag, lv, flat[0], cfg)
        assert time.perf_counter() - t0 < 10.0
        assert not check_valid_continuous(dag, out, eps=0.0)
        z = _bottom_up_matrix(dag, lv, flat, cfg)[0]
        sol = isotonic_project(dag, z)
        assert np.array_equal(sol.values, out)
        htd_obj = ((z - htd_correct(dag, lv, z)) ** 2).sum()
        assert sol.objective <= htd_obj + 1e-12

    def test_projection_scales_to_20000_nodes(self):
        rng = np.random.default_rng(64)
        cfg = TprConfig(positive_selection="adaptive")
        rows = []
        for n in (10_000, 20_000):
            dag = random_dag(rng, n, extra_edges=n)
            lv = compute_levels(dag)
            z = _bottom_up_matrix(dag, lv, random_scores(rng, dag), cfg)[0]
            rows.append((dag, z))

        def timed(dag, z):
            t0 = time.perf_counter()
            steps = isotonic_project(dag, z).iterations
            return time.perf_counter() - t0, steps

        # sizes timed in adjacent pairs, as in acceptance criterion 6
        runs = np.array([[timed(*row) for row in rows] for _ in range(11)])
        seconds, steps = runs[..., 0], runs[..., 1]
        # the step count does not depend on the host; it grows with the
        # edge count, which doubles (7099 -> 14385 steps, 2.03x)
        assert (steps == steps[0]).all()
        growth = steps[0, 1] / steps[0, 0]
        assert growth < 2.2, (
            f"doubling |V| scaled the Lawson-Hanson steps by {growth:.2f}")
        # host load only adds time, so each size's fastest call is its cost
        ratio = float(seconds[:, 1].min() / seconds[:, 0].min())
        assert ratio < 3.0, f"doubling |V| scaled the projection by {ratio:.2f}"
        t20 = float(np.median(seconds[:, 1]))
        assert t20 < 5.0, f"a 20k-node row took {t20:.2f}s"

    def test_unit_thresholds_project_the_flat_scores(self):
        """No child beats a threshold of 1, so the bottom-up pass leaves the
        flat rows as they are and ISO-TPR is the projection of the flat
        scores, byte for byte."""
        rng = np.random.default_rng(64)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 40)))
            lv = compute_levels(dag)
            flat = random_scores(rng, dag, n_rows=3)
            flat[1] = np.round(flat[1], 1)  # tied scores
            out = iso_tpr_correct_matrix(dag, lv, flat,
                                         threshold_config(dag, 1.0))
            expected = np.array([isotonic_project(dag, r).values
                                 for r in flat])
            assert out.tobytes() == expected.tobytes()
