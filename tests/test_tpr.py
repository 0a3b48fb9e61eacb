from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from hde import (
    AlignmentError,
    ThresholdVector,
    TprConfig,
    WeightRangeError,
    align_thresholds,
    build_dag,
    check_valid_continuous,
    compute_levels,
    htd_correct,
    iso_tpr_correct,
    tpr_correct,
)
from hde.tpr import DESCENDANT_MODES, POSITIVE_SELECTIONS, tpr_correct_matrix

from conftest import (random_dag, random_scores, shuffle_parent_runs,
                      threshold_config)
from per_node_reference import positive_children

DIAMOND_Y = np.array([0.9, 0.5, 0.7, 0.6])


class TestPositiveChildren:
    def test_threshold_membership(self, diamond):
        dag, _ = diamond
        cfg = threshold_config(dag, 0.5)
        current = np.array([0.9, 0.5, 0.7, 0.6])
        assert positive_children(dag, "a", current, DIAMOND_Y, cfg) == ("c",)

    def test_all_ones_threshold_empty(self, diamond):
        dag, _ = diamond
        cfg = threshold_config(dag, 1.0)
        current = np.array([1.0, 1.0, 1.0, 1.0])
        for n in dag.nodes:
            assert positive_children(dag, n, current, current, cfg) == ()

    def test_adaptive_membership(self, diamond):
        dag, _ = diamond
        cfg = TprConfig(positive_selection="adaptive")
        current = np.array([0.9, 0.5, 0.7, 0.6])
        assert positive_children(dag, "a", current, DIAMOND_Y, cfg) == ("c",)

    def test_adaptive_strict_inequality(self, diamond):
        dag, _ = diamond
        cfg = TprConfig(positive_selection="adaptive")
        current = np.array([0.9, 0.5, 0.7, 0.5])  # child equals parent's flat
        assert positive_children(dag, "a", current, DIAMOND_Y, cfg) == ()


class TestTprCorrect:
    def test_diamond_worked_example(self, diamond):
        dag, lv = diamond
        out = tpr_correct(dag, lv, DIAMOND_Y, threshold_config(dag, 0.5))
        assert out == pytest.approx([0.9, 0.55, 0.65, 0.55], abs=1e-15)

    def test_thresholds_one_degenerates_to_htd(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dag = random_dag(rng, int(rng.integers(2, 30)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            assert np.array_equal(
                tpr_correct(dag, lv, y, threshold_config(dag, 1.0)),
                htd_correct(dag, lv, y))

    def test_output_consistent_threshold_and_adaptive(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            dag = random_dag(rng, int(rng.integers(2, 40)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            t = rng.uniform(size=len(dag))
            for cfg in (TprConfig(thresholds=t),
                        TprConfig(positive_selection="adaptive")):
                out = tpr_correct(dag, lv, y, cfg)
                assert not check_valid_continuous(dag, out)

    def test_root_preserved(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 25)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            out = tpr_correct(dag, lv, y, threshold_config(dag, 0.3))
            assert out[dag.index(dag.root)] == y[dag.index(dag.root)]

    def test_leaf_scores_after_bottom_up(self, diamond):
        from hde.tpr import _bottom_up_matrix
        dag, lv = diamond
        b = _bottom_up_matrix(dag, lv, DIAMOND_Y[None, :],
                              threshold_config(dag, 0.5))[0]
        assert b[dag.index("c")] == DIAMOND_Y[dag.index("c")]

    def test_adaptive_bottom_up_never_lowers(self):
        # adaptive positives all exceed the parent's flat score, so the
        # blended value cannot drop below it
        from hde.tpr import _bottom_up_matrix
        rng = np.random.default_rng(34)
        for _ in range(100):
            dag = random_dag(rng, int(rng.integers(2, 25)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)
            cfg = TprConfig(positive_selection="adaptive")
            b = _bottom_up_matrix(dag, lv, y, cfg)[0]
            assert (b >= y[0] - 1e-12).all()

    def test_within_level_order_independence(self):
        # the rebuild with shuffled parent runs reorders the levels but
        # keeps each node's children in order, so children-mode sums keep
        # their bits; descendants follow node order, so their sums may
        # differ in the last bit
        rng = np.random.default_rng(36)
        reordered = 0
        for _ in range(50):
            n = int(rng.integers(2, 60))
            dag = random_dag(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
            dag2, at = shuffle_parent_runs(rng, dag)
            lv, lv2 = compute_levels(dag), compute_levels(dag2)
            reordered += lv.levels != lv2.levels
            t = rng.uniform(size=n)
            t2 = np.empty(n)
            t2[at] = t
            for rows in (1, 7):
                y = random_scores(rng, dag, rows)
                y2 = np.empty_like(y)
                y2[:, at] = y
                for mode, sel, w in product(DESCENDANT_MODES,
                                            POSITIVE_SELECTIONS, (None, 0.3)):
                    kw = dict(positive_selection=sel, w=w,
                              descendant_mode=mode)
                    adaptive = sel == "adaptive"
                    got = tpr_correct_matrix(dag2, lv2, y2, TprConfig(
                        thresholds=None if adaptive else t2, **kw))[:, at]
                    want = tpr_correct_matrix(dag, lv, y, TprConfig(
                        thresholds=None if adaptive else t, **kw))
                    if mode == "children":
                        assert np.array_equal(got, want), kw
                    else:
                        assert np.allclose(got, want, rtol=0, atol=1e-12), kw
        assert reordered >= 25

    def test_matrix_equals_per_row(self):
        rng = np.random.default_rng(37)
        dag = random_dag(rng, 20)
        lv = compute_levels(dag)
        vals = random_scores(rng, dag, n_rows=5)
        cfg = threshold_config(dag, 0.5)
        out = tpr_correct_matrix(dag, lv, vals, cfg)
        for r in range(5):
            assert np.array_equal(out[r], tpr_correct(dag, lv, vals[r], cfg))


class TestTprW:
    def test_w_one_equals_htd(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dag = random_dag(rng, int(rng.integers(2, 30)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            cfg = threshold_config(dag, 0.4, w=1.0)
            assert np.array_equal(tpr_correct(dag, lv, y, cfg),
                                  htd_correct(dag, lv, y))

    def test_diamond_phase_b_value(self, diamond):
        from hde.tpr import _bottom_up_matrix
        dag, lv = diamond
        cfg = threshold_config(dag, 0.5, w=0.8)
        b = _bottom_up_matrix(dag, lv, DIAMOND_Y[None, :], cfg)[0]
        assert b[dag.index("a")] == pytest.approx(0.8 * 0.5 + 0.2 * 0.6)

    def test_w_zero_single_positive_child(self, chain):
        from hde.tpr import _bottom_up_matrix
        dag, lv = chain
        y = np.array([0.9, 0.4, 0.8])
        cfg = threshold_config(dag, 0.5, w=0.0)
        b = _bottom_up_matrix(dag, lv, y[None, :], cfg)[0]
        assert b[dag.index("a")] == 0.8

    def test_empty_positive_set_keeps_flat(self, chain):
        from hde.tpr import _bottom_up_matrix
        dag, lv = chain
        y = np.array([0.9, 0.4, 0.2])
        cfg = threshold_config(dag, 0.5, w=0.3)
        b = _bottom_up_matrix(dag, lv, y[None, :], cfg)[0]
        assert np.array_equal(b, y)

    def test_invalid_weight(self):
        with pytest.raises(WeightRangeError):
            TprConfig(thresholds=np.array([0.5]), w=1.5)

    def test_output_consistent(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dag = random_dag(rng, int(rng.integers(2, 30)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            w = float(rng.uniform())
            out = tpr_correct(dag, lv, y, threshold_config(dag, 0.4, w=w))
            assert not check_valid_continuous(dag, out)


class TestTprDescendants:
    def test_chain_constant_mode_worked_example(self, chain):
        from hde.tpr import _bottom_up_matrix
        dag, lv = chain
        y = np.array([0.9, 0.4, 0.8])
        cfg = threshold_config(dag, 0.5, descendant_mode="descendants-constant")
        b = _bottom_up_matrix(dag, lv, y[None, :], cfg)[0]
        assert b[dag.index("a")] == pytest.approx(0.6)

    def test_no_positive_descendants_is_identity(self, chain):
        from hde.tpr import _bottom_up_matrix
        dag, lv = chain
        y = np.array([0.9, 0.4, 0.3])
        cfg = threshold_config(dag, 0.5, descendant_mode="descendants-constant")
        assert np.array_equal(_bottom_up_matrix(dag, lv, y[None, :], cfg)[0], y)

    def test_two_level_dag_equals_children_mode(self):
        # below the root every node's descendants are exactly its children,
        # and the root is never visited by the bottom-up pass
        rng = np.random.default_rng(43)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            edges = [("r", f"m{i}") for i in range(k)]
            edges += [(f"m{i}", f"l{i}{j}") for i in range(k)
                      for j in range(int(rng.integers(1, 4)))]
            dag = build_dag(edges)
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            const = threshold_config(dag, 0.5,
                                     descendant_mode="descendants-constant")
            children = threshold_config(dag, 0.5)
            assert np.array_equal(tpr_correct(dag, lv, y, const),
                                  tpr_correct(dag, lv, y, children))

    def test_linear_equals_constant_on_two_level_dag(self):
        # all node-to-descendant distances are 1 => all weights are 1
        rng = np.random.default_rng(44)
        dag = build_dag([("r", "a"), ("r", "b"), ("r", "c")])
        lv = compute_levels(dag)
        y = random_scores(rng, dag)[0]
        lin = threshold_config(dag, 0.5, descendant_mode="descendants-linear")
        const = threshold_config(dag, 0.5, descendant_mode="descendants-constant")
        assert np.array_equal(tpr_correct(dag, lv, y, lin),
                              tpr_correct(dag, lv, y, const))

    def test_linear_weights_hand_computed(self):
        # chain r->a->b->c at node a: d(a,b)=1, d(a,c)=2, D_a=2
        # weights u_b=(2-1+1)/2=1, u_c=(2-2+1)/2=0.5
        from hde.tpr import _bottom_up_matrix
        dag = build_dag([("r", "a"), ("a", "b"), ("b", "c")])
        lv = compute_levels(dag)
        y = np.array([0.9, 0.1, 0.8, 0.6])
        cfg = threshold_config(dag, 0.5, descendant_mode="descendants-linear")
        b = _bottom_up_matrix(dag, lv, y[None, :], cfg)[0]
        # c final: 0.6; b final: (0.8 + 0.6)/2 = 0.7
        # a: (0.1 + 1*0.7 + 0.5*0.6) / (1 + 1.5) = 1.1/2.5
        assert b[dag.index("b")] == pytest.approx(0.7)
        assert b[dag.index("a")] == pytest.approx(1.1 / 2.5)

    def test_output_consistent_both_modes(self):
        rng = np.random.default_rng(45)
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(2, 25)))
            lv = compute_levels(dag)
            y = random_scores(rng, dag)[0]
            for mode in ("descendants-constant", "descendants-linear"):
                cfg = threshold_config(dag, 0.4, descendant_mode=mode)
                out = tpr_correct(dag, lv, y, cfg)
                assert not check_valid_continuous(dag, out)


class TestConfigValidation:
    def test_threshold_mode_requires_thresholds(self):
        with pytest.raises(ValueError):
            TprConfig()

    def test_bad_selection(self):
        with pytest.raises(ValueError):
            TprConfig(positive_selection="magic")

    def test_threshold_range(self):
        from hde import RangeError
        for bad in (1.2, np.nan):
            with pytest.raises(RangeError):
                TprConfig(thresholds=np.array([bad]))


class TestThresholdVectorOrder:
    """A ThresholdVector is applied by class: one in another order than the
    Dag's nodes is rejected, never read by position."""

    # r, a, b, c read by position would admit c (0.6 > 0.5) as positive
    UNALIGNED = ThresholdVector(["c", "b", "a", "r"],
                                np.array([0.9, 0.9, 0.9, 0.5]))

    @pytest.mark.parametrize("correct", [
        tpr_correct, iso_tpr_correct,
        lambda dag, lv, y, cfg: tpr_correct_matrix(dag, lv, y[None], cfg)])
    def test_unaligned_vector_is_rejected(self, diamond, correct):
        dag, lv = diamond
        cfg = TprConfig(thresholds=self.UNALIGNED)
        with pytest.raises(AlignmentError, match="threshold vector not "
                                                 "aligned with the taxonomy"):
            correct(dag, lv, DIAMOND_Y, cfg)

    def test_replaced_config_keeps_the_vector(self, diamond):
        """A copy made by `dataclasses.replace` holds the vector, not its
        values, so it is rejected too."""
        dag, lv = diamond
        cfg = replace(TprConfig(thresholds=self.UNALIGNED), w=None)
        assert cfg.thresholds is self.UNALIGNED
        with pytest.raises(AlignmentError, match="threshold vector not "
                                                 "aligned with the taxonomy"):
            tpr_correct(dag, lv, DIAMOND_Y, cfg)

    def test_aligned_vector_gives_the_positional_bytes(self, diamond):
        dag, lv = diamond
        tv = align_thresholds(self.UNALIGNED, dag)
        out = tpr_correct(dag, lv, DIAMOND_Y, TprConfig(thresholds=tv))
        plain = tpr_correct(dag, lv, DIAMOND_Y, TprConfig(thresholds=tv.values))
        assert np.array_equal(out.view(np.int64), plain.view(np.int64))
        assert out.tolist() == [0.9, 0.5, 0.7, 0.5]
