"""Acceptance suite: one test per exit criterion, printing a PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import gc
import itertools
import time

import numpy as np
import pytest

from hde import (
    TprConfig,
    build_dag,
    check_valid_continuous,
    check_valid_discrete,
    compute_levels,
    count_violations,
    htd_correct,
    htd_correct_matrix,
    iso_tpr_correct,
    isotonic_project,
    tpr_correct,
    tpr_correct_matrix,
)
from hde.cli import main as cli_main
from hde.tpr import _bottom_up_matrix

import per_node_reference as ref
from conftest import random_dag, threshold_config
from oracles import iso_oracle, longest_path_oracle

ISO_EPS = 0.0


def _ok(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def _method_outputs(dag, lv, y, rng):
    """(name, output, eps) for every correction method variant."""
    t = rng.uniform(size=len(dag))
    thr = TprConfig(thresholds=t)
    yield "htd", htd_correct(dag, lv, y), 0.0
    yield "tpr-threshold", tpr_correct(dag, lv, y, thr), 0.0
    yield ("tpr-adaptive",
           tpr_correct(dag, lv, y, TprConfig(positive_selection="adaptive")),
           0.0)
    for w in (0.0, 0.3, 0.7, 1.0):
        cfg = TprConfig(thresholds=t, w=w)
        yield f"tpr-w({w})", tpr_correct_matrix(dag, lv, y[None, :], cfg)[0], 0.0
    for mode in ("descendants-constant", "descendants-linear"):
        cfg = TprConfig(thresholds=t, descendant_mode=mode)
        yield mode, tpr_correct_matrix(dag, lv, y[None, :], cfg)[0], 0.0
    yield "iso-tpr", iso_tpr_correct(dag, lv, y, thr), ISO_EPS


def test_criterion_1_consistency_theorems():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(10, 51))
        dag = random_dag(rng, n, extra_edges=int(rng.integers(0, n)))
        lv = compute_levels(dag)
        y = rng.uniform(size=len(dag))
        for name, out, eps in _method_outputs(dag, lv, y, rng):
            assert count_violations(dag, out[None, :], eps=eps) == 0, name
    elapsed = time.perf_counter() - start
    _ok(1, f"0 violations across 1000 instances x all methods "
           f"({elapsed:.1f}s)")


def test_criterion_2_degenerate_equivalences():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        dag = random_dag(rng, int(rng.integers(2, 40)))
        lv = compute_levels(dag)
        y = rng.uniform(size=len(dag))
        htd = htd_correct(dag, lv, y)
        ones = threshold_config(dag, 1.0)
        # thresholds = 1.0 => TPR == HTD, exactly
        assert np.array_equal(tpr_correct(dag, lv, y, ones), htd)
        # thresholds = 1.0 => ISO-TPR == projection of the flat scores
        assert np.array_equal(iso_tpr_correct(dag, lv, y, ones),
                              isotonic_project(dag, y).values)
        # w = 1 => TPR-w == HTD, exactly
        assert np.array_equal(
            tpr_correct_matrix(dag, lv, y[None, :],
                               threshold_config(dag, 0.4, w=1.0))[0], htd)
        # valid input => HTD identity; HTD idempotent
        assert np.array_equal(htd_correct(dag, lv, htd), htd)
    _ok(2, "thresholds=1 => TPR==HTD and ISO-TPR==projection of flat; "
           "w=1 => TPR-w==HTD; HTD identity on valid input and idempotent "
           "(200 instances each, exact)")


def test_criterion_3_level_oracle():
    rng = np.random.default_rng(1003)
    for _ in range(500):
        dag = random_dag(rng, int(rng.integers(2, 13)))
        lv = compute_levels(dag)
        for node in dag.nodes:
            assert lv.dist[node] == longest_path_oracle(dag, node)
    # skip-edge fixture: BFS depth would put c at level 1
    dag = build_dag([("r", "a"), ("a", "c"), ("r", "c")])
    assert compute_levels(dag).dist["c"] == 2
    _ok(3, "compute_levels == brute-force path enumeration on 500 random "
           "DAGs and the skip-edge fixture")


def test_criterion_4_isotonic_optimality():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        dag = random_dag(rng, int(rng.integers(2, 16)))
        lv = compute_levels(dag)
        z = rng.uniform(size=len(dag))
        sol = isotonic_project(dag, z)
        assert np.abs(sol.values - iso_oracle(dag, z)).max() <= 1e-6
        # 1000 random feasible points per instance never beat the objective
        feas = np.array([htd_correct(dag, lv, r)
                         for r in rng.uniform(size=(1000, len(dag)))])
        objs = ((feas - z) ** 2).sum(axis=1)
        assert objs.min() >= sol.objective - 1e-8
    two = isotonic_project(build_dag([("p", "c")]), [0.2, 0.8]).values
    assert np.abs(two - [0.5, 0.5]).max() <= 1e-9
    chain = isotonic_project(build_dag([("r", "a"), ("a", "b")]),
                             [0.2, 0.9, 0.4]).values
    assert np.abs(chain - [0.55, 0.55, 0.4]).max() <= 1e-9
    _ok(4, "projection matches the alternating-projection oracle (L-inf <= "
           "1e-6), beats 1000 sampled feasible points/instance, and "
           "reproduces the hand fixtures to 1e-9")


def test_criterion_5_discrete_continuous_agreement():
    rng = np.random.default_rng(1005)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        dag = random_dag(rng, n)
        for bits in itertools.product((0, 1), repeat=len(dag)):
            s = {dag.nodes[i] for i, b in enumerate(bits) if b}
            discrete = check_valid_discrete(dag, s)
            continuous = not check_valid_continuous(
                dag, np.array(bits, dtype=float))
            assert discrete == continuous
    _ok(5, "discrete and continuous validity agree on all 2^|V| labelings "
           "of 20 random DAGs (|V| <= 10)")


def _sparse_dag(rng, n):
    # |E| <= 3|V|: a parent tree plus at most 2|V| extra forward edges
    return random_dag(rng, n, extra_edges=2 * n)


def _time_passes(dag, n_rows, rng):
    lv = compute_levels(dag)  # outside the timer; the plan build is inside
    vals = rng.uniform(size=(n_rows, len(dag)))
    t = rng.uniform(size=len(dag))
    cfg = TprConfig(thresholds=t)
    # keep a cyclic-GC pass over earlier allocations out of the timer
    gc.collect()
    start = time.perf_counter()
    htd_correct_matrix(dag, lv, vals)
    tpr_correct_matrix(dag, lv, vals, cfg)
    return time.perf_counter() - start


def test_criterion_6_complexity_scaling():
    rng = np.random.default_rng(1006)
    d10 = _sparse_dag(rng, 10_000)
    d20 = _sparse_dag(rng, 20_000)
    # warm-up to stabilise allocator effects
    _time_passes(_sparse_dag(rng, 2_000), 4, rng)
    # time the sizes in adjacent pairs, so a drift in host speed reaches
    # both sides of a ratio alike; the median drops the odd pair
    ratios = []
    for _ in range(11):
        t10 = _time_passes(d10, 4, rng)
        ratios.append(_time_passes(d20, 4, rng) / t10)
    ratio = float(np.median(ratios))
    assert ratio < 3.0, f"doubling |V| scaled the passes by {ratio:.2f}"

    lv = compute_levels(d10)
    vals = rng.uniform(size=(100, len(d10)))
    start = time.perf_counter()
    htd_correct_matrix(d10, lv, vals)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"10k-node 100-example HTD took {elapsed:.2f}s"
    _ok(6, f"correction passes scale x{ratio:.2f} for |V| 10k->20k (< 3); "
           f"10k x 100 HTD in {elapsed:.2f}s (< 5s)")


def test_criterion_7_worked_example_cli_golden(tmp_path, capsys):
    (tmp_path / "dag.tsv").write_text("r\ta\nr\tb\na\tc\nb\tc\n")
    (tmp_path / "scores.tsv").write_text(
        "example\tr\ta\tb\tc\ne1\t0.9\t0.5\t0.7\t0.6\n")
    out = tmp_path / "out.tsv"

    code = cli_main(["correct", "--dag", str(tmp_path / "dag.tsv"),
                     "--scores", str(tmp_path / "scores.tsv"),
                     "--method", "htd", "-o", str(out)])
    assert code == 0
    row = [l for l in out.read_text().splitlines()
           if not l.startswith(("#", "example"))][0]
    assert row.split("\t") == ["e1", "0.9", "0.5", "0.7", "0.5"]

    code = cli_main(["correct", "--dag", str(tmp_path / "dag.tsv"),
                     "--scores", str(tmp_path / "scores.tsv"),
                     "--method", "tpr", "--threshold", "0.5", "-o", str(out)])
    assert code == 0
    row = [l for l in out.read_text().splitlines()
           if not l.startswith(("#", "example"))][0]
    cells = row.split("\t")
    assert cells[0] == "e1"
    # (0.7 + 0.6) / 2 serialises as 0.6499999999999999 at full precision
    got = [float(v) for v in cells[1:]]
    assert got == pytest.approx([0.9, 0.55, 0.65, 0.55], abs=1e-12)
    _ok(7, "diamond HTD and TPR golden traces reproduced through the CLI")


def test_criterion_8_literal_topdown_regression():
    rng = np.random.default_rng(1008)
    for _ in range(300):
        dag = random_dag(rng, int(rng.integers(2, 40)))
        lv = compute_levels(dag)
        y = rng.uniform(size=(1, len(dag)))
        cfg = threshold_config(dag, float(rng.uniform()))
        # the pseudocode-literal top-down pass compares against the flat
        # scores, so it discards the phase-B values it is given
        b = _bottom_up_matrix(dag, lv, y, cfg)
        assert np.array_equal(ref.topdown_matrix(dag, lv, b, y, literal=True),
                              htd_correct_matrix(dag, lv, y))
    _ok(8, "pseudocode-literal top-down makes TPR identical to HTD on 300 "
           "random instances")
