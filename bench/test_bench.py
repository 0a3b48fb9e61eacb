"""Tests of the benchmark harness at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "batch-tsv": dict(nodes=40, extra_edges=40, rows=6, train_rows=8),
    "online-row": dict(nodes=60, extra_edges=60, rows=4),
    "iso-deep": dict(nodes=24, levels=12, skips=8, rows=3),
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, spec, tmp_path):
    result = run.run_workload(workload, 3, 0.2, trace, ROOT, str(tmp_path),
                              TINY[workload])
    line = run.result_line(result, spec, trace)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert line["correct"] and line["attempted"] >= 1
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line)


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"][1:] == ["bench/run.py"] and spec["paths"] == ["bench"]


def test_corrupted_cli_output_counts_in_fail_frac(tmp_path):
    run.run_workload("batch-tsv", 3, 0.2, 0, ROOT, str(tmp_path),
                     TINY["batch-tsv"])
    inputs = tmp_path / "inputs" / "batch-tsv"
    work = tmp_path / "work" / "batch-tsv"
    files = {"dag": inputs / "dag.tsv", "scores": inputs / "scores.tsv",
             "corrected": work / "corrected.tsv",
             "validation": work / "validation.tsv"}
    tally = checks.Tally()
    chk = workloads.BatchChecks({k: str(v) for k, v in files.items()}, tally, {})
    chk.correct(0)
    assert tally.failed == 0

    # raise one child above its parent in two rows of the corrected file
    ids, cols, values = checks.parse_scores_tsv(files["corrected"])
    p, c = next(e for e in checks.read_edges(files["dag"]))
    j_p, j_c = cols.index(p), cols.index(c)
    values[:2, j_p] = 0.25
    values[:2, j_c] = 0.75
    with open(files["corrected"], "w", encoding="utf-8") as fh:
        fh.write("example\t" + "\t".join(cols) + "\n")
        for ex, row in zip(ids, values):
            fh.write(ex + "\t" + "\t".join(map(repr, row.tolist())) + "\n")
    chk.correct(0)
    chk.validate(0)  # validate must have failed on the corrupted file
    s = tally.summary()
    assert (s["attempted"], s["failed"]) == (3, 2)
    assert s["fail_frac"] == pytest.approx(2 / 3)
    assert s["failures"]["correct: strict violations"] == 1  # once per op
    assert "correct: strict violations" in s["unexpected"]
    assert "validate: exit code 0, expected 1" in s["unexpected"]


@pytest.mark.parametrize("corrupt, problem", [
    (lambda out: out.__setitem__(2, 1.5), "value outside [0, 1]"),
    (lambda out: out.__setitem__(2, 0.55), "strict violations"),
    (lambda out: out.__setitem__(2, 0.1), "htd equation"),
])
def test_corrupted_row_counts_as_failed(corrupt, problem):
    cols = ["r", "a", "b"]
    pi, ci = checks.edge_index([("r", "a"), ("a", "b")], cols)
    eq = checks.HtdEquation(pi, ci, 3)
    flat = np.array([0.9, 0.5, 0.6])
    tally = checks.Tally()
    for bad in (False, True):
        out = np.array([0.9, 0.5, 0.5])  # HTD of flat
        if bad:
            corrupt(out)
        tally.record("htd_row", checks.row_problems(out, pi, ci)[0]
                     + eq.problems(flat, out))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert ("htd_row", problem) in tally.unexpected


def test_only_rounding_sized_iso_violations_are_the_known_defect():
    pi, ci = checks.edge_index([("r", "a"), ("a", "b")], ["r", "a", "b"])
    tally = checks.Tally()
    tally.record("iso_row", checks.row_problems(
        np.array([0.5, 0.4, 0.4 + 1e-15]), pi, ci)[0])
    assert tally.failed == 1 and not tally.unexpected
    tally.record("iso_row", checks.row_problems(
        np.array([0.5, 0.4, 0.7]), pi, ci)[0])
    assert tally.failed == 2
    assert tally.unexpected == {("iso_row", "strict violations"): 1}


def iso_case(size=TINY["iso-deep"], seed=3, tmp=None):
    """A tiny deep DAG, its rows, and ISO-TPR's certified output."""
    import hde

    props = gen.generate("deep", seed, tmp, **size)
    dag_path = os.path.join(tmp, "dag.tsv")
    dag = hde.build_dag(hde.read_edge_list(dag_path))
    levels = hde.compute_levels(dag)
    rows = np.load(os.path.join(tmp, "rows.npy"))[:, workloads.node_order(dag)]
    pi, ci = checks.edge_index(checks.read_edges(dag_path), dag.nodes)
    cfg = hde.TprConfig(positive_selection="adaptive")
    return props, dag, levels, rows, pi, ci, cfg


def test_iso_rows_are_certified_as_projections(tmp_path):
    _, dag, levels, rows, pi, ci, cfg = iso_case(tmp=str(tmp_path))
    digests, problems, objectives = workloads.certify_iso(
        dag, levels, rows, cfg, pi, ci, {})
    assert len(digests) == len(objectives) == rows.shape[0]
    assert not any(problems.values())
    # a recorded objective that differs is a failure
    key = "iso_objective/0"
    _, problems, _ = workloads.certify_iso(
        dag, levels, rows, cfg, pi, ci, {key: objectives[key] + 1e-3})
    assert problems[0] and problems[0][0].startswith("objective differs")


def test_wrong_iso_rows_make_the_run_incorrect(tmp_path):
    import hde

    _, dag, levels, rows, pi, ci, cfg = iso_case(tmp=str(tmp_path))
    # the projection input: TPR's bottom-up pass, read off the public
    # isotonic_project through the tracer's hook
    inputs = []
    t = spans.Tracer()
    t.install({"iso.isotonic_project":
               lambda attrs, args, kwargs, res: inputs.append(args[1])})
    try:
        iso = hde.iso_tpr_correct_matrix(dag, levels, rows, cfg)
    finally:
        t.restore()
    z = inputs[0]
    assert (z[ci] > z[pi] + 1e-6).any(), "tiny case must need projecting"
    unprojected = z
    # feasible but not the projection: clamp every child to its parents
    clamped = hde.htd_correct(dag, levels, z)
    tally = checks.Tally()
    for y in (iso[0], unprojected, clamped):
        tally.record("iso_row", checks.row_problems(y, pi, ci)[0]
                     + checks.projection_problems(z, y, pi, ci))
    # hde's own row passes but for the known rounding-sized violations
    assert tally.unexpected == {("iso_row", "strict violations"): 1,
                                ("iso_row", "not the projection"): 1}
    result = {"tally": tally.summary(), "stale_reference": None,
              "e2e": {"cycle_s": 1.0, "tpr_s": 1.0, "setup_s": 1.0,
                      "peak_rss_mb": 1.0}}
    spec = {"end_to_end": [{"name": k, "unit": "s"} for k in result["e2e"]]}
    assert run.result_line(result, spec, 0)["correct"] is False


@pytest.mark.parametrize("kind, size", [
    ("batch", TINY["batch-tsv"]), ("online", TINY["online-row"]),
    ("deep", TINY["iso-deep"])])
def test_same_seed_regenerates_identical_inputs(kind, size, tmp_path):
    a = gen.generate(kind, 11, str(tmp_path / "a"), **size)
    b = gen.generate(kind, 11, str(tmp_path / "b"), **size)
    assert a == b
    for name in a["bytes"]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    c = gen.generate(kind, 12, str(tmp_path / "c"), **size)
    assert c["inputs_sha256"] != a["inputs_sha256"]


@pytest.mark.parametrize("seed", [1, 2])
def test_deep_narrow_size_is_exact(seed, tmp_path):
    props = gen.generate("deep", seed, str(tmp_path), nodes=400, levels=160,
                         skips=240, rows=2)
    assert (props["nodes"], props["edges"], props["levels"]) == (400, 639, 160)
    assert props["max_level_width"] <= 4


@pytest.mark.parametrize("workload", sorted(TINY))
def test_reference_matches_default_seed_inputs(workload, tmp_path):
    kind, size = run.WORKLOADS[workload]
    props = gen.generate(kind, run.DEFAULT_SEED, str(tmp_path), **size)
    digests, stale = run.load_reference(workload, props, run.DEFAULT_SEED)
    assert stale is None and digests


def test_self_time_subtracts_direct_children():
    t = spans.Tracer()
    t.spans = [(0, 0, None, "cli.main", 0.0, 10.0, {}),
               (0, 1, 0, "scores.read_scores", 1.0, 4.0, {}),
               (0, 2, 0, "tpr.tpr_correct_matrix", 5.0, 9.0, {}),
               (0, 3, 2, "scores.edge_index_arrays", 6.0, 7.0, {})]
    assert spans.self_times(t.spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_install_and_restore_wrap_public_functions_only():
    import hde
    import hde.htd
    import hde.tpr

    before = (hde.htd_correct, hde.htd.htd_correct_matrix,
              hde.tpr._bottom_up_matrix)
    t = spans.Tracer()
    t.install()
    try:
        assert hde.htd_correct is not before[0]
        assert hde.htd.htd_correct_matrix is not before[1]
        assert hde.tpr._bottom_up_matrix is before[2]
        t.begin_op("htd_row", 0)
        dag = hde.build_dag([("r", "a"), ("a", "b")])
        hde.htd_correct(dag, hde.compute_levels(dag), np.array([0.9, 0.5, 0.6]))
    finally:
        t.restore()
    assert (hde.htd_correct, hde.htd.htd_correct_matrix,
            hde.tpr._bottom_up_matrix) == before
    names = [s[3] for s in t.spans]
    assert "htd.htd_correct" in names and "htd.htd_correct_matrix" in names
    assert len({s[0] for s in t.spans}) == 1  # one operation, one id


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "iso-deep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
