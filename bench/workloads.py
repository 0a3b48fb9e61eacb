"""One benchmark workload, run in a fresh process by run.py.

Usage: python3 bench/workloads.py SPEC_JSON RESULT_JSON

The process imports hde from the checkout's src/ (run.py sets PYTHONPATH),
measures the taxonomy set-up, then repeats the workload's cycle until the
run's seconds are spent, checking every operation's output outside the
timed region.  With trace on, it alternates plain cycles with cycles in which
every public hde function is wrapped in a span, and derives the per-layer
metrics from the spans.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import hde
import hde.cli
import checks
from spans import LAYERS, Tracer, self_times, span_cost

SETUP_REPS = 7
SETUP_MIN_S = 1.0
SETUP_SHARE = 0.1
PROBE_REPS = 5
PROBE_SHARE = 0.05
# The reference host's probe median: a typical one on the 2-core Xeon VM
# the benchmark was written on (13 to 19 ms there).  It only scales.
PROBE_REF_S = 0.018
CLI_TIMEOUT_S = 150


def median(xs):
    return statistics.median(xs) if xs else 0.0


def set_up_once(dag_path):
    """read_edge_list + build_dag + compute_levels; (dag, levels, seconds)."""
    t0 = time.perf_counter()
    dag = hde.build_dag(hde.read_edge_list(dag_path))
    levels = hde.compute_levels(dag)
    return dag, levels, time.perf_counter() - t0


def setup(dag_path, tracer=None):
    """Set up the taxonomy repeatedly; (dag, levels, seconds of each set-up).

    At least SETUP_REPS times and SETUP_MIN_S seconds, so that a small
    taxonomy's set-up time is the median of many samples.
    """
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        if tracer is not None:
            tracer.begin_op("setup", -1 - len(times))
        dag, levels, dt = set_up_once(dag_path)
        times.append(dt)
    return dag, levels, times


def host_probe():
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    t0 = time.perf_counter()
    sum(i * i for i in range(200_000))
    return time.perf_counter() - t0


class Between:
    """The `between` hook of run_cycles: set-ups and host probes over the run.

    After a cycle it sets the taxonomy up again while set-ups have taken
    less than SETUP_SHARE of the elapsed run, and times the host probe while
    probes have taken less than PROBE_SHARE, so that both meet the same host
    conditions as the cycles do.

    The speed of a shared host drifts by tens of per cent over a minute, and
    the run's times move with its probe (correlation 0.42 to 0.97 across
    runs, see README.md), so the end-to-end times are scaled by the host
    factor PROBE_REF_S / median probe: seconds at the reference host's speed.
    """

    def __init__(self, dag_path, setup_times):
        self.dag_path = dag_path
        self.setup_s = setup_times
        self.probe_s = [host_probe() for _ in range(PROBE_REPS)]

    def __call__(self, elapsed):
        while sum(self.setup_s) < SETUP_SHARE * elapsed:
            self.setup_s.append(set_up_once(self.dag_path)[2])
        while sum(self.probe_s) < PROBE_SHARE * elapsed:
            self.probe_s.append(host_probe())

    def e2e(self, cycle_s, tpr_s, rss_mb):
        """End-to-end metrics, times at the reference host's speed."""
        k = PROBE_REF_S / median(self.probe_s)
        return {"cycle_s": k * cycle_s, "tpr_s": k * tpr_s,
                "setup_s": k * median(self.setup_s), "peak_rss_mb": rss_mb}

    def named(self, cycle_s, tpr_s):
        """The same times as measured, and the host factor."""
        return {"cycle_measured_s": cycle_s, "tpr_measured_s": tpr_s,
                "setup_measured_s": median(self.setup_s),
                "host_factor": PROBE_REF_S / median(self.probe_s)}


def run_cycles(seconds, min_cycles, cycle, between=None):
    """Run cycle(i) until `seconds` would be exceeded; at least min_cycles.

    `between(elapsed)`, if given, runs untimed after every cycle.
    """
    durations = []
    t0 = time.perf_counter()
    while True:
        durations.append(cycle(len(durations)))
        elapsed = time.perf_counter() - t0
        if between is not None:
            between(elapsed)
            elapsed = time.perf_counter() - t0
        if (len(durations) >= min_cycles
                and elapsed + median(durations) > seconds):
            return durations


def run_traced(seconds, min_cycles, plain, traced, between=None):
    """Alternate plain cycles and traced ones until `seconds` are spent.

    Alternating puts both kinds under the same host conditions.  Returns
    the plain and the traced cycles' durations.
    """
    def cycle(i):
        return (plain if i % 2 == 0 else traced)(i // 2)

    durations = run_cycles(seconds, 2 * min_cycles, cycle, between)
    return durations[0::2], durations[1::2]


def with_spans(tracer, cycle, hooks=None):
    """`cycle` run with every public hde function wrapped in a span."""
    def traced(i):
        tracer.install(hooks)
        try:
            return cycle(i)
        finally:
            tracer.restore()
    return traced


def traced_setup(dag_path, tracer):
    """Set the taxonomy up with spans on, for the dag.* per-layer metrics."""
    tracer.install()
    try:
        setup(dag_path, tracer)
    finally:
        tracer.restore()


def node_order(dag):
    """Generator column of each Dag node (generated names end in the index)."""
    return np.array([int(n[1:]) for n in dag.nodes], dtype=np.intp)


def dag_counts(dag, levels):
    return {
        "dag.nodes": len(dag),
        "dag.edges": len(dag.edges),
        "dag.levels": levels.max_level + 1,
        "dag.max_level_width": max(len(v) for v in levels.levels.values()),
    }


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------- batch-tsv

class BatchChecks:
    """Checks of the fit-thresholds -> correct -> validate pipeline outputs."""

    def __init__(self, files, tally, reference):
        self.f = files
        self.tally = tally
        self.same = checks.SameBytes(reference)
        edges = checks.read_edges(files["dag"])
        self.edges = edges
        self.classes = {n for e in edges for n in e}
        with open(files["scores"], encoding="utf-8") as fh:
            next(fh)
            self.example_ids = [ln.split("\t", 1)[0] for ln in fh if ln.strip()]
        self.output_violates = False

    def fit(self, rc):
        probs = [] if rc == 0 else [f"exit code {rc}"]
        if not probs:
            thr = checks.parse_thresholds(self.f["thresholds"])
            if set(thr) != self.classes:
                probs.append("thresholds: class set differs from the taxonomy")
            if not all(0.0 <= v <= 1.0 for v in thr.values()):
                probs.append("value outside [0, 1]")
            probs += self._bytes("thresholds", self.f["thresholds"])
        self.tally.record("fit", probs)

    def correct(self, rc):
        probs = [] if rc == 0 else [f"exit code {rc}"]
        self.output_violates = False
        if not probs:
            ids, cols, values = checks.parse_scores_tsv(self.f["corrected"])
            if ids != self.example_ids or set(cols) != self.classes:
                probs.append("corrected: rows or columns differ from the input")
            else:
                pi, ci = checks.edge_index(self.edges, cols)
                for row in checks.row_problems(values, pi, ci):
                    for p in row:
                        key = p.split(":")[0]
                        if key not in probs:
                            probs.append(key)
                self.output_violates = any(
                    p.startswith("strict") for p in probs)
            probs += self._bytes("corrected", self.f["corrected"])
        self.tally.record("correct", probs)

    def validate(self, rc):
        want = 1 if self.output_violates else 0
        probs = [] if rc == want else [f"exit code {rc}, expected {want}"]
        if rc == 0:
            with open(self.f["validation"], encoding="utf-8") as fh:
                if len(fh.read().splitlines()) != 1:
                    probs.append("validate: exit 0 but violations listed")
        self.tally.record("validate", probs)

    def _bytes(self, key, path):
        with open(path, "rb") as fh:
            return self.same.problems(key, checks.digest(fh.read()))


def batch_argv(f):
    return {
        "fit": ["fit-thresholds", "--dag", f["dag"], "--scores",
                f["train_scores"], "--labels", f["train_labels"],
                "--strategy", "fscore", "-o", f["thresholds"]],
        "correct": ["correct", "--dag", f["dag"], "--scores", f["scores"],
                    "--method", "tpr", "--thresholds-file", f["thresholds"],
                    "-o", f["corrected"]],
        "validate": ["validate", "--dag", f["dag"], "--scores",
                     f["corrected"], "-o", f["validation"]],
    }


STEPS = ("fit", "correct", "validate")


TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_cli.py")


def run_cli(argv):
    """Exit code and wall time of one command-line process."""
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable] + argv,
                        timeout=CLI_TIMEOUT_S).returncode
    return rc, time.perf_counter() - t0


def batch_tsv(spec, tally):
    inp, work = spec["inputs"], spec["work"]
    f = {k: os.path.join(inp, v) for k, v in (
        ("dag", "dag.tsv"), ("train_scores", "train_scores.tsv"),
        ("train_labels", "train_labels.tsv"), ("scores", "scores.tsv"))}
    f.update({k: os.path.join(work, v) for k, v in (
        ("thresholds", "thresholds.tsv"), ("corrected", "corrected.tsv"),
        ("validation", "validation.tsv"))})
    argv = batch_argv(f)
    chk = BatchChecks(f, tally, spec["reference"])
    check = {"fit": chk.fit, "correct": chk.correct, "validate": chk.validate}

    # warm-up: byte-compile hde, fill the file cache
    run_cli(["-c", "import hde.cli"])
    step_times = defaultdict(list)

    def cli_cycle(i):
        total = 0.0
        for step in STEPS:
            rc, dt = run_cli(["-m", "hde.cli"] + argv[step])
            step_times[step].append(dt)
            total += dt
            check[step](rc)
        return total

    dag, levels, setup_times = setup(f["dag"])
    between = Between(f["dag"], setup_times)
    if not spec["trace"]:
        cycles = run_cycles(spec["seconds"], 3, cli_cycle, between)
    else:
        tracer = Tracer()
        traced_setup(f["dag"], tracer)
        spans_path = os.path.join(work, "spans.json")
        traced_steps = defaultdict(list)

        def traced_cycle(i):
            total = 0.0
            for step in STEPS:
                op = tracer.begin_op(step, i)
                rc, dt = run_cli([TRACED_CLI, spans_path] + argv[step])
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                tracer.absorb(child["spans"])
                traced_steps[step].append({
                    "op": op, "wall_s": dt, "import_s": child["import_s"],
                    "outside_s": dt - child["inside_s"]})
                total += dt
                check[step](rc)
            return total

        cycles, traced = run_traced(spec["seconds"], 3, cli_cycle,
                                    traced_cycle, between)
    out = {
        "e2e": between.e2e(median(cycles), median(step_times["correct"]),
                           peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "named": {**between.named(median(cycles),
                                  median(step_times["correct"])),
                  **{f"{s}_s": median(step_times[s]) for s in STEPS}},
        "samples": {"cycles": len(cycles)},
        "raw": {"cycle_s": cycles, "setup_s": setup_times,
                "probe_s": between.probe_s,
                **{f"{s}_s": step_times[s] for s in STEPS}},
        "digests": chk.same.expected,
    }
    if not spec["trace"]:
        return out

    input_bytes = sum(os.path.getsize(f[k]) for k in (
        "train_scores", "train_labels", "scores"))
    layer = per_layer(tracer, dag, levels)
    layer.update({
        "cli.import_s": median([t["import_s"] for ts in traced_steps.values()
                                for t in ts]),
        "scores.bytes_read": input_bytes + os.path.getsize(f["corrected"]),
        "scores.bytes_written": os.path.getsize(f["corrected"]),
        "thresholds.fit_candidates":
            len(chk.classes) * len(hde.thresholds.DEFAULT_GRID),
    })
    out["per_layer"] = layer
    out["accounting"] = accounting(tracer, traced_steps["correct"],
                                   step_times["correct"])
    out["overhead_measured_s"] = median(traced) - median(cycles)
    out["tracer"] = tracer
    return out


def accounting(tracer, traced, untraced):
    """The traced `hde correct` processes, taken apart, against the plain ones.

    A traced process's wall time is the time outside Python's main script
    (interpreter start-up and exit), the import of hde.cli, and the self
    times of all its spans, plus whatever of its run no span covers; its
    spans' tracing overhead is the span count times the measured cost of one
    span.  Plain and traced processes alternate, so both meet the same host
    conditions.
    """
    st = self_times(tracer.spans)
    self_s = defaultdict(float)
    n_spans = defaultdict(int)
    for op, sid, *_ in tracer.spans:
        self_s[op] += st[sid]
        n_spans[op] += 1
    return {
        "untraced_s": median(untraced),
        "traced_s": median([t["wall_s"] for t in traced]),
        "outside_s": median([t["outside_s"] for t in traced]),
        "import_s": median([t["import_s"] for t in traced]),
        "self_s": median([self_s[t["op"]] for t in traced]),
        "overhead_s": median([n_spans[t["op"]] for t in traced]) * span_cost(),
    }


# --------------------------------------------------------------- online-row

def online_row(spec, tally):
    dag_path = os.path.join(spec["inputs"], "dag.tsv")
    dag, levels, setup_times = setup(dag_path)
    between = Between(dag_path, setup_times)
    rows = np.load(os.path.join(spec["inputs"], "rows.npy"))[:, node_order(dag)]
    pi, ci = checks.edge_index(checks.read_edges(dag_path), dag.nodes)
    eq = checks.HtdEquation(pi, ci, len(dag))
    same = checks.SameBytes(spec["reference"])
    cfg = hde.TprConfig(positive_selection="adaptive")

    hde.htd_correct(dag, levels, rows[0])  # warm-up
    hde.tpr_correct(dag, levels, rows[0], cfg)

    def make_cycle(htd_ms, tpr_ms, tracer=None):
        def cycle(i):
            r = i % rows.shape[0]
            row = rows[r]
            if tracer is not None:
                tracer.begin_op("htd_row", i)
            t0 = time.perf_counter()
            h = hde.htd_correct(dag, levels, row)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op("tpr_row", i)
            t1b = time.perf_counter()
            t = hde.tpr_correct(dag, levels, row, cfg)
            t2 = time.perf_counter()
            htd_ms.append((t1 - t0) * 1e3)
            tpr_ms.append((t2 - t1b) * 1e3)
            tally.record("htd_row", checks.row_problems(h, pi, ci)[0]
                         + eq.problems(row, h)
                         + same.problems(f"htd/{r}", checks.digest(h)))
            tally.record("tpr_row", checks.row_problems(t, pi, ci)[0]
                         + same.problems(f"tpr/{r}", checks.digest(t)))
            return (t1 - t0) + (t2 - t1b)
        return cycle

    htd_ms, tpr_ms = [], []
    plain = make_cycle(htd_ms, tpr_ms)
    if spec["trace"]:
        tracer = Tracer()
        traced_setup(dag_path, tracer)
        cycles, traced = run_traced(
            spec["seconds"], 100, plain,
            with_spans(tracer, make_cycle([], [], tracer)), between)
    else:
        cycles = run_cycles(spec["seconds"], 100, plain, between)
    named = between.named(median(cycles), median(tpr_ms) / 1e3)
    for name, xs in (("htd_row", htd_ms), ("tpr_row", tpr_ms)):
        p90 = float(np.percentile(xs, 90))
        named[f"{name}_p50_ms"] = median(xs)
        named[f"{name}_p90_ms"] = p90
        named[f"{name}_beyond_p90"] = sum(x > p90 for x in xs)
    out = {
        "e2e": between.e2e(median(cycles), median(tpr_ms) / 1e3,
                           peak_rss_mb(resource.RUSAGE_SELF)),
        "named": named,
        "samples": {"cycles": len(cycles), "htd_row": len(htd_ms),
                    "tpr_row": len(tpr_ms)},
        "raw": {"cycle_s": cycles, "setup_s": setup_times,
                "probe_s": between.probe_s, "htd_row_ms": htd_ms,
                "tpr_row_ms": tpr_ms},
        "digests": same.expected,
    }
    if spec["trace"]:
        out["per_layer"] = per_layer(tracer, dag, levels)
        out["overhead_measured_s"] = median(traced) - median(cycles)
        out["tracer"] = tracer
    return out


# ----------------------------------------------------------------- iso-deep

def iso_hook(attrs, args, kwargs, result):
    attrs["objective"] = result.objective
    attrs["residual"] = result.residual


def certify_iso(dag, levels, rows, cfg, pi, ci, reference):
    """Run ISO-TPR once, outside any timed region, and certify every row.

    The projection input of each row is captured from the public
    `isotonic_project`.  Returns the rows' digests (which every timed run
    must reproduce), each row's certificate problems and its objective,
    the squared distance to the projection input.
    """
    inputs = []

    def capture(attrs, args, kwargs, result):
        z = kwargs["z"] if "z" in kwargs else args[1]
        inputs.append(np.array(z, dtype=np.float64))

    tracer = Tracer()
    tracer.install({"iso.isotonic_project": capture})
    try:
        out = hde.iso_tpr_correct_matrix(dag, levels, rows, cfg)
    finally:
        tracer.restore()
    digests, problems, objectives = {}, {}, {}
    for r, y in enumerate(out):
        digests[f"iso/{r}"] = checks.digest(y)
        if len(inputs) != len(out):
            problems[r] = ["not the projection: inputs not captured"]
            continue
        key = f"iso_objective/{r}"
        objectives[key] = float(((inputs[r] - y) ** 2).sum())
        problems[r] = (checks.projection_problems(inputs[r], y, pi, ci)
                       + checks.objective_problems(key, objectives[key],
                                                  reference))
    return digests, problems, objectives


def iso_deep(spec, tally):
    dag_path = os.path.join(spec["inputs"], "dag.tsv")
    dag, levels, setup_times = setup(dag_path)
    between = Between(dag_path, setup_times)
    rows = np.load(os.path.join(spec["inputs"], "rows.npy"))[:, node_order(dag)]
    pi, ci = checks.edge_index(checks.read_edges(dag_path), dag.nodes)
    same = checks.SameBytes(spec["reference"])
    cfg_iso = hde.TprConfig(positive_selection="adaptive")
    cfg_lin = hde.TprConfig(positive_selection="adaptive",
                            descendant_mode="descendants-linear")

    # ISO rows have no recorded bytes: a different exact solver may differ
    # in the last bits.  Each row is certified once per run instead, and
    # every timed run must give the certified row's bytes.
    iso_digests, iso_cert, objectives = certify_iso(
        dag, levels, rows, cfg_iso, pi, ci, spec["reference"])
    iso_same = checks.SameBytes(iso_digests)
    hde.tpr_correct_matrix(dag, levels, rows[:1], cfg_lin)  # warm-up

    def make_cycle(iso_s, lin_s, tracer=None):
        def cycle(i):
            if tracer is not None:
                tracer.begin_op("iso_batch", i)
            t0 = time.perf_counter()
            iso = hde.iso_tpr_correct_matrix(dag, levels, rows, cfg_iso)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op("desc_lin_batch", i)
            t1b = time.perf_counter()
            lin = hde.tpr_correct_matrix(dag, levels, rows, cfg_lin)
            t2 = time.perf_counter()
            iso_s.append(t1 - t0)
            lin_s.append(t2 - t1b)
            for r, probs in enumerate(checks.row_problems(iso, pi, ci)):
                tally.record("iso_row", probs + iso_cert[r] + iso_same.problems(
                    f"iso/{r}", checks.digest(iso[r])))
            for r, probs in enumerate(checks.row_problems(lin, pi, ci)):
                tally.record("desc_lin_row", probs + same.problems(
                    f"desc_lin/{r}", checks.digest(lin[r])))
            return (t1 - t0) + (t2 - t1b)
        return cycle

    iso_s, lin_s = [], []
    plain = make_cycle(iso_s, lin_s)
    if spec["trace"]:
        tracer = Tracer()
        traced_setup(dag_path, tracer)
        cycles, traced = run_traced(
            spec["seconds"], 3, plain,
            with_spans(tracer, make_cycle([], [], tracer),
                       {"iso.isotonic_project": iso_hook}), between)
    else:
        cycles = run_cycles(spec["seconds"], 3, plain, between)
    out = {
        "e2e": between.e2e(median(cycles), median(lin_s),
                           peak_rss_mb(resource.RUSAGE_SELF)),
        "named": {**between.named(median(cycles), median(lin_s)),
                  "iso_batch_s": median(iso_s),
                  "desc_lin_batch_s": median(lin_s)},
        "samples": {"cycles": len(cycles), "rows_per_batch": rows.shape[0]},
        "raw": {"cycle_s": cycles, "setup_s": setup_times,
                "probe_s": between.probe_s, "iso_batch_s": iso_s,
                "desc_lin_batch_s": lin_s},
        "digests": {**same.expected, **objectives},
    }
    if spec["trace"]:
        out["per_layer"] = per_layer(tracer, dag, levels)
        out["overhead_measured_s"] = median(traced) - median(cycles)
        out["tracer"] = tracer
    return out


# ---------------------------------------------------------------- per layer

# per-layer metric -> span name whose time per cycle it sums
CYCLE_SUMS = {
    "scores.read_scores_s": "scores.read_scores",
    "scores.align_to_dag_s": "scores.align_to_dag",
    "scores.write_scores_s": "scores.write_scores_stream",
    "scores.validate_rows_s": "scores.check_valid_continuous",
    "scores.count_violations_s": "scores.count_violations",
    "thresholds.fit_fscore_s": "thresholds.fit_fscore",
    "htd.correct_s": "htd.htd_correct_matrix",
    "tpr.correct_s": "tpr.tpr_correct_matrix",
    "tpr.desc_lin_s": "desc_lin_batch|tpr.tpr_correct_matrix",
    "iso.correct_s": "iso.iso_tpr_correct_matrix",
}
# per-layer metric -> span name whose median duration per call it reports
CALL_MEDIANS = {
    "htd.row_s": ("htd.htd_correct", 1.0),
    "tpr.row_s": ("tpr.tpr_correct", 1.0),
    "iso.project_row_ms": ("iso.isotonic_project", 1e3),
}
SETUP_SPANS = ("dag.read_edge_list", "dag.build_dag", "dag.compute_levels")


def per_layer(tracer, dag, levels):
    """Per-layer metrics from the traced cycles' spans (zero where unused).

    Times per cycle are medians over cycles; self time of a layer is the
    time spent in its functions minus the time of the hde calls they make.
    The tracing overhead is the spans per cycle times the measured cost of
    one span.
    """
    st = self_times(tracer.spans)
    cycle = defaultdict(lambda: defaultdict(float))
    setups = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(list)
    iso_rows = defaultdict(list)
    for op, sid, parent, name, start, end, attrs in tracer.spans:
        info = tracer.ops[op]
        dur = end - start
        if info["kind"] == "setup":
            setups[op][name] += dur
            continue
        c = cycle[info["cycle"]]
        c[name.split(".")[0] + ".self"] += st[sid]
        c[name] += dur
        c[f"{info['kind']}|{name}"] += dur
        c["spans"] += 1
        calls[name].append(dur)
        if "objective" in attrs:
            iso_rows[info["cycle"]].append(attrs)

    def over_cycles(key):
        return median([c[key] for c in cycle.values()])

    m = {f"{layer}.self_s": over_cycles(f"{layer}.self") for layer in LAYERS}
    m.update({k: over_cycles(v) for k, v in CYCLE_SUMS.items()})
    m.update({k: median(calls[v]) * scale
              for k, (v, scale) in CALL_MEDIANS.items()})
    m.update({f"{s}_s": median([t[s] for t in setups.values()])
              for s in SETUP_SPANS})
    rows = next(iter(iso_rows.values()), [])  # identical in every cycle
    m["iso.objective_sum"] = sum(a["objective"] for a in rows)
    m["iso.max_residual"] = max((a["residual"] for a in rows), default=0.0)
    m["iso.rows_violating"] = sum(a["residual"] > 0 for a in rows)
    m["trace.overhead_s"] = over_cycles("spans") * span_cost()
    m.update(dag_counts(dag, levels))
    m.update({"cli.import_s": 0.0, "scores.bytes_read": 0,
              "scores.bytes_written": 0, "thresholds.fit_candidates": 0})
    return m


WORKLOADS = {"batch-tsv": batch_tsv, "online-row": online_row,
             "iso-deep": iso_deep}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tally = checks.Tally()
    out = WORKLOADS[spec["workload"]](spec, tally)
    tracer = out.pop("tracer", None)
    if tracer is not None:
        tracer.write(spec["trace_file"])
    out["tally"] = tally.summary()
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "hde_file": hde.__file__,
        "HDE_JOBS": os.environ.get("HDE_JOBS", "unset"),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
