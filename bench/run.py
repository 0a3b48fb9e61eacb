"""hde benchmark: generate inputs from a seed, run a workload, check it, report.

    python3 bench/run.py --workload batch-tsv --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Without --workload every workload runs in
turn.  Each workload runs in a fresh child process against the checkout's
src/ (PYTHONPATH), with HDE_JOBS unset and BLAS pinned to one thread.  The
lines before the last describe the run for people; the last line is one
JSON object with the keys correct, attempted, failed and metrics, where the
metrics are the end-to-end ones of BENCHMARK.json (--trace 0) or its
per-layer ones (--trace 1).  Inputs, results and spans go to .bench_out/.

    python3 bench/run.py --record-reference

re-records the HTD/TPR output digests of the default seed in
bench/reference.json; do that only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 170

# Why each workload exists: see README.md next to this file.
WORKLOADS = {
    "batch-tsv": ("batch", dict(nodes=2500, extra_edges=2500, rows=200,
                                train_rows=200)),
    "online-row": ("online", dict(nodes=5000, extra_edges=5000, rows=64)),
    "iso-deep": ("deep", dict(nodes=400, levels=160, skips=240, rows=12)),
}


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "HDE_JOBS"}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    return env


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS)"}


def load_reference(workload, props, seed):
    """Recorded digests for these exact inputs, or {} for other inputs."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload)
    except FileNotFoundError:
        ref = None
    if not ref:
        return {}, None
    if ref["inputs_sha256"] == props["inputs_sha256"]:
        return ref["digests"], None
    if seed == DEFAULT_SEED:
        return {}, "reference.json was recorded for other default-seed inputs"
    return {}, None


def run_workload(workload, seed, seconds, trace, root, out_dir, size=None):
    """Generate inputs, run the workload child, return its result dict."""
    kind, default_size = WORKLOADS[workload]
    inputs = os.path.join(out_dir, "inputs", workload)
    work = os.path.join(out_dir, "work", workload)
    for d in (inputs, work):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    props = gen.generate(kind, seed, inputs, **(size or default_size))
    reference, stale = load_reference(workload, props, seed)
    tag = f"{workload}-s{seed}-t{trace}"
    spec = {"workload": workload, "inputs": inputs, "work": work,
            "seconds": seconds, "trace": trace, "reference": reference,
            "trace_file": os.path.join(out_dir, "results", tag + ".spans.jsonl")}
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), spec_path,
         result_path], cwd=root, env=child_env(root), stdout=sys.stderr,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["inputs"] = props
    result["reference"] = ("default-seed digests" if reference else
                           "none for these inputs; outputs must repeat")
    result["stale_reference"] = stale
    result["env"].update(machine())
    with open(os.path.join(out_dir, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def result_line(result, spec, trace):
    """The last output line: correct, attempted, failed and metrics."""
    values = result["per_layer"] if trace else result["e2e"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    tally = result["tally"]
    correct = not tally["unexpected"] and not result["stale_reference"]
    return {"correct": correct, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def describe(workload, result):
    """Human-readable lines: inputs, environment, every metric with its unit."""
    p = result["inputs"]
    lines = [f"# {workload} inputs: nodes={p['nodes']} edges={p['edges']} "
             f"levels={p['levels']} max_level_width={p['max_level_width']} "
             f"flat_violations={p['flat_violations']} bytes={p['bytes']}",
             f"# env: {json.dumps(result['env'], sort_keys=True)}",
             f"# reference: {result['reference']}"]
    units = {"_s": "s", "_ms": "ms", "_mb": "MB", "_factor": "x"}
    rows = list(result["e2e"].items()) + list(result["named"].items())
    for name, v in rows:
        unit = next((u for suf, u in units.items() if name.endswith(suf)),
                    "count")
        lines.append(f"{workload}\t{name}\t{v:.6g}\t{unit}")
    lines.append(f"{workload}\tsamples\t{json.dumps(result['samples'])}")
    t = result["tally"]
    lines.append(f"{workload}\tfail_frac\t{t['fail_frac']:.6g}\t"
                 f"({t['failed']}/{t['attempted']}) {json.dumps(t['failures'])}")
    for name, v in sorted(result.get("per_layer", {}).items()):
        lines.append(f"{workload}\ttrace\t{name}\t{v:.6g}")
    if "overhead_measured_s" in result:
        lines.append(
            f"{workload}\ttrace overhead per cycle: computed (spans x cost of "
            f"one span) {result['per_layer']['trace.overhead_s']:.6f} s, "
            f"measured (traced - plain cycle median, alternating) "
            f"{result['overhead_measured_s']:+.4f} s")
    if "accounting" in result:
        a = result["accounting"]
        parts = a["outside_s"] + a["import_s"] + a["self_s"]
        lines.append(
            f"{workload}\taccounting\thde correct: outside the script "
            f"{a['outside_s']:.4f} s + import {a['import_s']:.4f} s + span "
            f"self times {a['self_s']:.4f} s = {parts:.4f} s; traced process "
            f"{a['traced_s']:.4f} s, untraced process {a['untraced_s']:.4f} s "
            f"(difference {parts - a['untraced_s']:+.4f} s, tracing overhead "
            f"{a['overhead_s']:.6f} s)")
    return lines


def record_reference(root, out_dir):
    ref = {}
    for w in WORKLOADS:
        r = run_workload(w, DEFAULT_SEED, 1, 0, root, out_dir)
        if r["tally"]["unexpected"]:
            raise RuntimeError(f"{w}: failures {r['tally']['unexpected']}")
        ref[w] = {"inputs_sha256": r["inputs"]["inputs_sha256"],
                  "digests": r["digests"]}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hde", "cli.py")):
        print("error: run from the root of an hde checkout (no src/hde/cli.py)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    if args.record_reference:
        record_reference(root, out_dir)
        return 0
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    names = [args.workload] if args.workload else list(WORKLOADS)
    lines = {}
    for w in names:
        result = run_workload(w, args.seed, args.seconds, args.trace, root,
                              out_dir)
        print("\n".join(describe(w, result)), flush=True)
        lines[w] = result_line(result, spec, args.trace)
    print(json.dumps(lines[names[0]] if args.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
