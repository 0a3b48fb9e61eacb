"""Deterministic input generator for the hde benchmark.

Everything here depends only on the seed and the size arguments, so the same
seed always produces byte-identical files.  The generator uses numpy only and
never imports hde: the program under test receives nothing but the files.

Two taxonomy shapes:

* ``go_like``: a random recursive tree plus forward cross-edges (the shape of
  ``random_dag`` in the test suite), about two edges per node and a few dozen
  max-distance levels, like the Gene Ontology.
* ``deep_narrow``: a long chain of narrow levels (one to four nodes each)
  with skip edges across up to four levels, of an exact size.  Every node
  has a parent on the level right above it, so its level is known by
  construction.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

SCORE_FMT = "%.6f"


def go_like(rng, n_nodes, extra_edges):
    """(names, edges) of a random tree plus forward cross-edges."""
    names = [f"c{i:05d}" for i in range(n_nodes)]
    parents = [int(rng.integers(0, i)) for i in range(1, n_nodes)]
    edges = [(p, i) for i, p in enumerate(parents, start=1)]
    seen = set(edges)
    for _ in range(extra_edges):
        i = int(rng.integers(1, n_nodes))
        e = (int(rng.integers(0, i)), i)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return names, edges


def deep_narrow(rng, n_nodes, n_levels, n_skips, max_width=4, max_skip=4):
    """(names, edges) of a deep DAG whose levels hold 1..max_width nodes.

    Node, level and edge counts are exact, so every seed gives the same
    problem size: every node below the root has one parent on the level
    above, and `n_skips` of them one more parent 2..max_skip levels up.
    """
    slots = np.repeat(np.arange(n_levels - 1), max_width - 1)
    extra = rng.choice(slots.size, n_nodes - n_levels, replace=False)
    widths = 1 + np.bincount(slots[extra], minlength=n_levels - 1)
    levels = [[0]]
    n = 1
    for w in widths.tolist():
        levels.append(list(range(n, n + w)))
        n += w
    edges = [(int(rng.choice(levels[d - 1])), c)
             for d in range(1, n_levels) for c in levels[d]]
    depth = {c: d for d in range(n_levels) for c in levels[d]}
    for c in sorted(rng.choice(np.arange(1 + len(levels[1]), n_nodes), n_skips,
                               replace=False).tolist()):
        d = depth[c]
        up = int(rng.integers(2, min(max_skip, d) + 1))
        edges.append((int(rng.choice(levels[d - up])), c))
    names = [f"d{i:04d}" for i in range(n_nodes)]
    return names, edges


def max_distance_levels(n_nodes, edges):
    """Longest root distance of every node (edges go from lower to higher id)."""
    parents = [[] for _ in range(n_nodes)]
    for p, c in edges:
        parents[c].append(p)
    dist = np.zeros(n_nodes, dtype=np.int64)
    for c in range(1, n_nodes):  # both shapes number parents before children
        dist[c] = 1 + max(dist[p] for p in parents[c])
    return dist


def ancestor_closed_labels(rng, n_nodes, edges, n_rows, cover=False):
    """0/1 rows, each the ancestor closure of a few random nodes.

    With `cover`, every node seeds exactly one row instead, so every class
    has a positive example and the work of threshold fitting, which skips
    classes without positives, is the same for every seed.
    """
    parents = [[] for _ in range(n_nodes)]
    for p, c in edges:
        parents[c].append(p)
    if cover:
        seeds = np.array_split(rng.permutation(n_nodes), n_rows)
    else:
        seeds = [rng.integers(0, n_nodes, size=1 + rng.poisson(3.0))
                 for _ in range(n_rows)]
    labels = np.zeros((n_rows, n_nodes), dtype=np.int8)
    for r in range(n_rows):
        stack = list(seeds[r])
        while stack:
            n = int(stack.pop())
            if not labels[r, n]:
                labels[r, n] = 1
                stack.extend(parents[n])
    return labels


def noisy_scores(rng, labels):
    """Flat classifier scores: informative about the labels, with noise.

    Rounded to six decimals, as a classifier's TSV export would be, so the
    text and the float64 matrix hold exactly the same values.
    """
    raw = 0.3 + 0.4 * labels + rng.normal(0.0, 0.2, size=labels.shape)
    return np.round(np.clip(raw, 0.0, 1.0), 6)


def violations(values, edges):
    """Number of (row, edge) pairs whose child score exceeds its parent's."""
    e = np.asarray(edges, dtype=np.intp)
    values = np.atleast_2d(values)
    return int((values[:, e[:, 1]] > values[:, e[:, 0]]).sum())


def write_edges(path, names, edges):
    with open(path, "w", encoding="utf-8") as fh:
        for p, c in edges:
            fh.write(f"{names[p]}\t{names[c]}\n")


def write_matrix_tsv(path, names, values, column_order, row_prefix, fmt):
    """Scores/labels TSV with columns permuted by `column_order`."""
    cols = [names[j] for j in column_order]
    v = values[:, column_order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("example\t" + "\t".join(cols) + "\n")
        for r in range(v.shape[0]):
            fh.write(f"{row_prefix}{r:05d}\t"
                     + "\t".join([fmt % x for x in v[r].tolist()]) + "\n")


def shape_props(names, edges, flat):
    dist = max_distance_levels(len(names), edges)
    return {
        "nodes": len(names),
        "edges": len(edges),
        "levels": int(dist.max()) + 1,
        "max_level_width": int(np.bincount(dist).max()),
        "flat_violations": violations(flat, edges),
        "flat_rows": int(np.atleast_2d(flat).shape[0]),
    }


def generate(kind, seed, out_dir, **size):
    """Write one workload's inputs into `out_dir`; return their properties.

    kind "batch": dag.tsv, train_scores.tsv, train_labels.tsv, scores.tsv.
    kind "online": dag.tsv, rows.npy (a pool of flat rows in node order).
    kind "deep": dag.tsv, rows.npy (one batch of flat rows in node order).
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    if kind in ("batch", "online"):
        names, edges = go_like(rng, size["nodes"], size["extra_edges"])
    elif kind == "deep":
        names, edges = deep_narrow(rng, size["nodes"], size["levels"],
                                   size["skips"])
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    write_edges(os.path.join(out_dir, "dag.tsv"), names, edges)
    n = len(names)
    files = ["dag.tsv"]
    if kind == "batch":
        order = rng.permutation(n)
        train_l = ancestor_closed_labels(rng, n, edges, size["train_rows"],
                                         cover=True)
        train_s = noisy_scores(rng, train_l)
        test_s = noisy_scores(
            rng, ancestor_closed_labels(rng, n, edges, size["rows"]))
        write_matrix_tsv(os.path.join(out_dir, "train_labels.tsv"), names,
                         train_l, order, "train", "%d")
        write_matrix_tsv(os.path.join(out_dir, "train_scores.tsv"), names,
                         train_s, order, "train", SCORE_FMT)
        write_matrix_tsv(os.path.join(out_dir, "scores.tsv"), names,
                         test_s, order, "ex", SCORE_FMT)
        files += ["train_labels.tsv", "train_scores.tsv", "scores.tsv"]
        flat = test_s
    else:
        flat = noisy_scores(
            rng, ancestor_closed_labels(rng, n, edges, size["rows"]))
        np.save(os.path.join(out_dir, "rows.npy"), flat)
        files.append("rows.npy")
    props = shape_props(names, edges, flat)
    digest = hashlib.sha256()
    props["bytes"] = {}
    for f in files:
        with open(os.path.join(out_dir, f), "rb") as fh:
            data = fh.read()
        digest.update(f.encode() + b"\0" + data)
        props["bytes"][f] = len(data)
    props["inputs_sha256"] = digest.hexdigest()
    return props
