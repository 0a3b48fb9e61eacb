"""Certify the isotonic projection by its optimality conditions.

The projection of a score vector z onto {y : parent >= child on every edge}
is unique.  A feasible y is that projection exactly when, on every level set
L of y (the nodes sharing one value c):

- c is the mean of z over L, so sum_L (z - c) = 0;
- no part of L could rise alone and fit z better: every proper subset S of
  L that is closed upward inside L (for an edge p -> q within L, q in S
  implies p in S) has sum_S (z - c) <= 0.

The exact solver (Lawson-Hanson non-negative least squares on the dual,
with its passive set held as a forest of taxonomy edges) is checked against
these conditions by brute force over the subsets.  As an extra certificate,
no randomly sampled feasible point may fit the input better than the
returned solution.
"""

import itertools

import numpy as np

from hde import build_dag, compute_levels, htd_correct, isotonic_project


def level_sets(y, tol=1e-12):
    """Node indices grouped by value: sorted neighbours within tol chain."""
    order = np.argsort(y, kind="stable")
    groups = [[order[0]]]
    for a, b in zip(order, order[1:]):
        if y[b] - y[a] <= tol:
            groups[-1].append(b)
        else:
            groups.append([b])
    return groups


def certificate_gap(edges, z, y):
    """Largest violation of the optimality conditions; 0 for the projection."""
    gap = 0.0
    for group in level_sets(y):
        members = set(group)
        c = y[group].mean()
        gap = max(gap, abs((z[group] - c).sum()))
        inner = [(p, q) for p, q in edges if p in members and q in members]
        for size in range(1, len(group)):
            for s in map(set, itertools.combinations(group, size)):
                if all(p in s for p, q in inner if q in s):
                    gap = max(gap, (z[list(s)] - c).sum())
    return gap


rng = np.random.default_rng(0)

# random 12-node taxonomy: a parent tree plus a few cross-edges
names = [f"c{i}" for i in range(12)]
edges = [(names[int(rng.integers(0, i))], names[i]) for i in range(1, 12)]
edges += [("c0", "c7"), ("c2", "c9"), ("c1", "c11")]
dag = build_dag(edges, dedup=True)
levels = compute_levels(dag)
index_edges = [(dag.index(p), dag.index(c)) for p, c in dag.edges]

z = rng.uniform(size=len(dag))
exact = isotonic_project(dag, z)
y = exact.values

print("input            :", z.round(4))
print("exact solver     :", y.round(4))
print("level sets       :", len(level_sets(y)))
print("objective        :", exact.objective)
print("worst residual   :", exact.residual)
print("solver steps     :", exact.iterations)
assert all(y[q] <= y[p] for p, q in index_edges)
gap = certificate_gap(index_edges, z, y)
print("certificate gap  :", gap)
assert gap <= 1e-9

# sample feasible points: HTD of random vectors is always consistent
samples = np.array([htd_correct(dag, levels, r)
                    for r in rng.uniform(size=(2000, len(dag)))])
best_sampled = ((samples - z) ** 2).sum(axis=1).min()
print("best of 2000 sampled feasible objectives:", best_sampled)
assert best_sampled >= exact.objective - 1e-8
print("no sampled point beats the projection -- optimality certified")
