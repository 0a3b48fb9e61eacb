"""Check the isotonic projection against an independent oracle and certify it.

The projection of a score vector onto {y : parent >= child on every edge}
is unique, so the exact solver (Lawson-Hanson non-negative least squares
on the dual, with its passive set held as a forest of taxonomy edges) must
agree with the independent alternating-projection oracle.  As an extra
certificate, no randomly sampled feasible point may fit the input better
than the returned solution.
"""

import numpy as np

from hde import build_dag, compute_levels, htd_correct, isotonic_project
from hde.oracles import iso_oracle

rng = np.random.default_rng(0)

# random 12-node taxonomy: a parent tree plus a few cross-edges
names = [f"c{i}" for i in range(12)]
edges = [(names[int(rng.integers(0, i))], names[i]) for i in range(1, 12)]
edges += [("c0", "c7"), ("c2", "c9"), ("c1", "c11")]
dag = build_dag(edges, dedup=True)
levels = compute_levels(dag)

z = rng.uniform(size=len(dag))
exact = isotonic_project(dag, z)
oracle = iso_oracle(dag, z)

print("input            :", z.round(4))
print("exact solver     :", exact.values.round(4))
print("oracle           :", oracle.round(4))
gap = np.abs(exact.values - oracle).max()
print("max oracle gap   :", gap)
print("objective        :", exact.objective)
print("worst residual   :", exact.residual)
print("solver steps     :", exact.iterations)
assert gap <= 1e-6

# sample feasible points: HTD of random vectors is always consistent
samples = np.array([htd_correct(dag, levels, r)
                    for r in rng.uniform(size=(2000, len(dag)))])
best_sampled = ((samples - z) ** 2).sum(axis=1).min()
print("best of 2000 sampled feasible objectives:", best_sampled)
assert best_sampled >= exact.objective - 1e-8
print("no sampled point beats the projection -- optimality certified")
