"""Property tests of every correction method on random DAGs with wide hubs.

The hubs give nodes many children and descendants, so the level plan's
padded blocks come in several summation widths.  For HTD, TPR (threshold
and adaptive selection, the w blend, both descendant modes) and ISO-TPR:
output in [0, 1] with no violation at eps 0, HTD idempotent, and the
isotonic projection no farther from its input than HTD's correction of it
and certified optimal by its KKT residual.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hde import (
    TprConfig,
    build_dag,
    check_valid_continuous,
    compute_levels,
    htd_correct_matrix,
    iso_tpr_correct_matrix,
    tpr_correct_matrix,
)
from hde.tpr import _bottom_up_matrix

from per_node_reference import kkt_residual

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True, database=None)


@st.composite
def wide_taxonomies(draw):
    """(dag, levels): a random recursive tree, forward cross-edges and up
    to three hubs, each with a run of up to 30 later nodes as children."""
    n = draw(st.integers(2, 48))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for hub in draw(st.lists(st.integers(0, n - 2), max_size=3)):
        span = draw(st.integers(1, min(30, n - 1 - hub)))
        edges |= {(hub, j) for j in range(hub + 1, hub + 1 + span)}
    for i in draw(st.lists(st.integers(1, n - 1), max_size=n)):
        edges.add((draw(st.integers(0, i - 1)), i))
    dag = build_dag([(f"n{p}", f"n{c}") for p, c in sorted(edges)])
    return dag, compute_levels(dag)


def configs(n, rng):
    t = rng.uniform(size=n)
    for mode in ("children", "descendants-constant", "descendants-linear"):
        for w in (None, 0.3):
            yield TprConfig(thresholds=t, w=w, descendant_mode=mode)
            yield TprConfig(positive_selection="adaptive", w=w,
                            descendant_mode=mode)


def consistent(dag, out):
    assert ((out >= 0.0) & (out <= 1.0)).all()
    for row in out:
        assert check_valid_continuous(dag, row, eps=0.0).total_count == 0


@PROPERTY_SETTINGS
@given(taxonomy=wide_taxonomies(), rows=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_htd_and_tpr_are_consistent(taxonomy, rows, seed):
    dag, lv = taxonomy
    rng = np.random.default_rng(seed)
    flat = rng.uniform(size=(rows, len(dag)))
    h = htd_correct_matrix(dag, lv, flat)
    consistent(dag, h)
    assert np.array_equal(htd_correct_matrix(dag, lv, h), h)
    for cfg in configs(len(dag), rng):
        consistent(dag, tpr_correct_matrix(dag, lv, flat, cfg))


@PROPERTY_SETTINGS
@given(taxonomy=wide_taxonomies(), seed=st.integers(0, 2 ** 32 - 1),
       pick=st.integers(0, 12))
def test_iso_is_consistent_and_no_farther_than_htd(taxonomy, seed, pick):
    """pick 12 projects the flat row (thresholds of 1 leave the bottom-up
    pass at it), any other the bottom-up output of one of the configs."""
    dag, lv = taxonomy
    rng = np.random.default_rng(seed)
    flat = rng.uniform(size=(1, len(dag)))
    if pick == 12:
        cfg, z = TprConfig(thresholds=np.ones(len(dag))), flat
    else:
        cfg = list(configs(len(dag), rng))[pick]
        z = _bottom_up_matrix(dag, lv, flat, cfg)
    iso = iso_tpr_correct_matrix(dag, lv, flat, cfg)
    consistent(dag, iso)
    htd = htd_correct_matrix(dag, lv, z)
    assert ((iso - z) ** 2).sum() <= ((htd - z) ** 2).sum() + 1e-12
    assert kkt_residual(dag, z[0], iso[0]) <= 1e-9
