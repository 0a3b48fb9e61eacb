"""The benchmark harness's view of the hde API still holds.

`bench/workloads.py` names the spans it reads its per-layer metrics from
as `module.function`.  Its tracer wraps every public function of the hde
modules and names each span after the function's module and name, so a
renamed or moved function would leave its metric at 0 without an error.
The span tables are read with `ast`, not by importing the harness.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from hde import build_dag, compute_levels, isotonic_project

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
TABLES = ("CYCLE_SUMS", "CALL_MEDIANS", "SETUP_SPANS")


def span_tables():
    """{table name: its literal value} for TABLES, from the module's AST."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TABLES):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(TABLES)
    return found


def span_names():
    tables = span_tables()
    names = list(tables["CYCLE_SUMS"].values())
    names += [name for name, _ in tables["CALL_MEDIANS"].values()]
    names += list(tables["SETUP_SPANS"])
    # an op-scoped span is "op|module.function"
    return sorted({name.rpartition("|")[2] for name in names})


@pytest.mark.parametrize("span", span_names())
def test_span_names_a_public_hde_function(span):
    module, _, function = span.partition(".")
    assert function and not function.startswith("_")
    obj = getattr(importlib.import_module(f"hde.{module}"), function, None)
    assert inspect.isfunction(obj), span
    assert (obj.__module__, obj.__name__) == (f"hde.{module}", function)


def test_isotonic_project_takes_z_second():
    # the ISO certificate reads the projection input as kwargs["z"] or args[1]
    assert list(inspect.signature(isotonic_project).parameters)[1] == "z"


def test_level_map_has_max_level_and_levels():
    levels = compute_levels(build_dag([("r", "a"), ("a", "b"), ("r", "b")]))
    assert levels.max_level == 2
    assert levels.levels == {0: ("r",), 1: ("a",), 2: ("b",)}
