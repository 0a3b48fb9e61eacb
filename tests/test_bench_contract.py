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
import io
from pathlib import Path

import pytest

import hde._tsv
import hde.cli
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


def test_tsv_module_defines_only_private_names():
    # a public function there would be wrapped by the tracer as `_tsv.*`,
    # moving the time of reading and writing out of `scores.self_s`
    tree = ast.parse(inspect.getsource(hde._tsv))
    names = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    names += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets]
    assert names and all(name.startswith("_") for name in names), names


def test_isotonic_project_takes_z_second():
    # the ISO certificate reads the projection input as kwargs["z"] or args[1]
    assert list(inspect.signature(isotonic_project).parameters)[1] == "z"


def test_level_map_has_max_level_and_levels():
    levels = compute_levels(build_dag([("r", "a"), ("a", "b"), ("r", "b")]))
    assert levels.max_level == 2
    assert levels.levels == {0: ("r",), 1: ("a",), 2: ("b",)}


def test_correct_writes_its_table_in_one_write_scores_stream_call(
        tmp_path, monkeypatch):
    # scores.write_scores_s is the time inside this call: a writer whose
    # formatting ran outside it would leave that metric near 0
    calls = []
    real = hde.cli.write_scores_stream

    def spy(matrix, fh, *args, **kwargs):
        calls.append(matrix)
        return real(matrix, fh, *args, **kwargs)

    monkeypatch.setattr(hde.cli, "write_scores_stream", spy)
    (tmp_path / "dag.tsv").write_text("r\ta\nr\tb\na\tc\nb\tc\n")
    (tmp_path / "scores.tsv").write_text(
        "example\tr\ta\tb\tc\ne1\t0.9\t0.5\t0.7\t0.6\n"
        "e2\t0.4\t0.5\t0.1\t0.6\n")
    out = tmp_path / "out.tsv"
    assert hde.cli.main(["correct", "--dag", str(tmp_path / "dag.tsv"),
                         "--scores", str(tmp_path / "scores.tsv"),
                         "--method", "tpr", "--threshold", "0.5",
                         "-o", str(out)]) == 0
    assert len(calls) == 1
    fh = io.StringIO()
    real(calls[0], fh)
    assert out.read_text(encoding="utf-8") == fh.getvalue()
