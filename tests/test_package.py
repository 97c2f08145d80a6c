"""The package imports nothing outside the standard library, its
representation matrices never leave the sparse type, its algebras are
read through their sparse structure constants, and the benchmark's
input generators still run on it."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ado"


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "ado" or top in sys.stdlib_module_names, (path.name, name)


def test_package_never_converts_between_dense_and_sparse():
    # from_dense, to_dense and the dense block_diag are a bridge that
    # lives in tests/helpers.py, for tests against the dense reference;
    # the package neither defines nor uses them
    bridge = {"from_dense", "to_dense", "block_diag"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            else:
                continue
            assert name not in bridge, (path.name, node.lineno)


def test_only_lie_reads_the_dense_table():
    # LieAlgebra.table is a dense view built on each read; the package
    # works on LieAlgebra.nonzero
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lie.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "table", (path.name, node.lineno)


@pytest.mark.parametrize("workload", ["module", "rebased", "reductive"])
def test_bench_input_generators_run(workload, tmp_path):
    # a package change that breaks the generators shows here, not first
    # in a benchmark run
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_inputs(workload, 1, tmp_path)
    assert sorted(tmp_path.glob("*.json"))
