"""The package imports nothing outside the standard library and uses
every name it imports, keeps ado.jordan a matrix routine, keeps one
matrix type, reads its algebras through
their sparse structure constants, brackets and rebases sparse vectors,
never mutates a subspace's span and turns every internal ValueError into
a TripwireError, and the benchmark's input generators and traced path
still run on it."""

import ast
import importlib.util
import json
import re
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


def test_jordan_is_a_matrix_routine():
    # ado.jordan splits a matrix; whether the parts are derivations of an
    # algebra is checked where the extension is built, so it needs no
    # algebra layer
    names = []
    for node in ast.walk(ast.parse((SRC / "jordan.py").read_text(), filename="jordan.py")):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module if node.level == 0 else f"ado.{node.module}")
    assert {name for name in names if name.partition(".")[0] == "ado"} == {"ado.linalg", "ado.errors"}


def test_package_never_converts_between_dense_and_sparse():
    # block_diag is a dense reference in tests/helpers.py, and from_dense
    # and to_dense name a dense-to-sparse bridge; the package builds its
    # block diagonals with sparse_block_diag and uses none of these
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


def test_package_has_one_matrix_type():
    # Matrix is the one matrix type, and SparseSpan the one echelon form
    for path in sorted(SRC.glob("*.py")):
        found = re.findall(r"SparseMatrix|rref|_of_rows", path.read_text())
        assert not found, (path.name, found)


def test_only_lie_reads_the_dense_table():
    # LieAlgebra.table is a dense view built on each read; the package
    # works on LieAlgebra.nonzero
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lie.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "table", (path.name, node.lineno)


def test_package_makes_no_dense_brackets():
    # LieAlgebra.bracket is a dense view over the sparse _bracket, kept for
    # tests and the benchmark's input generators; the package brackets
    # {index: value} dicts
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "bracket", (path.name, node.lineno)


# linalg's dense boundary, for tests and the benchmark's input generators
DENSE_FUNCTIONS = {"solve", "unit_vector"}
DENSE_ATTRIBUTES = {"from_columns", "from_vectors", "apply", "column", "basis", "vectors"}


def test_package_keeps_vectors_sparse_outside_linalg():
    # vectors are {index: value} dicts and coordinates_in is the one change
    # of basis; the dense Matrix(rows) constructor is linalg's alone too
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                assert node.id not in DENSE_FUNCTIONS, (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    assert alias.name not in DENSE_FUNCTIONS, (path.name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in DENSE_ATTRIBUTES, (path.name, node.lineno)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "Matrix", (path.name, node.lineno)


def test_package_uses_every_name_it_imports():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(set(imported) - used)
        assert not unused, (path.name, [(name, imported[name]) for name in unused])


def _is_span(node):
    # x.span or x.span.rows
    if isinstance(node, ast.Attribute) and node.attr == "rows":
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "span"


def test_nothing_mutates_a_subspace_span():
    # an algebra hands the same memoised Subspace to every caller, so a
    # change to its span would corrupt every later reader; only
    # Subspace.__init__ sets it
    mutators = {"add", "update", "pop", "popitem", "clear", "setdefault"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Subspace":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        allowed = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        assert not _is_span(part), (path.name, node.lineno)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in mutators:
                    assert not _is_span(node.func.value), (path.name, node.lineno)
                if node.func.attr == "__setattr__" and len(node.args) > 1:
                    name = node.args[1]
                    assert not (isinstance(name, ast.Constant) and name.value == "span"), (
                        path.name,
                        node.lineno,
                    )


# internal calls that raise ValueError on a basis or a matrix the
# construction should never produce
GUARDED_CALLS = {
    "subalgebra_on_basis",
    "subalgebra_and_derivations",
    "coordinates_in",
    "jc_decompose",
}


def _handles_value_error(node):
    if isinstance(node, ast.With):
        return any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "id", None) == "as_tripwire"
            for item in node.items
        )
    if isinstance(node, ast.Try):
        for handler in node.handlers:
            names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if any(getattr(name, "id", None) == "ValueError" for name in names):
                return True
    return False


def _unguarded_calls(node, guarded=False):
    # a Try guards its body only, not its handlers or else branch
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in GUARDED_CALLS and not guarded:
            yield node.lineno
    if isinstance(node, ast.FunctionDef) and node.name == "reductive_representation":
        # its ValueError is its contract, and its one caller turns it into
        # a TripwireError
        return
    if isinstance(node, ast.Try) and _handles_value_error(node):
        for child in node.body:
            yield from _unguarded_calls(child, True)
        for child in [*node.handlers, *node.orelse, *node.finalbody]:
            yield from _unguarded_calls(child, guarded)
        return
    guarded = guarded or _handles_value_error(node)
    for child in ast.iter_child_nodes(node):
        yield from _unguarded_calls(child, guarded)


def test_internal_value_errors_become_tripwires():
    # a ValueError out of the construction is a bug: it must end as a
    # TripwireError naming its stage, not as a traceback
    unguarded = {
        name: list(_unguarded_calls(ast.parse((SRC / name).read_text(), filename=name)))
        for name in ("expansion.py", "decompose.py", "pipeline.py")
    }
    assert not any(unguarded.values()), unguarded


def load_bench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["module", "rebased", "reductive"])
def test_bench_input_generators_run(workload, tmp_path):
    # a package change that breaks the generators shows here, not first
    # in a benchmark run
    inputs = load_bench_module("inputs")
    inputs.write_inputs(workload, 1, tmp_path)
    assert sorted(tmp_path.glob("*.json"))


def test_bench_traced_path_runs(tmp_path):
    # the tracer wraps the package's functions and methods by name, so a
    # rename that breaks it shows here, not first in a benchmark run
    from ado import cli

    tracing = load_bench_module("tracer")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.ROOT_COMPUTE):
            code = cli.main(["compute", "--catalog", "t3", "-o", str(tmp_path / "t3.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    summary = tracer.summarize()
    assert summary["linalg.matmul_calls"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(summary) <= {metric["name"] for metric in declared}
