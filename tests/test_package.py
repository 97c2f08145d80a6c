"""The package imports nothing outside the standard library, and its
representation matrices never leave the sparse type."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ado"


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
