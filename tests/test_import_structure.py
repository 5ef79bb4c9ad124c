"""algs is the bottom of the package: every algorithm family, composite
included, is a backend in its table, so it imports only the codec, the OID
table, SLH-DSA and the errors, and never imports lazily."""

import ast
import pathlib

import pqcli

ALGS_PATH = pathlib.Path(pqcli.__file__).with_name("algs.py")
ALLOWED = {"der", "oids", "slhdsa", "errors"}


def _tree():
    return ast.parse(ALGS_PATH.read_text(), filename=str(ALGS_PATH))


def test_algs_has_no_import_inside_a_function():
    lazy = [f"{func.name}: line {node.lineno}"
            for func in ast.walk(_tree())
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lazy == []


def test_algs_imports_only_its_allowed_package_modules():
    imported = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pqcli"):
            imported.add(node.module.partition(".")[2] or "pqcli")
        elif isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[2] or alias.name
                            for alias in node.names if alias.name.startswith("pqcli"))
    assert imported <= ALLOWED, imported - ALLOWED
