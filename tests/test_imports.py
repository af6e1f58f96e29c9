"""Every module of the library reads each name it imports."""

import ast
import pathlib

import pytest

import tropfan

SRC = pathlib.Path(tropfan.__file__).resolve().parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unread_imports(tree) == []


def test_unread_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unread_imports(tree) == [(1, "math"), (2, "path")]
