"""Every name a package module imports is read there or exported by it."""

import ast
from pathlib import Path

import pytest

import entroflow

MODULES = sorted(Path(entroflow.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and neither read nor listed in ``__all__``.

    ``from __future__`` and star imports bind no name that could be read.
    """
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Sequence, Iterable\ndef f(x: Iterable): ...\n"
    assert unused_imports(source) == ["Sequence"]
    assert unused_imports("from .a import g\n__all__ = ['g']\n") == []
    assert unused_imports("import numpy as np\nimport os.path\nos.sep\n") == ["np"]
