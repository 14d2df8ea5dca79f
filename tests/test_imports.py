"""Every name a package module imports is read there or exported by it,
every private top-level name is read in the package, and every name the
benchmark's tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level name no other top-level statement reads.

    ``sources`` maps module names to their source. A private name starts
    with one underscore and is bound by a top-level ``def``, ``class`` or
    assignment. Reads are loaded names and attribute names in any module,
    outside the statement that binds the name, so a helper that only
    calls itself is unread.
    """
    defined = []
    reads = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            read = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            }
            reads.append(read)
            defined += [(module, name, read) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return [f"{module}.{name}" for module, name, own in defined
            if not any(name in read for read in reads if read is not own)]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    a = ("def _used(): ...\ndef _dead(): ...\n"
         "def _self(n):\n    return _self(n - 1)\n_LIMIT: int = 3\n__all__ = []\n")
    b = "from .a import _used, _dead\nimport a\n_used()\nprint(a._LIMIT)\n"
    assert unread_private_names({"a": a, "b": b}) == ["a._dead", "a._self"]


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def missing_traced_names(source: str) -> list[str]:
    """The ``entroflow.<module>.<name>`` entries of a ``LAYERS`` table that do not exist.

    The table is read from the source with ``ast``, so the tracer is not
    imported.
    """
    tree = ast.parse(source)
    tables = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    assert len(tables) == 1, "no single LAYERS table"
    missing = []
    for module, names in ast.literal_eval(tables[0]).items():
        namespace = importlib.import_module(f"entroflow.{module}")
        missing += [f"entroflow.{module}.{n}" for n in names if not hasattr(namespace, n)]
    return missing


def test_every_traced_name_exists():
    assert missing_traced_names(TRACING.read_text()) == []


def test_the_check_sees_a_missing_traced_name():
    source = 'LAYERS = {"lattice": ("gibbs_space", "_gone"), "flows": ("reverse",)}\n'
    assert missing_traced_names(source) == ["entroflow.lattice._gone"]


def test_the_command_line_imports_no_thread_pool():
    # the second thread of a long sum is started only when a sum splits
    probe = (
        "import sys, threading; import entroflow.cli; "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    src = str(Path(entroflow.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.split() == ["False", "1"]
