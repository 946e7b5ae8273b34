"""The library runs on the Python standard library alone: every absolute
import in ``src/tropsurf`` names a standard module or the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tropsurf"


def absolute_imports(path):
    """(line, top-level module) for each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_standard_or_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 11
    outside = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name != "tropsurf" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os\nfrom . import matroid\ndef f():\n    import numpy.linalg\n")
    assert list(absolute_imports(source)) == [(1, "os"), (4, "numpy")]
    assert "numpy" not in sys.stdlib_module_names
