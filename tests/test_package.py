"""Properties of the package as a whole rather than of one module."""
import ast
import sys
from pathlib import Path

import scmc

SOURCES = sorted(Path(scmc.__file__).parent.glob("*.py"))


def test_runtime_imports_are_standard_library():
    # scmc runs on the standard library alone; only tests and tools may
    # import anything else
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "scmc", (path.name, name)
