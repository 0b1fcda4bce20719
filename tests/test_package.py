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


REPO = Path(__file__).resolve().parent.parent


def _references(path: Path) -> list[tuple[str | None, set[str]]]:
    """Each top-level statement's defined name (or None) and the names it uses.

    A use is a Name, an Attribute or an imported name, so a docstring or a
    comment that mentions a name does not count.
    """
    out = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out.append((owner, names))
    return out


def test_every_public_name_has_a_program_caller():
    # what only tests call belongs in tests/, not in the package; the
    # package's __init__ re-exports names, which is not a use
    callers = [p for p in SOURCES if p.name != "__init__.py"]
    callers += sorted((REPO / "scripts").rglob("*.py")) + sorted((REPO / "perfbench").rglob("*.py"))
    refs = {path: _references(path) for path in callers}
    orphans = []
    for path in SOURCES:
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for name, _ in refs[path]:
            if name is None or name.startswith("_"):
                continue
            if not any(
                name in names
                for caller, statements in refs.items()
                for owner, names in statements
                if not (caller == path and owner == name)
            ):
                orphans.append(f"{path.stem}.{name}")
    assert not orphans, "only tests use: " + ", ".join(orphans)
