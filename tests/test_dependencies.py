"""The package imports only the standard library and numpy, as pyproject.toml declares."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mixtrack"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mixtrack"}


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {p.name: sorted(imported_modules(p) - ALLOWED) for p in files}
    assert {name: mods for name, mods in outside.items() if mods} == {}
