"""Static hygiene of the package sources: no unused module-level imports."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soliton_pole_lab"

# (module, name) pairs imported on purpose without a use in the module.
# blowup re-exports track_curve: the benchmark's tracer checks that a name
# imported across modules is traced there too.
ALLOWED = {("blowup", "track_curve")}


def _names_used(tree: ast.Module) -> set[str]:
    """Every bare name read in the module, including names inside quoted
    annotations and the strings listed in __all__."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations ("mp.mpc", "Variant | str | None") and
            # __all__ entries; docstrings rarely parse as expressions.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _module_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level import statements (not __future__)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _names_used(tree)
    return [name for name in _module_imports(tree) if name not in used]


def test_scanner_flags_an_unused_import(tmp_path: Path) -> None:
    src = tmp_path / "mod.py"
    src.write_text(
        "import math\nfrom typing import Callable, Optional\n"
        "def f(x: 'Optional[int]') -> float:\n    return math.pi\n"
    )
    assert unused_imports(src) == ["Callable"]


def test_no_unused_module_imports() -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        (path.stem, name)
        for path in modules
        for name in unused_imports(path)
    }
    assert found - ALLOWED == set()
