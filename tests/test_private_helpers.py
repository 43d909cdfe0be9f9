"""No module of the package keeps a private helper that nothing calls: a
module-level ``_name`` function or class must be referenced somewhere in
``src/`` outside its own definition."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evtkit").glob("*.py"))


def referenced_names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, looks up as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """``file:line name`` of each module-level private function or class that
    no top-level statement of ``sources`` other than its own definition
    references."""
    defined, statements = [], []
    for file, source in sources.items():
        for top in ast.parse(source).body:
            statements.append(top)
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and top.name.startswith("_") and not top.name.startswith("__")):
                defined.append((file, top))
    refs = [(top, referenced_names(top)) for top in statements]
    return [f"{file}:{node.lineno} {node.name}" for file, node in defined
            if not any(node.name in names for top, names in refs if top is not node)]


def test_checker_finds_an_unreferenced_helper():
    sources = {
        "a.py": ("def _called(): pass\ndef _unused(): pass\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Imported: pass\ndef _by_attribute(): pass\n"
                 "def __dunder__(): pass\ndef public():\n    return _called()\n"),
        "b.py": "from .a import _Imported\nimport a\nX = a._by_attribute\n",
    }
    assert unreferenced_private(sources) == ["a.py:2 _unused", "a.py:3 _recursive"]


def test_no_unreferenced_private_helper():
    assert unreferenced_private({p.name: p.read_text() for p in SOURCES}) == []
