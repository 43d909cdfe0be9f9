"""No function or lambda of the package takes a parameter that its body never
reads: a parameter that nothing reads is a setting that nothing obeys."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evtkit").glob("*.py"))


def unused_parameters(source: str) -> list[str]:
    """``line name: parameter`` for each parameter of a function or lambda in
    ``source`` that no expression in its body (nested functions included)
    reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        name = getattr(node, "name", "<lambda>")
        found += [f"line {node.lineno} {name}: {a.arg}" for a in params if a and a.arg not in read]
    return found


def test_checker_finds_an_unused_parameter():
    source = ("def f(a, b, *args, c, **kw):\n    return a + c\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n"
              "h = lambda p, q: p\n"
              "class C:\n    def m(self, v):\n        return v\n")
    assert unused_parameters(source) == [
        "line 1 f: b", "line 1 f: args", "line 1 f: kw", "line 7 <lambda>: q", "line 9 m: self"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_parameter(path):
    assert unused_parameters(path.read_text()) == []
