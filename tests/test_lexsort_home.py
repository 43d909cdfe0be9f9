"""The lexsort that repairs events out of canonical order has one home:
``core._lexsort_at``. No other module of the package calls ``np.lexsort``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "evtkit").glob("*.py"))


def lexsort_calls(sources: dict[str, str]) -> list[str]:
    """``file:line`` of each call of ``lexsort``, by attribute (``np.lexsort``)
    or by bare name (``from numpy import lexsort``)."""
    found = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "lexsort":
                    found.append(f"{file}:{node.lineno}")
    return found


def test_checker_finds_each_form_of_the_call():
    sources = {
        "a.py": "import numpy as np\norder = np.lexsort((b, a))\n",
        "b.py": "from numpy import lexsort\n\ndef f(k):\n    return lexsort(k)\n",
        "c.py": "import numpy as np\nsort = np.argsort\nlexsort_keys = 1\n",
    }
    assert lexsort_calls(sources) == ["a.py:2", "b.py:4"]


def test_np_lexsort_is_called_only_in_core():
    calls = lexsort_calls({p.name: p.read_text() for p in SOURCES})
    assert calls and all(call.startswith("core.py:") for call in calls), calls
