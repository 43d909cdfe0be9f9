"""The code-line counter in ``tools/code_lines.py``, on a sample source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment after code


# a comment line
def f(a,
      b):
    """One-line docstring."""
    text = """a string
that spans lines"""
    return (a +
            b)


class C:
    """Class docstring."""

    def g(self):
        "Single-quoted docstring."
        pass
'''


def test_counts_tokens_and_leaves_out_docstrings_comments_and_blanks():
    # code: import, def f (2 lines), text (2 lines), return (2 lines), class C, def g, pass
    assert code_lines.count_lines(SAMPLE) == (len(SAMPLE.splitlines()), 10)


def test_a_string_that_is_not_first_is_code():
    assert code_lines.count_lines('x = 1\n"""not a docstring"""\n') == (2, 2)


def test_main_prints_a_total_for_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", str(len(SAMPLE.splitlines())), "10"], ["b.py", "1", "1"],
                        ["total", str(len(SAMPLE.splitlines()) + 1), "11"]]
