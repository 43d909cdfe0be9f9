"""No ``cmd_*`` function of the CLI writes or prints by itself: every command
returns through ``cli._finish``, the one path that writes outputs and prints."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "evtkit" / "cli.py"
OUTPUT_CALLS = {"print", "write_events", "write_image", "write_voxel"}


def direct_output_calls(source: str) -> list[str]:
    """``function: call`` for each print, writer or ``.write_text`` call made
    directly in a top-level ``cmd_*`` function."""
    found = []
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id in OUTPUT_CALLS:
                found.append(f"{func.name}: {node.func.id}")
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
                found.append(f"{func.name}: .write_text")
    return found


def test_checker_finds_direct_output():
    source = ("def cmd_a(args):\n    print(1)\n    write_image(x, p)\n"
              "def cmd_b(args):\n    Path(p).write_text('')\n    return _finish([(p, write_events, s)], {})\n"
              "def run():\n    print('error')\n")
    assert direct_output_calls(source) == ["cmd_a: print", "cmd_a: write_image", "cmd_b: .write_text"]


def test_commands_return_through_one_output_path():
    assert direct_output_calls(CLI.read_text()) == []
