"""No ``cmd_*`` function of the CLI writes or prints by itself: every command
returns through ``cli._finish``, the one path that writes outputs and prints.
Only ``_finish`` moves or removes files, so a failed command's clean-up has one
home."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "evtkit" / "cli.py"
OUTPUT_CALLS = {"print", "write_events", "write_image", "write_voxel"}
REMOVAL_METHODS = {"unlink", "replace", "rename", "rmdir"}


def direct_output_calls(source: str) -> list[str]:
    """``function: call`` for each print, writer or ``.write_text`` call made
    directly in a top-level ``cmd_*`` function, and for each ``.unlink``,
    ``.replace``, ``.rename`` or ``.rmdir`` call made outside ``_finish``."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr in REMOVAL_METHODS:
                if name != "_finish":
                    found.append(f"{name}: .{func.attr}")
            elif name.startswith("cmd_"):
                if isinstance(func, ast.Name) and func.id in OUTPUT_CALLS:
                    found.append(f"{name}: {func.id}")
                elif isinstance(func, ast.Attribute) and func.attr == "write_text":
                    found.append(f"{name}: .write_text")
    return found


def test_checker_finds_direct_output():
    source = ("def cmd_a(args):\n    print(1)\n    write_image(x, p)\n"
              "def cmd_b(args):\n    Path(p).write_text('')\n    return _finish([(p, write_events, s)], {})\n"
              "def run():\n    print('error')\n"
              "def _finish(outputs):\n    p.replace(q)\n    p.unlink()\n    d.rmdir()\n"
              "def _helper(p):\n    p.rename(q)\n    p.unlink(missing_ok=True)\n"
              "def cmd_c(args):\n    Path(args.out).replace(args.old)\n"
              "Path('x').rmdir()\n")
    assert direct_output_calls(source) == ["cmd_a: print", "cmd_a: write_image", "cmd_b: .write_text",
                                           "_helper: .rename", "_helper: .unlink", "cmd_c: .replace",
                                           "<module>: .rmdir"]


def test_commands_return_through_one_output_path():
    assert direct_output_calls(CLI.read_text()) == []
