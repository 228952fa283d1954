"""The exit codes are named once, as ``cli.EXIT_*``; the module docstring
and README's table describe exactly those codes, and every exception that
``cli.main`` maps through ``EXIT_CODES`` lands on one of them;
``python -m conflictfair`` runs ``cli.main`` and exits with its code."""

import os
import pathlib
import re
import subprocess
import sys

import conflictfair
from conflictfair import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def exit_values():
    return sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_") and isinstance(v, int))


def test_docstring_lists_exit_values():
    paragraph = next(p for p in cli.__doc__.split("\n\n") if p.startswith("Exit codes:"))
    listed = re.findall(r"(?:: |, )(\d+) [a-z]", " ".join(paragraph.split()))
    assert sorted(map(int, listed)) == exit_values()


def test_readme_table_lists_exit_values():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("Exit codes:"):].split("\n\n")[1]
    listed = re.findall(r"^\| (\d+) \|", table, re.MULTILINE)
    assert sorted(map(int, listed)) == exit_values()


def test_exception_table_maps_to_exit_values():
    assert cli.EXIT_CODES
    for cls, code in cli.EXIT_CODES.items():
        assert isinstance(cls, type) and issubclass(cls, Exception), cls
        assert code in exit_values(), (cls, code)


def test_module_entry_point_runs_the_cli():
    src = str(pathlib.Path(conflictfair.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "conflictfair", "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
