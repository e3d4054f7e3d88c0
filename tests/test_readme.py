"""The README's Python examples run, and each ``print`` line's comment
starts with exactly what the line prints.  The CLI tour runs the same way:
every command exits 0, and a command's comment starts with the first line
it prints."""

import re
import shlex
import sys
from pathlib import Path

import pytest

from oomid.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
CLI_TOUR = [b for b in re.findall(r"```sh\n(.*?)```", README, re.S) if "\noomid " in b]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block {i}" for i in range(len(BLOCKS))])
def test_print_comments_match_output(block):
    printed = {}  # line number in the block -> the text printed there

    def record(*args, sep=" "):
        printed[sys._getframe(1).f_lineno] = sep.join(map(str, args))

    exec(compile(block, "README.md", "exec"), {"print": record})
    lines = block.splitlines()
    print_lines = {i + 1 for i, line in enumerate(lines) if line.lstrip().startswith("print(")}
    assert printed.keys() == print_lines
    for number, text in printed.items():
        code, _, comment = lines[number - 1].partition("#")
        assert comment.strip().startswith(text), (code.strip(), text)


def test_cli_tour_runs_as_commented(tmp_path, monkeypatch, capsys):
    assert len(CLI_TOUR) == 1
    monkeypatch.chdir(tmp_path)
    commands = [line for line in CLI_TOUR[0].replace("\\\n", " ").splitlines() if line]
    assert len(commands) == 9
    for line in commands:
        code, _, comment = line.partition(" #")
        argv = shlex.split(code)
        if argv[:2] == ["python3", "-c"]:
            exec(argv[2], {})
            continue
        assert argv[0] == "oomid"
        assert main(argv[1:]) == 0, line
        first = capsys.readouterr().out.splitlines()[0]
        if comment:
            assert comment.strip().startswith(first), (line, first)
