"""The README's Python examples run, and each ``print`` line's comment
starts with exactly what the line prints."""

import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


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
