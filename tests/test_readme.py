"""The Python examples of README.md run and print what their comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a print call whose comment gives the line it prints
_PRINTED = re.compile(r"^print\(.*\)\s+# (.*)$")


def quickstart_blocks() -> list[str]:
    """The Python code blocks of the README's "Library quickstart" section."""
    text = README.read_text()
    start = text.index("## Library quickstart")
    section = text[start:text.index("\n## ", start + 1)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_quickstart_prints_its_comments():
    blocks = quickstart_blocks()
    assert len(blocks) == 2
    for block in blocks:
        expected = [m.group(1) for m in map(_PRINTED.match, block.splitlines()) if m]
        assert expected, block
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
