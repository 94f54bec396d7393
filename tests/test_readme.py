"""README's library quick start runs as written and prints what it shows."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "3 2\n3 3 2\n"
