"""The README's library sketch runs and prints the values its comments
state."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_prints_its_exact_values():
    code = _sketch()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["3/2", "149555/32768", "16", "3.5056534385343183"]
    assert 16 / (149555 / 32768) == float(printed[-1])
    # each print's comment starts with the value it prints
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(printed)
    for comment, value in zip(comments, printed):
        assert re.match(re.escape(value) + r"\b", comment), (comment, value)
