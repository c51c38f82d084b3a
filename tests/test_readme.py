"""The README's Python quick example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_example():
    """The source of the README's one ```python block."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    return block


def test_quick_example_prints_its_comments():
    source = quick_example()
    # each print's comment starts with what it prints, up to a ": " remark
    expected = [line.split("# ", 1)[1].split(": ")[0]
                for line in source.splitlines() if line.startswith("print(")]
    assert expected == ["14", "Z + Z + Z14", "Z14", "(14,)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
