"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_first_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
