"""The top-level package exports exactly what the README's Library section
uses, and that section runs as written."""

import re
from pathlib import Path

import hoeffding

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_are_the_readme_library_names():
    block = library_block()
    names = re.search(r"^from hoeffding import (.+)$", block, re.M).group(1)
    documented = {name.strip() for name in names.split(",")}
    assert sorted(hoeffding.__all__) == sorted(documented | {"__version__"})
    exec(compile(block, str(README), "exec"), {})
