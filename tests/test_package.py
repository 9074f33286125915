"""The top-level package exports exactly what the README's Library section
uses, and that section runs as written; and each submodule exports only
what the package or the acceptance criteria use."""

import ast
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


SRC = Path(hoeffding.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")
# the JSON law form that README documents; no command calls it
DOCUMENTED_ONLY = {"laws.law_to_jsonable"}


def _loads(node, skip=None):
    # names and attributes read anywhere under node, except inside skip
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree):
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_used():
    # each name in a submodule's __all__ is read by the package or by the
    # acceptance criteria, outside its own definition; docstrings that
    # mention a name do not count, so the walk is over the syntax tree
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(SRC.glob("*.py")), ACCEPTANCE]}
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        defs = {node.name: node for node in tree.body if hasattr(node, "name")}
        for name in _exported(tree):
            if not any(name in _loads(other, defs.get(name) if other is tree else None)
                       for other in trees.values()):
                unused.append(f"{path.stem}.{name}")
    assert sorted(unused) == sorted(DOCUMENTED_ONLY)
