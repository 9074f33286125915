"""The top-level package exports exactly what the README's Library section
uses, and that section runs as written; the README's Command line section
names exactly the options of the parser, whose identity bounds and urn
flags are the CLI's name tables; and each submodule exports, and
each class defines as public, only what the package or the acceptance
criteria use."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import hoeffding
from hoeffding import characterization, cli

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


LONG_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def help_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--help"])
    assert exit_info.value.code == 0
    return out.getvalue()


def test_readme_command_line_names_exactly_the_parser_options():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = re.search(r"\{([a-z,-]+)\}", help_text([])).group(1).split(",")
    options = {opt for command in commands for opt in LONG_OPTION.findall(help_text([command]))}
    assert set(LONG_OPTION.findall(section)) == options - {"--help"}


def test_cli_name_tables_match_the_parsers():
    # each identity bound is a flag of identity, and each named urn flag a
    # flag of simulate: a flag the command would not pass on cannot exist
    bounds = {"--" + bound.replace("_", "-")
              for *_, defaults in characterization._IDENTITIES.values() for bound in defaults}
    assert set(LONG_OPTION.findall(help_text(["identity"]))) - {"--help", "--out"} == bounds
    urn_flags = {"--" + flag for flags in cli._URN_FLAGS.values() for flag in flags}
    assert urn_flags <= set(LONG_OPTION.findall(help_text(["simulate"])))


SRC = Path(hoeffding.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")
# the JSON law form that README documents; no command calls it
DOCUMENTED_ONLY = {"laws.law_to_jsonable"}


def _loads(node, skip=None, kinds=(ast.Name, ast.Attribute)):
    # names and attributes read anywhere under node, except inside skip
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
            out.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree):
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def _trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in [*sorted(SRC.glob("*.py")), ACCEPTANCE]}


def test_every_exported_name_is_used():
    # each name in a submodule's __all__ is read by the package or by the
    # acceptance criteria, outside its own definition; docstrings that
    # mention a name do not count, so the walk is over the syntax tree
    trees = _trees()
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


def test_every_public_method_is_used():
    # each public method or property of a class in the package is read as
    # an attribute by the package or by the acceptance criteria, outside
    # its own definition
    trees = _trees()
    unused = []
    for path, tree in trees.items():
        if path == ACCEPTANCE:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if not any(fn.name in _loads(other, fn, ast.Attribute)
                           for other in trees.values()):
                    unused.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert unused == []
