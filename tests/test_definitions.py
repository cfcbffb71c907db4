"""Every top-level function and class of the package, and every import in
`src` and `tests`, is used somewhere.

A definition counts as used when its own module names it outside the
definition, when another file imports it by name or reaches it as an
attribute of its module (`formula.Record`), or when a string names it as
`qbfgames.<module>:<name>`, the way perfbench and `[project.scripts]` do.
An imported name counts as used when its module names it, or when such a
string names it in that module: perfbench's tracer patches
`qbfgames.solver:simplify`, which `solver` imports for it alone.

Every exception class of the package is a ValueError but for the two the
CLI maps to exit codes of their own, so the CLI reads all bad input as one
type.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import qbfgames

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbfgames"


def module_name(path):
    return path.parent.name if path.name == "__init__.py" else path.stem


def references(nodes):
    """(module or None, name) pairs that the syntax trees `nodes` refer to."""
    found = set()
    for node in (inner for outer in nodes for inner in ast.walk(outer)):
        if isinstance(node, ast.Name):
            found.add((None, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update((node.module.split(".")[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            value = node.value
            owner = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
            found.add((owner, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"qbfgames\.(\w+):(\w+)", node.value))
    return found


def parse_sources():
    """Syntax tree of every Python file in src, tests and perfbench."""
    sources = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def test_every_top_level_definition_is_used():
    trees = parse_sources()
    refs = {path: references([tree]) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        elsewhere = set().union(*(r for other, r in refs.items() if other != path))
        body = trees[path].body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {name for _, name in references(n for n in body if n is not node)}
            if node.name not in own and (module, node.name) not in elsewhere:
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_every_import_is_used():
    trees = parse_sources()
    named = set().union(*(
        re.findall(r"qbfgames\.(\w+):(\w+)", node.value)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ))
    unused = []
    for path, tree in sorted(trees.items()):
        if path.parent.name == "perfbench":
            continue
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = module_name(path)
        unused += [
            f"{path.relative_to(ROOT)}: {name}"
            for name in bound
            if name not in used and (module, name) not in named
        ]
    assert unused == []


def test_every_input_error_is_a_value_error():
    submodules = pkgutil.walk_packages(qbfgames.__path__, "qbfgames.")
    modules = ["qbfgames", *(module.name for module in submodules)]
    defined = {
        cls.__name__: cls
        for name in modules
        for cls in vars(importlib.import_module(name)).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == name
    }
    others = [name for name, cls in defined.items() if not issubclass(cls, ValueError)]
    assert sorted(others) == ["BudgetExceededError", "IllegalMoveError"]
