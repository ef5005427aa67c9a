import ast
from pathlib import Path

import pytest

import geosketch

MODULES = sorted(Path(geosketch.__file__).parent.glob("*.py"))


def _annotation_names(node: ast.AST):
    """Names inside the quoted annotations below node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def _names(tree: ast.AST):
    """Every name read in tree, and the base name of every attribute chain."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            for ann in [a.annotation for a in args] + [node.returns]:
                if ann is not None:
                    yield from _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_names(node.annotation)


def _exported(tree: ast.Module):
    """The string entries of the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Each name a module imports is read in it or listed in its
    `__all__`: no import is left behind when the code that used it goes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set(_names(tree)) | set(_exported(tree))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"
