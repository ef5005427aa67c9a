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


ROOT = Path(__file__).resolve().parents[1]
READERS = [p for sub in ("src", "tests", "perfbench") for p in sorted((ROOT / sub).rglob("*.py"))]


def _definitions(tree: ast.Module):
    """(name, line) of the module-level functions and classes, and of the
    public non-dunder methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("__"):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.lineno


@pytest.fixture(scope="module")
def read_names():
    """Every name read as a `Name`, and every attribute read, anywhere in
    the package, its tests and the benchmark."""
    names = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_read(path, read_names):
    """Each function, class and public method the package defines is read
    somewhere in the package, its tests or the benchmark: no definition
    outlives its last caller."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(
        f"{name} (line {line})" for name, line in _definitions(tree)
        if name.rpartition(".")[2] not in read_names
    )
    assert not unread, f"{path.name} defines names nothing reads: {', '.join(unread)}"


def _imports_offline(tree: ast.Module) -> bool:
    """Whether a module imports `offline`, in any of the forms `from
    .offline import ...`, `from . import offline` or `import
    geosketch.offline`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.rpartition(".")[2] == "offline" or (
                module in ("", "geosketch") and any(a.name == "offline" for a in node.names)
            ):
                return True
        elif isinstance(node, ast.Import) and any(a.name == "geosketch.offline" for a in node.names):
            return True
    return False


def test_only_the_cli_imports_offline():
    """The exact oracles and the level table sit above the sketches: no
    module but the CLI and the package's namespace imports `offline`, so a
    sketch never depends on the code it is checked against."""
    importers = [p.name for p in MODULES if _imports_offline(ast.parse(p.read_text()))]
    assert set(importers) <= {"cli.py", "__init__.py"}, importers
