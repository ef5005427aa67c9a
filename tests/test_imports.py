import ast
import builtins
from pathlib import Path

import pytest

import geosketch

MODULES = sorted(Path(geosketch.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TESTS = sorted((ROOT / "tests").glob("*.py"))
# The package's modules and the references the tests check it against: no
# import or definition in either outlives its last reader.
CHECKED = MODULES + [ROOT / "tests" / "reference.py"]


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Each name a module of the package or of its tests imports is read in
    it or listed in its `__all__`: no import is left behind when the code
    that used it goes."""
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


# Builtins whose call returns a builtin type: every builtin class but `type`
# and `super`, and the functions that return a str, a number or a list.
_BUILTIN_VALUED = ({n for n, v in vars(builtins).items() if isinstance(v, type)} - {"type", "super"}
                   | {"ascii", "bin", "chr", "format", "hash", "hex", "id", "len", "oct", "ord",
                      "repr", "sorted"})
_DISPLAYS = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
             ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _of_builtin_type(node: ast.expr) -> bool:
    """Whether the expression shows that its value is of a builtin type: a
    literal, a display or comprehension, an f-string, or a call of one of
    `_BUILTIN_VALUED`, such as `bin(i)`."""
    return isinstance(node, _DISPLAYS) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in _BUILTIN_VALUED)


@pytest.fixture(scope="module")
def reads():
    """Per file of the package, its tests and the benchmark: the names it
    reads as a `Name`, those it reads as an attribute, and the names it
    mentions, which add the names it imports and each part of their module
    paths. An attribute of a value of a builtin type (`_of_builtin_type`)
    is not read: `bin(i).count` reads no `count` of the package."""
    out = []
    for path in READERS:
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        attrs = {n.attr for n in nodes
                 if isinstance(n, ast.Attribute) and not _of_builtin_type(n.value)}
        imported = {part for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                    for name in [getattr(n, "module", None) or ""] + [a.name for a in n.names]
                    for part in name.split(".")}
        out.append((names, attrs, names | attrs | imported))
    return out


@pytest.fixture(scope="module")
def subclasses():
    """Each class of the checked files -> the names of it and of its
    subclasses there, direct or not (a base matched by its name)."""
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for path in CHECKED for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)}

    def family(c):
        return {c}.union(*(family(s) for s, bs in bases.items() if c in bs))
    return {c: family(c) for c in bases}


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_every_definition_is_read(path, reads, subclasses):
    """Each function, class and public method the package or the tests'
    references define is read somewhere in the package, its tests or the
    benchmark: no definition outlives its last caller. A function or class
    counts as read where any file reads its name. A method C.m counts only
    where a file reads an attribute m, not of a builtin-typed value, and
    mentions C, a subclass of C, or C's module: a read of `x.m` in a file
    that cannot reach C is some other class's m, and a `Name` m is a
    variable, not the method."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def is_read(name: str) -> bool:
        cls, _, attr = name.rpartition(".")
        if not cls:
            return any(attr in names | attrs for names, attrs, _ in reads)
        reach = subclasses.get(cls, set()) | {path.stem}
        return any(attr in attrs and reach & mentioned for _, attrs, mentioned in reads)

    unread = sorted(f"{name} (line {line})" for name, line in _definitions(tree)
                    if not is_read(name))
    assert not unread, f"{path.name} defines names nothing reads: {', '.join(unread)}"


def test_every_export_has_a_program_reader():
    """Each name of `geosketch.__all__` is read, as a `Name` or as an
    attribute, by a module of the package other than `__init__.py` or by
    the benchmark: the package exports what the CLI, the estimators, the
    oracles and the benchmark run, not what only the tests call."""
    program = [p for p in MODULES if p.name != "__init__.py"]
    program += sorted((ROOT / "perfbench").rglob("*.py"))
    read = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(set(geosketch.__all__) - read)
    assert not unread, f"geosketch exports names no program file reads: {', '.join(unread)}"


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
