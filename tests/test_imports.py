"""Every imported name is used in the module that imports it, and every
private function and module-level private name in src/ is used somewhere
in src/."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.Module):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def used_names(tree: ast.AST):
    """Every name the code reads, including names inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            # a quoted annotation such as "TrackedObject" or Iterable["TrackedObject"]
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= used_names(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_a_quoted_annotation_uses_its_names_and_a_bare_import_does_not():
    tree = ast.parse(
        "from typing import Iterable, List\n"
        "from .pipeline import TrackedObject\n"
        "import os.path\n"
        "def f(objs: 'Iterable[TrackedObject]') -> None: ...\n"
    )
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["List", "os"]


SRC_TREES = {p: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES if ROOT / "src" in p.parents}


def private_functions(tree: ast.Module):
    """Each module-level function whose name starts with an underscore, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node


def referenced_names(tree: ast.AST, skip: ast.AST = None):
    """Every name tree reads, as a bare name or an attribute, outside skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", sorted(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_function_is_called_from_src(path):
    orphans = []
    for fn in private_functions(SRC_TREES[path]):
        # a reference from inside the function itself does not count
        if not any(fn.name in referenced_names(tree, skip=fn) for tree in SRC_TREES.values()):
            orphans.append(f"line {fn.lineno}: {fn.name}")
    assert orphans == []


def test_a_private_function_used_only_by_itself_is_an_orphan():
    tree = ast.parse(
        "def _used(): ...\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def __getattr__(name): ...\n"
        "def public(): return _used()\n"
    )
    fns = list(private_functions(tree))
    assert [fn.name for fn in fns] == ["_used", "_recursive"]
    assert [fn.name for fn in fns if fn.name not in referenced_names(tree, skip=fn)] == ["_recursive"]


def private_assignments(tree: ast.Module):
    """(name, statement) for each name that a module-level assignment binds
    and that starts with an underscore, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id.startswith("_") and not sub.id.endswith("__"):
                        yield sub.id, node


@pytest.mark.parametrize("path", sorted(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_assignment_is_read_from_src(path):
    orphans = []
    for name, node in private_assignments(SRC_TREES[path]):
        # a reference from inside the assignment itself does not count
        if not any(name in referenced_names(tree, skip=node) for tree in SRC_TREES.values()):
            orphans.append(f"line {node.lineno}: {name}")
    assert orphans == []


def test_a_private_table_read_only_by_its_own_assignment_is_an_orphan():
    tree = ast.parse(
        "_TABLE = {'a': 1}\n"
        "_LEFT: int = 0\n"
        "_pair, _other = 1, 2\n"
        "_SELF = [_SELF for _ in ()]\n"
        "__all__ = ['public']\n"
        "def public(): return _TABLE['a'] + _pair\n"
    )
    names = list(private_assignments(tree))
    assert [name for name, _ in names] == ["_TABLE", "_LEFT", "_pair", "_other", "_SELF"]
    assert [name for name, node in names if name not in referenced_names(tree, skip=node)] == [
        "_LEFT",
        "_other",
        "_SELF",
    ]
