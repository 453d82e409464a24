"""No module of the package imports a name it never uses.

A top-level import whose name is unused fails here unless its statement
carries ``# noqa: F401`` on its first line or the name is listed in the
module's ``__all__``. Names used only inside string annotations count as
used. An unused name kept by ``# noqa: F401`` must be one the benchmark
wraps by that module's name: a ``Binding(module, "name", ...)`` in
``perfbench/workloads.py``, which is read as source, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geomimic"
WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Names an import statement binds in its module."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _string_annotations(tree: ast.Module):
    """Parsed forms of every quoted annotation, e.g. ``-> "TrainConfig"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for root in [tree, *_string_annotations(tree)]:
        used.update(n.id for n in ast.walk(root) if isinstance(n, ast.Name))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(path: Path, waived: bool) -> list[str]:
    """``line: name`` of every unused top-level import in one file whose
    statement does (waived) or does not carry ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree) | _exported(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if ("# noqa: F401" in lines[node.lineno - 1]) is not waived:
            continue
        found += [f"{node.lineno}: {name}" for name in _bound_names(node) if name not in used]
    return found


def unused_imports(path: Path) -> list[str]:
    """``line: name`` of every unused top-level import in one file."""
    return _unused(path, waived=False)


def waived_imports(path: Path) -> set[str]:
    """Unused imported names that ``# noqa: F401`` keeps in one file."""
    return {entry.split(": ")[1] for entry in _unused(path, waived=True)}


def perfbench_bindings(workloads: Path = WORKLOADS) -> dict[str, set[str]]:
    """Names each package module's file has wrapped by a ``Binding(module, "name", ...)``."""
    tree = ast.parse(workloads.read_text())
    files = {
        alias.asname: alias.name.split(".")[-1] + ".py"
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname
    }
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Binding"):
            continue
        owner, attr = node.args[:2]
        if isinstance(owner, ast.Name) and owner.id in files:
            bound.setdefault(files[owner.id], set()).add(ast.literal_eval(attr))
    return bound


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_waived_imports_are_bound_by_perfbench(path):
    assert waived_imports(path) <= perfbench_bindings().get(path.name, set())


def test_bindings_read_by_module(tmp_path):
    workloads = tmp_path / "workloads.py"
    workloads.write_text(
        "import geomimic.training as training\n"
        "import geomimic.scene as scene\n"
        "B = [Binding(training, 'p2p_error', 'geometry.error'),\n"
        "     Binding(scene.SimWorld, 'render', 'scene.render'),\n"
        "     Binding(scene, 'gen_demo', 'scene.gen_demo', note)]\n"
    )
    assert perfbench_bindings(workloads) == {"training.py": {"p2p_error"}, "scene.py": {"gen_demo"}}
    assert {"graph_from_entities", "line_through"} <= perfbench_bindings()["training.py"]


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import json\n"
        "import math  # noqa: F401\n"
        "from typing import Iterable, Sequence\n"
        "from os import path\n"
        "__all__ = ['path']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(module) == ["1: json", "3: Iterable"]
    assert waived_imports(module) == {"math"}
