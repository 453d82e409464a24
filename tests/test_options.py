"""The package's settable options may only shrink.

A settable option is a defaulted parameter of a function or lambda, or a
defaulted field of a dataclass, anywhere in ``src/geomimic``. Each one is
a behaviour a caller may change, so an option is added only together with
a raise of ``LIMIT`` in the same diff, and an option that goes should take
``LIMIT`` down with it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geomimic"
LIMIT = 55


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_options(path: Path) -> list[str]:
    """``line: owner`` of every defaulted parameter and dataclass field in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            owner = getattr(node, "name", "lambda")
            found += [f"{d.lineno}: {owner}" for d in defaults]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                f"{s.lineno}: {node.name}.{s.target.id}"
                for s in node.body
                if isinstance(s, ast.AnnAssign) and s.value is not None
            ]
    return found


def test_settable_options_do_not_grow():
    found = {p.name: settable_options(p) for p in sorted(PACKAGE.glob("*.py"))}
    count = sum(map(len, found.values()))
    assert count <= LIMIT, f"{count} settable options, over the limit of {LIMIT}: {found}"


def test_counter_finds_defaults_and_fields(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c, d=2):\n"
        "    return lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    w: int = 0\n"
    )
    assert sorted(settable_options(module)) == ["2: f", "2: f", "3: lambda", "7: C.y", "8: C.z"]
