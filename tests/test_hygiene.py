"""Source hygiene: no function in the package takes a setting it never reads,
and no module imports a private name of another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coarse_bounds"


def unread_parameters(path: Path) -> list:
    """(line, function, parameter) for every parameter of every ``def`` in
    ``path`` that its body never reads. ``self``, ``cls`` and names starting
    with an underscore are exempt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            if p.arg in ("self", "cls") or p.arg.startswith("_"):
                continue
            if p.arg not in read:
                found.append((node.lineno, node.name, p.arg))
    return found


def test_every_parameter_is_read():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    unread = [
        f"{path.relative_to(SRC)}:{line} {name}({param})"
        for path in paths
        for line, name, param in unread_parameters(path)
    ]
    assert unread == []


def private_imports(path: Path) -> list:
    """(line, module, name) for every underscore name that ``path`` imports
    from a module of the package: relative imports and ``coarse_bounds``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "coarse_bounds":
            continue
        found += [(node.lineno, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    imported = [
        f"{path.relative_to(SRC)}:{line} {module} {name}"
        for path in paths
        for line, module, name in private_imports(path)
    ]
    assert imported == []


def test_scan_flags_a_private_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from math import _private_c\n"
        "from .engine import _fill, bound\n"
        "from ..acts import ValueLadder, _check_masses as check\n"
        "from coarse_bounds.engine import _dp_solve\n"
        "from . import _helpers\n"
        "def f():\n"
        "    from .statics import _sso_sets\n"
    )
    assert private_imports(path) == [
        (3, ".engine", "_fill"),
        (4, "..acts", "_check_masses"),
        (5, "coarse_bounds.engine", "_dp_solve"),
        (6, ".", "_helpers"),
        (8, ".statics", "_sso_sets"),
    ]


def test_scan_flags_an_unread_parameter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def g():\n"
        "        return a + d\n"
        "    return g() + len(kw)\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return 0\n"
    )
    assert unread_parameters(path) == [(1, "f", "b"), (1, "f", "args"), (6, "m", "x")]
