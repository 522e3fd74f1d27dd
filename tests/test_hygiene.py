"""Source hygiene: no function in the package takes a setting it never reads."""

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
