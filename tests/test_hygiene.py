"""Source hygiene: no function in the package takes a setting it never reads
or a default that no caller overrides, no module imports a private name of
another or a name it never reads, every public name has a caller in the
package or an export, every module-level name is read or exported, only
``preferences`` builds a preference verdict, no function builds a cache
on each call, and every small float literal of the package is the value of
a named module constant, so no comparison holds a bare slack."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "coarse_bounds"


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


def unread_imports(path: Path) -> list:
    """(line, name) for every name that an import of ``path`` binds, other
    than ``__future__`` features, that ``path`` never reads as a name."""
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        (node.lineno, bound)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for a in node.names
        if (bound := a.asname or a.name.split(".")[0]) not in read
    ]


# preferences keeps importing engine.bound, which it no longer reads, because
# perfbench's tracer test patches its bindings through preferences.bound
# (ROADMAP item 1)
KEPT_IMPORTS = {"preferences.py:bound"}


def test_every_import_is_read():
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert paths
    unread = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in paths
        for line, name in unread_imports(path)
        if f"{path.relative_to(SRC)}:{name}" not in KEPT_IMPORTS
    ]
    assert unread == []


def test_scan_flags_an_unread_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from itertools import groupby, chain as concat\n"
        "from .engine import bound, bound_values\n"
        "import math\n"
        "def f(x: Sequence):\n"
        "    from .acts import Belief\n"
        "    return np.zeros(bound_values(x)), math.pi\n"
    )
    assert unread_imports(path) == [
        (2, "os"), (4, "groupby"), (4, "concat"), (5, "bound"), (8, "Belief"),
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


def defaulted_parameters(path: Path) -> list:
    """(line, function, parameter, position, default) for every parameter
    with a default of every ``def`` in ``path``. ``position`` is the index of
    the positional argument that sets it at a call, counted past ``self`` or
    ``cls`` for methods, and None for keyword-only parameters; ``default`` is
    the default's expression."""
    found = []

    def visit(node, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, isinstance(child, ast.ClassDef))
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            skip = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            first = len(positional) - len(args.defaults)
            found.extend(
                (child.lineno, child.name, p.arg, i - skip, args.defaults[i - first])
                for i, p in enumerate(positional) if i >= first
            )
            found.extend(
                (child.lineno, child.name, p.arg, None, d)
                for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            )
            visit(child, False)

    visit(ast.parse(path.read_text()), False)
    return found


def calls_by_name(paths) -> dict:
    """Callee name -> every call ``name(...)`` or ``obj.name(...)`` in ``paths``."""
    calls: dict = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def module_constants(paths) -> dict:
    """UPPER_CASE name -> value of every module-level ``NAME = literal`` of
    ``paths``; a name bound to two different values is left out."""
    values: dict = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()):
                continue
            try:
                value = repr(ast.literal_eval(node.value))
            except (ValueError, TypeError):
                continue
            values.setdefault(node.targets[0].id, set()).add(value)
    return {name: found.pop() for name, found in values.items() if len(found) == 1}


def same_literal(node: ast.expr, default: ast.expr, constants: dict) -> bool:
    """True iff both expressions are literals of the same value and type,
    where a name or attribute of ``constants`` reads as its value."""

    def value(expr):
        name = expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)
        return constants[name] if name in constants else repr(ast.literal_eval(expr))

    try:
        return value(node) == value(default)
    except (ValueError, TypeError):
        return False


def sets_parameter(call: ast.Call, parameter: str, position, default: ast.expr,
                   constants: dict) -> bool:
    """True iff ``call`` passes ``parameter`` something other than a literal
    equal to its default; a ``*`` or ``**`` argument might, so it counts."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return not same_literal(call.args[position], default, constants)
    return any(
        k.arg is None or (k.arg == parameter and not same_literal(k.value, default, constants))
        for k in call.keywords
    )


def unset_defaults(paths, caller_paths) -> list:
    """(path, line, function, parameter) for every defaulted parameter of a
    function in ``paths`` that no call in ``caller_paths`` with the same
    callee name sets to other than its default. A module constant of
    ``paths``, as a default or an argument, counts as its literal value."""
    calls = calls_by_name(caller_paths)
    constants = module_constants(paths)
    return [
        (path, line, name, parameter)
        for path in paths
        for line, name, parameter, position, default in defaulted_parameters(path)
        if not any(
            sets_parameter(c, parameter, position, default, constants)
            for c in calls.get(name, ())
        )
    ]


def test_every_default_is_set_by_a_caller():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    unset = [
        f"{path.relative_to(SRC)}:{line} {name}({parameter})"
        for path, line, name, parameter in unset_defaults(
            paths, paths + sorted(TESTS.rglob("*.py"))
        )
    ]
    assert unset == []


def test_scan_flags_an_unset_default(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a + b + c + d + e\n"
        "class K:\n"
        "    def m(self, x=0, y=0):\n"
        "        return x + y\n"
        "    @staticmethod\n"
        "    def s(x=0):\n"
        "        return x\n"
        "def g(v=0):\n"
        "    return v\n"
        "def h(p=0, q='a', r=1_000):\n"
        "    return p, q, r\n"
        "TOL = 1e-8\n"
        "def t(tol=TOL, eps=1e-3):\n"
        "    return tol, eps\n"
        "def u(x=1e-8, y=TOL):\n"
        "    return x, y\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "f(0, 9, e=5)\n"
        "K().m(1)\n"
        "K.s(2)\n"
        "g(*[1])\n"
        "h(0, r=1000)\n"
        "h(q=name)\n"
        "t(1e-8)\n"
        "t(tol=mod.TOL, eps=0.001)\n"
        "u(x=TOL, y=2e-8)\n"
    )
    assert unset_defaults([src], [src, caller]) == [
        (src, 1, "f", "c"),
        (src, 1, "f", "d"),
        (src, 4, "m", "y"),
        (src, 11, "h", "p"),
        (src, 11, "h", "r"),
        (src, 14, "t", "tol"),
        (src, 14, "t", "eps"),
        (src, 16, "u", "x"),
    ]


def public_definitions(path: Path) -> list:
    """(node, qualified name) for every public module-level function, class
    and alias (``name = other`` or ``name = module.attr``) of ``path``, and
    every public method and property of its classes."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                found.append((node, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (m, f"{node.name}.{m.name}")
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_")
                )
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute)):
            found.extend(
                (node, t.id) for t in node.targets
                if isinstance(t, ast.Name) and not t.id.startswith("_")
            )
    return found


def names_read(node) -> list:
    """Every name that ``node``'s subtree reads, as ``name`` or ``obj.name``."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def reads_and_exports(paths) -> tuple:
    """How many times the modules of ``paths`` read each name, and the names
    that an ``__init__.py`` of ``paths`` imports."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = Counter(name for tree in trees.values() for name in names_read(tree))
    exported = {
        a.name
        for path, tree in trees.items() if path.name == "__init__.py"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    return read, exported


def unused_public_names(paths) -> list:
    """(path, line, qualified name) for every public definition in ``paths``
    that no module of ``paths`` reads outside the definition itself and no
    ``__init__.py`` of ``paths`` imports."""
    read, exported = reads_and_exports(paths)
    found = []
    for path in paths:
        for node, qualname in public_definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            if name in exported:
                continue
            if read[name] - names_read(node).count(name) <= 0:
                found.append((path, node.lineno, qualname))
    return found


def test_every_public_name_has_a_library_caller():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, line, name in unused_public_names(paths)
    ]
    assert unused == []


def test_scan_flags_an_unused_public_name(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def dead(n):\n"
        "    return dead(n - 1) if n else 0\n"
        "class K:\n"
        "    def reached(self):\n"
        "        return 2\n"
        "    def dead_method(self):\n"
        "        return self.reached()\n"
        "    @property\n"
        "    def dead_property(self):\n"
        "        return 3\n"
        "    def _private(self):\n"
        "        return 4\n"
        "Alias = frozenset\n"
        "_private_alias = frozenset\n"
        "LIMIT = 3\n"
    )
    sibling = tmp_path / "sibling.py"
    sibling.write_text(
        "from .mod import K, helper\n"
        "def run(obj):\n"
        "    return obj.reached(), helper(), K\n"
    )
    assert unused_public_names([tmp_path / "__init__.py", mod, sibling]) == [
        (mod, 5, "dead"),
        (mod, 10, "K.dead_method"),
        (mod, 13, "K.dead_property"),
        (mod, 17, "Alias"),
        (sibling, 2, "run"),
    ]


def module_definitions(path: Path) -> list:
    """(node, name) for every module-level function, class and assigned name
    of ``path``, public or private."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node, t.id) for t in targets if isinstance(t, ast.Name))
    return found


def unread_module_names(paths) -> list:
    """(path, line, name) for every module-level definition of a module of
    ``paths`` other than an ``__init__.py`` (whose names are the exports)
    that no module of ``paths`` reads outside the definition itself and no
    ``__init__.py`` imports."""
    read, exported = reads_and_exports(paths)
    return [
        (path, node.lineno, name)
        for path in paths if path.name != "__init__.py"
        for node, name in module_definitions(path)
        if name not in exported and read[name] - names_read(node).count(name) <= 0
    ]


def test_every_module_name_is_read():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    unread = [
        f"{path.relative_to(SRC)}:{line} {name}" for path, line, name in unread_module_names(paths)
    ]
    assert unread == []


def test_scan_flags_an_unread_module_name(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\nVERSION = 1\n")
    mod = tmp_path / "mod.py"
    mod.write_text(
        "LIMIT = 3\n"
        "_BLOCK: int = 64\n"
        "_USED = 2\n"
        "def exported():\n"
        "    return _helper() * _USED\n"
        "def _helper():\n"
        "    return 1\n"
        "def _orphan(n):\n"
        "    return _orphan(n - 1) if n else 0\n"
        "class _Unread:\n"
        "    pass\n"
    )
    assert unread_module_names([tmp_path / "__init__.py", mod]) == [
        (mod, 1, "LIMIT"),
        (mod, 2, "_BLOCK"),
        (mod, 8, "_orphan"),
        (mod, 10, "_Unread"),
    ]


def verdict_builders(paths) -> list:
    """(file name, line) of every ``PreferenceVerdict(...)`` call in ``paths``
    outside ``preferences.py``."""
    return sorted(
        (path.name, call.lineno)
        for path in paths if path.name != "preferences.py"
        for call in calls_by_name([path]).get("PreferenceVerdict", ())
    )


def test_only_preferences_builds_a_verdict():
    # preferences.verdict_of is the one verdict rule, which simple_bounds_compare
    # and learning.smooth_decide share; a copy elsewhere could drift from it
    assert verdict_builders(sorted(SRC.rglob("*.py"))) == []


def test_scan_flags_a_verdict_built_elsewhere(tmp_path):
    (tmp_path / "preferences.py").write_text("v = PreferenceVerdict(a, b)\n")
    (tmp_path / "sample.py").write_text(
        "from .preferences import PreferenceVerdict, verdict_of\n"
        "def f(p):\n"
        "    return verdict_of(1, 0, 0, 0), p.PreferenceVerdict(a, b)\n"
        "x = PreferenceVerdict(c, d)\n"
    )
    assert verdict_builders(sorted(tmp_path.glob("*.py"))) == [("sample.py", 3), ("sample.py", 4)]


# The exhaustive oracle is the reference for the DP fill: a reference that
# shares the fill's code could share its bugs.
DP_NAMES = frozenset({
    "Fill", "_fill", "_solve", "_dense_search", "_triangle", "_row_blocks", "_corner", "_workspace",
    "_monotone_search", "_splits", "bound", "bound_value", "bound_values", "_mass_layout",
    "_last_layout",
})


def reached_functions(path: Path, roots) -> dict:
    """Every module-level function of ``path`` that ``roots`` reach through
    the names their bodies read, mapped to the names it reads."""
    functions = {
        node.name: node
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = set(names_read(functions[name]))
        todo += [n for n in reached[name] if n in functions]
    return reached


def dp_references(path: Path, roots) -> list:
    """(function, name) for every DP name read by a function that ``roots``
    reach, where a function read by name is followed into its body."""
    reached = reached_functions(path, roots)
    return sorted((f, n) for f, reads in reached.items() for n in reads & DP_NAMES)


def test_oracle_reads_no_dp_code():
    path = SRC / "engine.py"
    roots = ("brute_force_bound", "_enumerate_raw")
    assert {"_enumerate_raw", "_edge_table", "_edge_chunks"} <= set(reached_functions(path, roots))
    assert dp_references(path, roots) == []


def test_scan_flags_a_dp_reference(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def oracle(ladder):\n"
        "    return helper(ladder), Result(bound=1)\n"
        "def helper(ladder):\n"
        "    return engine.bound_values(ladder) + inner()\n"
        "def inner():\n"
        "    return _fill\n"
        "def unreached():\n"
        "    return _solve()\n"
    )
    assert dp_references(path, ["oracle"]) == [("helper", "bound_values"), ("inner", "_fill")]


CACHE_DECORATORS = frozenset({"cache", "lru_cache"})


def nested_caches(path: Path) -> list:
    """(line, outer function, inner function) for every function that
    ``path`` defines inside another function under a ``functools.cache`` or
    ``lru_cache`` decorator, bare, called or read from ``functools``. Each
    call of the outer function builds a new cache, which no later call
    reads."""

    def is_cache(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name in CACHE_DECORATORS

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for outer in ast.walk(ast.parse(path.read_text())):
        if not isinstance(outer, functions):
            continue
        for stmt in outer.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, functions) and any(map(is_cache, inner.decorator_list)):
                    found.append((inner.lineno, outer.name, inner.name))
    return sorted(set(found))


def test_no_cache_built_per_call():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    built = [
        f"{path.relative_to(SRC)}:{line} {outer}.{inner}"
        for path in paths
        for line, outer, inner in nested_caches(path)
    ]
    assert built == []


def test_scan_flags_a_nested_cache(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=4)\n"
        "def table(n):\n"
        "    return n\n"
        "def query(x):\n"
        "    @cache\n"
        "    def moves(j):\n"
        "        return j\n"
        "    if x:\n"
        "        @functools.lru_cache(maxsize=None)\n"
        "        def count(j):\n"
        "            return j\n"
        "    @staticmethod\n"
        "    def plain(j):\n"
        "        return j\n"
        "    return moves(x)\n"
        "class Ladder:\n"
        "    @functools.cache\n"
        "    def levels(self):\n"
        "        return ()\n"
    )
    assert nested_caches(path) == [(8, "query", "moves"), (12, "query", "count")]


def is_small_float(node) -> bool:
    """True iff ``node`` is a nonzero float literal below 1e-2 in absolute value."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-2
    )


def literal_slacks(path: Path) -> list:
    """(line, value) of every small float literal (:func:`is_small_float`)
    inside a comparison in ``path``. Such a bare slack does not say what it
    bounds, and it does not scale with the values compared;
    ``engine.tie_slack`` states the tie rule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            found.extend((sub.lineno, sub.value) for sub in ast.walk(node) if is_small_float(sub))
    return sorted(set(found))


def test_no_literal_slack_in_a_comparison():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    bare = [
        f"{path.relative_to(SRC)}:{line} {value!r}"
        for path in paths
        for line, value in literal_slacks(path)
    ]
    assert bare == []


def test_scan_flags_a_literal_slack(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "TOL = 1e-12\n"
        "def holds(a, b, c):\n"
        "    if a <= b + 1e-12 and c != 0.0:\n"
        "        return abs(a - b) < -1e-9 < max(c, 0.005)\n"
        "    return a >= b - TOL * 2 and a < 1e-2 and b > 5e-3j and c in (0.001,)\n"
    )
    assert literal_slacks(path) == [(3, 1e-12), (4, 1e-09), (4, 0.005), (5, 0.001)]


def unnamed_small_floats(path: Path) -> list:
    """(line, value) of every small float literal (:func:`is_small_float`)
    in ``path`` other than the whole value of a module-level assignment to
    UPPER_CASE names. A tolerance, search step or stop rule then has one
    name, whose comment says what it bounds."""
    tree = ast.parse(path.read_text())
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and all(
            isinstance(t, ast.Name) and t.id.isupper()
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if is_small_float(node) and id(node) not in named
    )


def test_every_small_float_is_a_named_constant():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    bare = [
        f"{path.relative_to(SRC)}:{line} {value!r}"
        for path in paths
        for line, value in unnamed_small_floats(path)
    ]
    assert bare == []


def test_scan_flags_an_unnamed_small_float(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "TOL = 1e-12\n"
        "_STEP: float = 1e-3\n"
        "A = B = 5e-3\n"
        "SPREAD = 2 * 1e-3\n"
        "step = 1e-3\n"
        "NEG = -1e-9\n"
        "def solve(x, tol=1e-8, *, floor=1e-6):\n"
        "    h = 1e-6 * max(1.0, x)\n"
        "    return h + TOL + 0.01\n"
        "class K:\n"
        "    LIMIT = 1e-4\n"
        "p.add_argument('--tol', type=float, default=1e-9)\n"
    )
    assert unnamed_small_floats(path) == [
        (4, 0.001), (5, 0.001), (6, 1e-09), (7, 1e-08), (7, 1e-06), (8, 1e-06), (11, 0.0001),
        (12, 1e-09),
    ]
