"""Spans around calls into the library's layers, installed from outside.

Every public function of a layer module, the private engine entry points
that other modules import by name, and the constructors of the three acts
classes are wrapped. ``from ..engine import bound`` binds the name once per
importing module, so each binding of the same function object is replaced,
not only the defining module's. Constructors are wrapped through
``__init__``, so the classes themselves (and ``isinstance``) are unchanged.

A wrapper records nothing unless an op is active. Spans are kept in flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "coarse_bounds"

LAYERS = {
    "acts": "coarse_bounds.acts",
    "engine": "coarse_bounds.engine",
    "statics": "coarse_bounds.statics",
    "preferences": "coarse_bounds.preferences",
    "learning": "coarse_bounds.learning",
    "insurance": "coarse_bounds.applications.insurance",
    "portfolio": "coarse_bounds.applications.portfolio",
    "contracts": "coarse_bounds.applications.contracts",
    "cli": "coarse_bounds.cli",
}

# Private functions that other modules call by name.
PRIVATE_ENTRIES = {"engine": ("_dp_solve", "_dp_prefix_tables", "_enumerate_raw")}
CONSTRUCTORS = {"acts": ("DiscreteAct", "Belief", "ValueLadder")}
# Per-state scalar helpers: a span would cost more than the call it measures.
UNWRAPPED = {"insurance": ("consumer_payment",)}

# Engine spans that fill a DP table; the outermost one in a call tree is one solve.
SOLVES = ("engine.bound", "engine._dp_solve", "engine._dp_prefix_tables")
ORACLE = ("engine.brute_force_bound", "engine.enumerate_optima", "engine._enumerate_raw")
BUCKETS = (("lt40", 0, 40), ("40to199", 40, 200), ("200to999", 200, 1000), ("ge1000", 1000, None))


def _bindings(obj):
    """Every (module, name) in the package whose attribute is ``obj``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is obj:
                yield mod, name


class Patcher:
    """Replaces functions at every binding and restores them afterwards."""

    def __init__(self):
        self._undo = []

    def replace_function(self, fn, replacement) -> None:
        for mod, name in _bindings(fn):
            self._undo.append((mod, name, fn))
            setattr(mod, name, replacement)

    def replace_attribute(self, owner, name, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _solve_size(signature):
    """(levels, capacity) of a DP call, read from its bound arguments."""

    def size(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if "ladder" in a:
            return len(a["ladder"]), int(a["n"])
        cap = a["n"] if "n" in a else a["n_blocks"]
        lo = a.get("lo", 0) or 0
        hi = a.get("hi")
        hi = len(a["levels"]) - 1 if hi is None else hi
        return hi - lo + 1, int(cap)

    return size


class Tracer:
    """Span store: name, start, end, parent span, op id, and DP size."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.levels = array("i")
        self.cap = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_start = array("d")
        self.op_end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patcher = Patcher()

    # -- recording -------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        key = f"{layer}.{qualname}"
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
            self.name_layer.append(layer)
        return self._ids[key]

    def wrap(self, layer: str, qualname: str, fn):
        nid = self._name_id(layer, qualname)
        size = None
        if self.names[nid] in SOLVES:
            size = _solve_size(inspect.signature(fn))

        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            i = len(self.start)
            levels, cap = size(args, kwargs) if size is not None else (0, 0)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op)
            self.levels.append(levels)
            self.cap.append(cap)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        return functools.update_wrapper(traced, fn)

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self, t0: float, t1: float) -> None:
        self._op = -1
        self.op_start.append(t0)
        self.op_end.append(t1)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, mod_name in LAYERS.items():
            mod = sys.modules[mod_name]
            skip = UNWRAPPED.get(layer, ())
            targets = {}
            for name, value in vars(mod).items():
                if not inspect.isfunction(value) or value.__module__ != mod_name:
                    continue
                if inspect.isgeneratorfunction(value) or name in skip:
                    continue
                if name.startswith("_") and name not in PRIVATE_ENTRIES.get(layer, ()):
                    continue
                # aliases share one function object; name the span after the definition
                targets[id(value)] = value
            for fn in targets.values():
                self._patcher.replace_function(fn, self.wrap(layer, fn.__name__, fn))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__dict__["__init__"]
                self._patcher.replace_attribute(cls, "__init__", self.wrap(layer, cls_name, init))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "levels": np.array(self.levels, dtype=np.int32),
            "cap": np.array(self.cap, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "op_start": np.array(self.op_start, dtype=np.float64),
            "op_end": np.array(self.op_end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def analyse(tracer: Tracer, op_apps) -> dict:
    """Per-layer calls and self times, DP solves by ladder size, and counts.

    ``op_apps[i]`` names the application layer whose op ``i`` is (or None).
    A span's self time is its duration minus the durations of its children;
    spans of one thread nest, so children never overlap.
    """
    a = tracer.arrays()
    n = len(a["name"])
    names = tracer.names
    layer_names = list(LAYERS)
    layer = np.array([layer_names.index(tracer.name_layer[i]) for i in a["name"]], dtype=np.int64)
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    out = {}
    entry = ~has_parent
    entry[has_parent] = layer[parent[has_parent]] != layer[has_parent]
    for li, lname in enumerate(layer_names):
        mask = layer == li
        out[f"{lname}.calls"] = int(np.count_nonzero(mask & entry))
        out[f"{lname}.self_s"] = float(self_t[mask].sum())

    # One pass in creation order: a parent always precedes its children.
    ids = {nm: i for i, nm in enumerate(names)}
    solve_ids = {ids[nm] for nm in SOLVES if nm in ids}
    oracle_ids = {ids[nm] for nm in ORACLE if nm in ids}
    bait_id = ids.get("contracts.bait_feasibility_bound", -1)
    verify_id = ids.get("contracts.reckless_bait", -1)
    engine_li = layer_names.index("engine")
    solve_root = np.full(n, -1, dtype=np.int64)
    oracle_root = np.full(n, -1, dtype=np.int64)
    in_bait = np.zeros(n, dtype=bool)
    name_list = a["name"].tolist()
    parent_list = parent.tolist()
    layer_list = layer.tolist()
    bait_verify_calls = 0
    for i in range(n):
        p = parent_list[i]
        nid = name_list[i]
        engine_parent = p >= 0 and layer_list[p] == engine_li
        sr = solve_root[p] if engine_parent else -1
        if sr < 0 and nid in solve_ids:
            sr = i
        solve_root[i] = sr
        orr = oracle_root[p] if p >= 0 else -1
        if orr < 0 and nid in oracle_ids:
            orr = i
        oracle_root[i] = orr
        ib = p >= 0 and in_bait[p]
        if ib and nid == verify_id:
            bait_verify_calls += 1
        in_bait[i] = ib or nid == bait_id

    is_solve = solve_root == np.arange(n)
    engine_mask = layer == engine_li
    solve_levels = a["levels"].astype(np.int64)
    out["engine.levels_solved"] = int(solve_levels[is_solve].sum())
    roots = solve_root[engine_mask & (solve_root >= 0)]
    root_self = np.bincount(roots, weights=self_t[engine_mask & (solve_root >= 0)], minlength=n)
    table = {}
    for name, lo, hi in BUCKETS:
        sel = is_solve & (solve_levels >= lo)
        if hi is not None:
            sel &= solve_levels < hi
        out[f"engine.bound.calls.{name}"] = int(np.count_nonzero(sel))
        out[f"engine.bound.self_s.{name}"] = float(root_self[sel].sum())
        for cap in sorted(set(a["cap"][sel].tolist())):
            cs = sel & (a["cap"] == cap)
            calls = int(np.count_nonzero(cs))
            table[f"{name}/N={cap}"] = {
                "solves": calls,
                "mean_levels": float(solve_levels[cs].mean()),
                "ms_per_solve": 1e3 * float(root_self[cs].sum()) / calls,
            }
    oracle_span = np.isin(a["name"], list(oracle_ids))
    out["engine.oracle.calls"] = int(np.count_nonzero(oracle_root == np.arange(n)))
    out["engine.oracle.self_s"] = float(self_t[oracle_span].sum())
    out["contracts.bait_verify_calls"] = bait_verify_calls
    out["acts.ladders_built"] = int(np.count_nonzero(a["name"] == ids.get("acts.ValueLadder", -1)))

    op_apps = list(op_apps)
    solve_ops = a["op"][is_solve]
    for app in ("insurance", "portfolio", "contracts"):
        ops = [i for i, x in enumerate(op_apps) if x == app]
        solves = int(np.count_nonzero(np.isin(solve_ops, ops))) if ops else 0
        out[f"{app}.solves_per_op"] = solves / len(ops) if ops else 0.0

    op_total = float((a["op_end"] - a["op_start"]).sum())
    out["bench.uncovered_s"] = op_total - float(dur[~has_parent].sum())
    out["_engine_table"] = table
    out["_spans"] = n
    out["_op_total_s"] = op_total
    return out
