"""JSON and CSV serialization for the CLI and fixture files."""

from __future__ import annotations

import json
from numbers import Real

from .acts import Belief, DiscreteAct
from .engine import BoundResult, PerceivedDistribution


def act_from_record(record: dict) -> tuple:
    """Parse {states, values, masses} into an act and a belief."""
    if not isinstance(record, dict):
        raise ValueError("an act record must be a JSON object")
    check_shape(record, {"states": list, "values": [Real], "masses": [Real]}, "an act record")
    if not record["states"]:
        raise ValueError("'states' must hold at least one state id")
    try:
        act = DiscreteAct(record["states"], record["values"])
    except TypeError:
        # the shape check leaves only unhashable state ids to raise it
        raise ValueError("'states' must not hold lists or objects as ids") from None
    if not record["masses"]:
        raise ValueError("'masses' must hold at least one mass")
    belief = Belief(record["masses"])
    if len(act) != len(belief):
        raise ValueError("values and masses must have the same length")
    return act, belief


class _Fields(dict):
    """A parsed JSON object; reading a field it lacks is a ValueError that
    names the field."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


def check_shape(value, shape, name: str) -> None:
    """Raise ValueError unless a parsed JSON ``value`` has ``shape``: a dict
    of field shapes (each checked only where the field is present), a
    one-element list holding the shape of every item, or a type or tuple of
    types for ``isinstance``. JSON ``true`` and ``false`` are no numbers, so
    a boolean matches no shape."""
    types = type(shape) if isinstance(shape, (dict, list)) else shape
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} has the wrong type ({_json_type(value)})")
    if isinstance(shape, dict):
        for key, field in shape.items():
            if key in value:
                check_shape(value[key], field, repr(key))
    elif isinstance(shape, list):
        for item in value:
            check_shape(item, shape[0], f"an item of {name}")


def _json_type(value) -> str:
    """The JSON name of a parsed value's type, for error messages."""
    kinds = ((bool, "boolean"), (Real, "number"), (str, "string"), (list, "array"),
             (dict, "object"), (type(None), "null"))
    return next((name for kind, name in kinds if isinstance(value, kind)), type(value).__name__)


def load_record(path: str, fields: dict) -> dict:
    """The JSON object a fixture file holds, its present ``fields`` checked
    by ``check_shape``; any other JSON value, and reading a field that one
    of its objects lacks, is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh, object_hook=_Fields)
    if not isinstance(record, dict):
        raise ValueError(f"{path} must hold a JSON object")
    check_shape(record, fields, path)
    return record


def load_act(path: str) -> tuple:
    return act_from_record(load_record(path, {}))


def bound_to_record(result: BoundResult) -> dict:
    return {
        "kind": result.kind,
        "cutoffs": list(result.cutoffs.cuts),
        "bound_values": list(result.bound_values),
        "value": result.value,
        "exact": result.exact,
    }


def perceived_to_record(dist: PerceivedDistribution) -> dict:
    return {"support": list(dist.support), "masses": list(dist.masses)}


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def format_number(x) -> str:
    """Decimal text with 15 significant digits and a '.' separator."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if x is None:
        return ""
    return f"{x:.15g}"


def write_csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_number(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"
