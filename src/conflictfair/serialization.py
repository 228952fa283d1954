"""JSON file formats and DOT export.

Rationals are serialized as strings ("7" or "1/3") to avoid any float loss;
table subsets are decimal bitmask strings with bit g = good g. Instance
files carry either an identical model or one model per agent, and may carry
an optional interval list for interval-graph instances.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    Negated,
    Table,
    Uniform,
    ValuationModel,
)
from .graph_classes import IntervalSet


class ParseError(ValueError):
    """Input file does not match the expected schema."""


# The largest agent, good or vertex count a file may declare, and the CLI's
# --n: far beyond what the solvers finish on, small enough to allocate.
SIZE_LIMIT = 100_000

# The most negated and composite models a model may nest, one inside the
# next: the models' ``value`` recurses once per level.
_MODEL_NESTING_LIMIT = 64


def rational_from_str(text) -> Fraction:
    """``Fraction(str(text))`` of a string or a JSON integer, else a
    ParseError (a float is not exact). A string of ASCII digits with an
    optional leading '-' skips ``Fraction``'s regular expression."""
    try:
        if type(text) is str:
            digits = text.removeprefix("-")
            if digits.isascii() and digits.isdigit():
                return Fraction(int(text))
        if type(text) is not float:
            return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    raise ParseError(f"bad rational {text!r}: floats are not exact, write it as a string")


def integer_from_json(value, what: str, decimal_string: bool = False) -> int:
    """An integer field: a JSON integer, or with ``decimal_string`` also a
    string of ASCII decimal digits (table masks). Anything else, booleans
    and floats such as 2.0 included, is a ParseError."""
    if type(value) is int:
        return value
    if decimal_string and isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise ParseError(f"{what} must be an integer, got {value!r}")


def array_from_json(value, what: str, length: Optional[int] = None) -> list:
    """A JSON array, of ``length`` items if given; a string or an object
    would unpack item by item."""
    if type(value) is not list:
        raise ParseError(f"{what} must be an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ParseError(f"{what} must hold {length} items, got {len(value)}")
    return value


def size_from_json(value, what: str) -> int:
    """An agent, good or vertex count: an integer of at most SIZE_LIMIT."""
    size = integer_from_json(value, what)
    if size > SIZE_LIMIT:
        raise ParseError(f"{what} must be at most {SIZE_LIMIT}, got {size}")
    return size


def _edges_from_json(data) -> list:
    return [
        tuple(integer_from_json(g, "edge endpoint") for g in edge)
        for edge in data.get("edges", [])
    ]


def model_from_json(data, m: int) -> ValuationModel:
    return _model_from_json(data, m, 0)


def _model_from_json(data, m: int, depth: int) -> ValuationModel:
    """The model ``data`` nested inside ``depth`` negated or composite models."""
    if not isinstance(data, dict) or "type" not in data:
        raise ParseError("model must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "additive":
            return Additive(rational_from_str(v) for v in array_from_json(data["values"], "additive values"))
        if kind == "uniform":
            return Uniform()
        if kind == "table":
            # The helpers' ASCII-digit cases inlined: no call and no Fraction
            # per entry of a 2^m table.
            entries = {}
            for entry in array_from_json(data["entries"], "table entries"):
                mask_text, value_text = array_from_json(entry, "table entry", 2)
                if type(mask_text) is str and mask_text.isascii() and mask_text.isdigit():
                    mask = int(mask_text)
                else:
                    mask = integer_from_json(mask_text, "table mask", decimal_string=True)
                if mask in entries:
                    raise ParseError(f"duplicate table entry for mask {mask}")
                if type(value_text) is str and value_text.isascii() and value_text.isdigit():
                    entries[mask] = int(value_text)
                else:
                    entries[mask] = rational_from_str(value_text)
            try:
                return Table(m, entries)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        if kind in ("negated", "composite") and depth == _MODEL_NESTING_LIMIT:
            raise ParseError(f"models nest more than {_MODEL_NESTING_LIMIT} levels deep")
        if kind == "negated":
            return Negated(_model_from_json(data["inner"], m, depth + 1))
        if kind == "composite":
            base_goods = integer_from_json(data["baseGoods"], "baseGoods")
            base = _model_from_json(data["base"], base_goods, depth + 1)
            tail = array_from_json(data["tail"], "composite tail")
            return Composite(base, base_goods, Additive(rational_from_str(v) for v in tail))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed {kind} model: {exc}") from exc
    raise ParseError(f"unknown model type {kind!r}")


def instance_to_json(instance: Instance, intervals: Optional[IntervalSet] = None) -> dict:
    if instance.identical:
        valuations = {"identical": instance.identical_model.to_json()}
    else:
        valuations = {"perAgent": [v.to_json() for v in instance.models]}
    data = {
        "agents": instance.n,
        "goods": instance.m,
        "edges": [list(e) for e in sorted(instance.graph.edges)],
        "mode": instance.mode,
        "valuations": valuations,
    }
    if intervals is not None:
        data["intervals"] = [[str(l), str(r)] for l, r in intervals.intervals]
    return data


def instance_from_json(data) -> Tuple[Instance, Optional[IntervalSet]]:
    if not isinstance(data, dict):
        raise ParseError("instance file must be a JSON object")
    try:
        n = size_from_json(data["agents"], "agents")
        m = size_from_json(data["goods"], "goods")
        mode = data.get("mode", "goods")
        graph = ConflictGraph(m, _edges_from_json(data))
        valuations = data["valuations"]
        if "identical" in valuations:
            models: object = model_from_json(valuations["identical"], m)
        elif "perAgent" in valuations:
            models = [model_from_json(v, m) for v in valuations["perAgent"]]
        else:
            raise ParseError("valuations must contain 'identical' or 'perAgent'")
        instance = Instance(graph, n, models, mode)
        intervals = None
        if "intervals" in data and data["intervals"] is not None:
            pairs = (array_from_json(i, "interval", 2) for i in array_from_json(data["intervals"], "intervals"))
            intervals = IntervalSet((rational_from_str(l), rational_from_str(r)) for l, r in pairs)
            intervals.check(graph)
        return instance, intervals
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"malformed instance file: {exc}") from exc


def allocation_to_json(allocation: Allocation, certificate: Optional[dict] = None) -> dict:
    data = {"bundles": [sorted(b) for b in allocation.bundles]}
    if certificate is not None:
        data["certificate"] = dict(certificate)
    return data


def allocation_from_json(data) -> Tuple[Allocation, Optional[dict]]:
    if not isinstance(data, dict) or "bundles" not in data:
        raise ParseError("allocation file must be an object with 'bundles'")
    try:
        allocation = Allocation([[integer_from_json(g, "bundle good") for g in bundle] for bundle in data["bundles"]])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed bundles: {exc}") from exc
    return allocation, data.get("certificate")


def graph_from_json(data) -> ConflictGraph:
    if not isinstance(data, dict):
        raise ParseError("graph file must be a JSON object")
    try:
        return ConflictGraph(size_from_json(data["vertices"], "vertices"), _edges_from_json(data))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def dump_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


# Bundle colors follow the usual figure convention: agents 1, 2, 3 are red,
# blue, green; unassigned vertices are gray.
_PALETTE = ("red", "blue", "green", "orange", "purple", "cyan", "yellow", "brown", "pink", "olive")


def class_color(index: int, total: int) -> str:
    if index < len(_PALETTE):
        return _PALETTE[index]
    return f"{index / max(total, 1):.3f} 0.600 0.900"


def to_dot(graph: ConflictGraph, classes: Optional[Sequence[Sequence[int]]] = None, name: str = "G") -> str:
    """Graphviz rendering; ``classes`` colors each class's vertices and
    leaves the rest gray."""
    color_of = {}
    if classes is not None:
        for idx, members in enumerate(classes):
            for g in members:
                color_of[g] = class_color(idx, len(classes))
    lines: List[str] = [f"graph {name} {{", "  node [style=filled];"]
    for g in range(graph.m):
        lines.append(f'  {g} [fillcolor="{color_of.get(g, "gray")}"];')
    for u, w in sorted(graph.edges):
        lines.append(f"  {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
