"""JSON file formats and DOT export.

Rationals are serialized as strings ("7" or "1/3") to avoid any float loss;
table subsets are decimal bitmask strings with bit g = good g. Instance
files carry either an identical model or one model per agent, and may carry
an optional interval list for interval-graph instances.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .core import (
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    Negated,
    Table,
    ValuationModel,
)
from .graph_classes import IntervalSet


class ParseError(ValueError):
    """Input file does not match the expected schema."""


# The largest agent, good or vertex count a file may declare, and the CLI's
# --n: far beyond what the solvers finish on, small enough to allocate.
SIZE_LIMIT = 100_000

# The most negated and composite models a model may nest, one inside the
# next: building a model's negation and building its running bundle recurse
# once per level.
_MODEL_NESTING_LIMIT = 64


def rational_from_str(text) -> Fraction:
    """``Fraction(str(text))`` of a string or a JSON integer, else a
    ParseError (a float is not exact). A string of ASCII digits with an
    optional leading '-' skips ``Fraction``'s regular expression. A decimal
    exponent of magnitude past the int digit limit (if one is set) is
    refused: 10**e takes time and memory that grow faster than e."""
    if type(text) is float:
        raise ParseError(f"bad rational {text!r}: floats are not exact, write it as a string")
    limit = sys.get_int_max_str_digits()
    try:
        if type(text) is str:
            digits = text.removeprefix("-")
            if digits.isascii() and digits.isdigit():
                return Fraction(int(text))
        _, e, exponent = str(text).upper().rpartition("E")
        if not (e and limit and abs(int(exponent)) > limit):
            return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    raise ParseError(f"bad rational {text!r}: its exponent is more than {limit} in magnitude")


def integer_from_json(value, what: str, decimal_string: bool = False) -> int:
    """An integer field: a JSON integer, or with ``decimal_string`` also a
    string of ASCII decimal digits (table masks). Anything else, booleans
    and floats such as 2.0 included, is a ParseError."""
    if type(value) is int:
        return value
    if decimal_string and isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # past the interpreter's int digit limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"{what} must be an integer of at most {limit} digits, got {len(value)} digits") from None
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
    edges = array_from_json(data.get("edges", []), "edges")
    # The common case, checked in C: every edge an array of two integers.
    if (
        {list} >= set(map(type, edges))
        and {2} >= set(map(len, edges))
        and {int} >= set(map(type, chain.from_iterable(edges)))
    ):
        return edges
    return [
        tuple(integer_from_json(g, "edge endpoint") for g in array_from_json(edge, "edge", 2))
        for edge in edges
    ]


def _table_entries(items: list):
    """A list of the values by mask when every entry is a pair of ASCII digit
    strings and the masks run 0, 1, ... in order, as the writers list them,
    read by one ``json.loads``; other files go entry by entry, into a dict."""
    if {list} >= set(map(type, items)) and {2} >= set(map(len, items)):
        try:  # json refuses empty strings, leading zeros and numbers past the digit limit
            body = ",".join(chain.from_iterable(items))
            if body.isascii() and not body.encode().translate(None, b"0123456789,"):
                numbers = json.loads(f"[{body}]")
                if numbers[0::2] == list(range(len(items))):  # a comma in a string adds a number
                    return numbers[1::2]
        except (TypeError, ValueError):
            pass
    return _table_entries_one_by_one(items)


def _table_entries_one_by_one(items: list) -> dict:
    """Each entry's mask -> value, through the field helpers."""
    entries = {}
    for entry in items:
        mask_text, value_text = array_from_json(entry, "table entry", 2)
        mask = integer_from_json(mask_text, "table mask", decimal_string=True)
        if mask in entries:
            raise ParseError(f"duplicate table entry for mask {mask}")
        entries[mask] = rational_from_str(value_text)
    return entries


def model_from_json(data, m: int, uniforms: Optional[dict] = None) -> ValuationModel:
    """``uniforms``, good count -> uniform model, is shared by a file's models."""
    return _model_from_json(data, m, 0, {} if uniforms is None else uniforms)


def _model_from_json(data, m: int, depth: int, uniforms: dict) -> ValuationModel:
    """The model ``data`` nested inside ``depth`` negated or composite models."""
    if not isinstance(data, dict) or "type" not in data:
        raise ParseError("model must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "additive":
            return Additive(rational_from_str(v) for v in array_from_json(data["values"], "additive values"))
        if kind == "uniform":
            # Value 1 per good, as one Fraction that Additive keeps as it is.
            if m not in uniforms:
                uniforms[m] = Additive([Fraction(1)] * m)
            return uniforms[m]
        if kind == "table":
            entries = _table_entries(array_from_json(data["entries"], "table entries"))
            try:
                return Table(m, entries)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        if kind in ("negated", "composite") and depth == _MODEL_NESTING_LIMIT:
            raise ParseError(f"models nest more than {_MODEL_NESTING_LIMIT} levels deep")
        if kind == "negated":
            return Negated(_model_from_json(data["inner"], m, depth + 1, uniforms))
        if kind == "composite":
            base_goods = integer_from_json(data["baseGoods"], "baseGoods")
            # Checked before the base is read: a uniform base has no more goods than the tail lists values.
            tail = array_from_json(data["tail"], "composite tail", m)
            if base_goods > m:
                raise ValueError("composite base goods out of range")
            base = _model_from_json(data["base"], base_goods, depth + 1, uniforms)
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
        if type(valuations) is not dict:
            raise ParseError(f"valuations must be an object, got {type(valuations).__name__}")
        uniforms: dict = {}
        if "identical" in valuations:
            models: object = model_from_json(valuations["identical"], m, uniforms)
        elif "perAgent" in valuations:
            models = [model_from_json(v, m, uniforms) for v in array_from_json(valuations["perAgent"], "perAgent")]
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
        bundles = [
            [integer_from_json(g, "bundle good") for g in array_from_json(bundle, "bundle")]
            for bundle in array_from_json(data["bundles"], "bundles")
        ]
    except ValueError as exc:
        raise ParseError(f"malformed bundles: {exc}") from exc
    for bundle in bundles:
        if len(set(bundle)) != len(bundle):
            raise ParseError(f"bundle lists good {next(g for i, g in enumerate(bundle) if g in bundle[:i])} twice")
    return Allocation(bundles), data.get("certificate")


def graph_from_json(data) -> ConflictGraph:
    if not isinstance(data, dict):
        raise ParseError("graph file must be a JSON object")
    try:
        return ConflictGraph(size_from_json(data["vertices"], "vertices"), _edges_from_json(data))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc


def load_json(path):
    """The file's JSON, else a ParseError: a ValueError is bad JSON, bad
    UTF-8 or an integer past the interpreter's digit limit, which the
    message names in place of Python's advice to raise the limit."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        reason = exc
        if type(exc) is ValueError:  # the digit limit; JSON and UTF-8 errors are subclasses
            reason = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        raise ParseError(f"cannot read {path}: {reason}") from exc


def dump_json(path, data) -> None:
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


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
