"""The integer ``Table`` and its parse against the ``Fraction``-dict
reference in conftest: flags, values, drops, file form and equality on a
seeded corpus, and the parse's inlined digit cases against the helpers."""

import json
import random
from fractions import Fraction

import pytest

from conflictfair import Table
from conflictfair.serialization import (
    ParseError,
    instance_from_json,
    instance_to_json,
    integer_from_json,
    model_from_json,
    rational_from_str,
)

from conftest import ReferenceTable

SHAPES = ("nondecreasing", "nonincreasing", "zero", "neither")
KINDS = ("int", "fraction", "mixed")


def step(rng, kind):
    if kind == "int" or kind == "mixed" and rng.random() < 0.5:
        return rng.randint(0, 3)
    return Fraction(rng.randint(0, 7), rng.choice([1, 2, 3, 6, 7]))


def table_entries(rng, m, shape, kind):
    entries = {0: 0 if kind == "int" else Fraction(0)}
    for mask in sorted(range(1, 1 << m), key=lambda x: bin(x).count("1")):
        below = [entries[mask & ~(1 << g)] for g in range(m) if mask >> g & 1]
        if shape == "nondecreasing":
            entries[mask] = max(below) + step(rng, kind)
        elif shape == "nonincreasing":
            entries[mask] = min(below) - step(rng, kind)
        elif shape == "zero":
            entries[mask] = entries[0]
        else:
            entries[mask] = rng.choice(below) + rng.choice([-1, 1]) * step(rng, kind)
    if kind == "mixed":
        # ints and Fractions side by side, integral Fractions included
        entries = {mask: int(v) if v.denominator == 1 and rng.random() < 0.5 else v for mask, v in entries.items()}
    return entries


def corpus():
    """(m, shape, entries) over m = 0..12, every shape at each m."""
    rng = random.Random(2024)
    for m in range(13):
        for shape in SHAPES:
            yield m, shape, table_entries(rng, m, shape, rng.choice(KINDS))


def subset(mask):
    return frozenset(g for g in range(mask.bit_length()) if mask >> g & 1)


def test_table_matches_fraction_reference():
    flags_seen = set()
    for m, shape, entries in corpus():
        table, ref = Table(m, entries), ReferenceTable(m, entries)
        flags = (table.nondecreasing, table.nonincreasing)
        assert flags == (ref.nondecreasing, ref.nonincreasing), (m, shape)
        flags_seen.add(flags)
        assert table.entries == ref.entries and set(map(type, table.nums)) == {int}
        for mask in range(1 << m):
            s = subset(mask)
            for method in ("value", "min_drop", "max_drop"):
                got, want = getattr(table, method)(s), getattr(ref, method)(s)
                assert got == want and type(got) is Fraction, (m, shape, mask, method)
        assert table.to_json() == ref.to_json()
        # equal to the same values in another number type, unequal to a
        # table one entry apart or over another good count
        same = {mask: Fraction(v) for mask, v in entries.items()}
        assert Table(m, same) == table and ReferenceTable(m, same) == ref
        if m:
            top = (1 << m) - 1
            other = {**entries, top: entries[top] + Fraction(1, 2)}
            assert Table(m, other) != table and ReferenceTable(m, other) != ref
        wider = table_entries(random.Random(m), m + 1, "zero", "int")
        assert Table(m + 1, wider) != table and ReferenceTable(m + 1, wider) != ref
    assert flags_seen == {(True, True), (True, False), (False, True), (False, False)}


def test_instance_files_round_trip_byte_for_byte():
    modes = {"nondecreasing": "goods", "zero": "goods", "nonincreasing": "chores"}
    for m, shape, entries in corpus():
        if shape not in modes:
            continue
        doc = {
            "agents": 2,
            "goods": m,
            "edges": [[g, g + 1] for g in range(m - 1)],
            "mode": modes[shape],
            "valuations": {"identical": ReferenceTable(m, entries).to_json()},
        }
        text = json.dumps(doc)
        assert json.dumps(instance_to_json(*instance_from_json(json.loads(text)))) == text, (m, shape)


def reference_table_model(data, m):
    """The table parse before its digit cases were inlined: every mask
    through ``integer_from_json``, every value through ``rational_from_str``."""
    entries = {}
    for mask_text, value_text in data["entries"]:
        mask = integer_from_json(mask_text, "table mask", decimal_string=True)
        if mask in entries:
            raise ParseError(f"duplicate table entry for mask {mask}")
        entries[mask] = rational_from_str(value_text)
    try:
        return ReferenceTable(m, entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def outcome(parse, data):
    try:
        return ("table", parse(data, 1).entries)
    except ParseError as exc:
        return ("error", str(exc))


FIELD_CASES = ["+1", " 1", "1 ", "1_0", "\u0661", "", "-0", "-1", "1e3", "0", "1", "01", "007", "2",
               "1/3", "2/4", "3.5", "0x1", "\u00b9", 1, 0, -1, True, 1.5, 1.0, None, [1]]


@pytest.mark.parametrize("field", ["mask", "value"])
def test_inlined_digit_cases_parse_as_the_helpers_do(field):
    for text in FIELD_CASES:
        entry = [text, "1"] if field == "mask" else ["1", text]
        data = {"type": "table", "entries": [["0", "0"], entry]}
        assert outcome(model_from_json, data) == outcome(reference_table_model, data), (field, text)


@pytest.mark.parametrize("field", ["mask", "value"])
def test_digit_strings_past_the_int_limit_are_parse_errors(field):
    huge = "1" * 5000
    entry = [huge, "1"] if field == "mask" else ["1", huge]
    doc = {"agents": 1, "goods": 1, "valuations": {"identical": {"type": "table", "entries": [["0", "0"], entry]}}}
    with pytest.raises(ParseError):
        instance_from_json(doc)
