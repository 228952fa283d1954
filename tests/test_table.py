"""The integer ``Table`` and its parse against the ``Fraction``-dict
reference in conftest: flags, values, drops, file form and equality on a
seeded corpus, the parse's inlined digit cases against the helpers, and its
C-level path against its per-entry loop."""

import json
import random
import sys
import tracemalloc
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

from conftest import ReferenceTable, one_pair_violation

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
        # the negation swaps the flags without a scan; a scan agrees
        negation = Table(m, {mask: -v for mask, v in entries.items()})
        assert table._negation == negation, (m, shape)
        assert (table._negation.nondecreasing, table._negation.nonincreasing) == flags[::-1], (m, shape)
        assert (negation.nondecreasing, negation.nonincreasing) == flags[::-1], (m, shape)
        assert table.entries == ref.entries and set(map(type, table.nums)) == {int}
        for mask in range(1 << m):
            s = subset(mask)
            bundle = table._bundle(s)
            for method, got in [
                ("value", table.value(s)),
                ("min_drop", Fraction(bundle.min_drop, table.den)),
                ("max_drop", Fraction(-table._negation._bundle(s).min_drop, table.den)),
            ]:
                assert got == getattr(ref, method)(s) and type(got) is Fraction, (m, shape, mask, method)
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


# Each side of the field-width boundaries 2^(8k-1) for k = 1, 2, 4, 8, a
# value that needs a whole byte, and values of 2^64 and above.
WIDTH_BOUNDARIES = [2 ** (8 * k - 1) + d for k in (1, 2, 4, 8) for d in (-1, 0)] + [255, 2**64, 2**64 + 1, 2**100]


def violated_pairs(values, m):
    return sum(values[j | 1 << g] < values[j] for g in range(m) for j in range(1 << m) if not j >> g & 1)


def flag_cases():
    """(label, m, values by mask) for the monotonicity flags: the corpus;
    every table with one violated covering pair at m <= 6, as it is and
    scaled past 2^64; tables at each field-width boundary, of the values
    and of the ranks that stand for values past 2^64; all-zero, mixed-sign
    and den > 1 tables."""
    for m, shape, entries in corpus():
        yield f"corpus {m} {shape}", m, [entries[mask] for mask in range(1 << m)]
    for m in range(1, 7):
        for g in range(m):
            for j in range(1 << m):
                if not j >> g & 1:
                    values = one_pair_violation(m, g, j)
                    assert violated_pairs(values, m) == 1
                    yield f"pair m={m} g={g} j={j}", m, values
                    yield f"pair m={m} g={g} j={j} * 2^64", m, [v << 64 for v in values]
    for top in WIDTH_BOUNDARIES:
        for m in (1, 3, 5):
            size = 1 << m
            below = [top - m + bin(mask).count("1") if mask else 0 for mask in range(size)]
            yield f"{top} flat m={m}", m, [top if mask else 0 for mask in range(size)]
            yield f"{top} rising m={m}", m, below
            yield f"{top} dip m={m}", m, below[:-1] + [top - m - 1]
            yield f"{top} drop by 1 m={m}", m, below[:-1] + [top - 2]
            # the steepest fall between fields: top at {0}, 0 at {0, 1}
            yield f"{top} cliff m={m}", m, [top if mask == 1 else 0 for mask in range(size)]
            yield f"{top} over 3 m={m}", m, [Fraction(v, 3) for v in below]
    for top in (127, 128):  # values past 2^64 whose top rank is on each side of 2^7
        ranked = [min(mask, top) << 64 for mask in range(256)]
        yield f"ranks to {top}", 8, ranked
        yield f"ranks to {top}, dip", 8, ranked[:-1] + [ranked[-2] - 1]
    for m in range(5):
        yield f"zero m={m}", m, [0] * (1 << m)
    yield "mixed sign", 2, [0, 1, -1, 0]
    yield "mixed sign, monotone steps elsewhere", 3, [0, 1, 2, 3, -1, 4, 5, 6]
    yield "den 7", 2, [0, Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)]


def test_monotone_flags_match_reference():
    flags_seen = set()
    for label, m, values in flag_cases():
        for sign in (1, -1):  # a chores table given with its own negative entries
            table, ref = Table(m, [sign * v for v in values]), ReferenceTable(m, {mask: sign * v for mask, v in enumerate(values)})
            flags = (table.nondecreasing, table.nonincreasing)
            assert flags == (ref.nondecreasing, ref.nonincreasing), (label, sign)
            flags_seen.add(flags)
    assert flags_seen == {(True, True), (True, False), (False, True), (False, False)}


def test_one_wide_value_keeps_the_flag_check_small():
    """One 4000-digit value in a table over 16 goods: the check packs ranks,
    not fields as wide as that value, so its peak memory stays far below
    2^16 copies of it (about 110 MB)."""
    m, huge = 16, 10**3999
    counts = [bin(mask).count("1") for mask in range(1 << m)]
    for label, values in (("rising", counts[:-1] + [huge]), ("peak at {0}", [huge if mask == 1 else c for mask, c in enumerate(counts)])):
        for sign in (1, -1):
            entries = [sign * v for v in values]
            tracemalloc.start()
            try:
                table = Table(m, entries)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ref = ReferenceTable(m, dict(enumerate(entries)))
            assert (table.nondecreasing, table.nonincreasing) == (ref.nondecreasing, ref.nonincreasing), (label, sign)
            assert peak < 64 << 20, (label, sign, peak)


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


FIELD_CASES = ["+1", " 1", "1 ", "1_0", "\u0661", "", "-0", "-1", "-01", "--1", "1-", "1e3", "0", "1", "01", "007",
               "2", "1/3", "2/4", "3.5", "0x1", "\u00b9", 1, 0, -1, True, 1.5, 1.0, None, [1]]


@pytest.mark.parametrize("field", ["mask", "value", "first mask"])
def test_inlined_digit_cases_parse_as_the_helpers_do(field):
    # "first mask" puts the case at mask 0, where "-0" passes json and the
    # masks' range test alike.
    for text in FIELD_CASES:
        entries = {
            "mask": [["0", "0"], [text, "1"]],
            "value": [["0", "0"], ["1", text]],
            "first mask": [[text, "0"], ["1", "1"]],
        }[field]
        data = {"type": "table", "entries": entries}
        assert outcome(model_from_json, data) == outcome(reference_table_model, data), (field, text)


@pytest.mark.parametrize("field", ["mask", "value"])
def test_digit_strings_past_the_int_limit_are_parse_errors(field):
    # Each field fails in its own wording, not with int()'s digit-limit text.
    huge = "1" * 5000
    entry = [huge, "1"] if field == "mask" else ["1", huge]
    doc = {"agents": 1, "goods": 1, "valuations": {"identical": {"type": "table", "entries": [["0", "0"], entry]}}}
    limit = sys.get_int_max_str_digits()
    message = f"table mask must be an integer of at most {limit} digits, got 5000 digits" if field == "mask" else f"bad rational '{huge}'"
    with pytest.raises(ParseError) as caught:
        instance_from_json(doc)
    assert str(caught.value) == message


def test_decimal_string_past_the_int_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as caught:
        integer_from_json("1" * (limit + 1), "table mask", decimal_string=True)
    assert str(caught.value) == f"table mask must be an integer of at most {limit} digits, got {limit + 1} digits"
    assert integer_from_json("1" * limit, "table mask", decimal_string=True) == int("1" * limit)


def digits(rng, count):
    return "".join(rng.choice("0123456789") for _ in range(count))


def padded(rng, number):
    """``number`` as a decimal string, with leading zeros now and then."""
    return "0" * rng.choice([0, 0, 0, 1, 3]) + str(number)


def valid_table_files(rng):
    """Entry lists of every size m from 0 to 10: shuffled, some padded with
    leading zeros, some with values past the 640 digits of the least
    ``int`` digit limit."""
    for m in range(11):
        for _ in range(3):
            items = [[padded(rng, mask), padded(rng, rng.randint(0, 99))] for mask in range(1 << m)]
            items[0][1] = "0" * rng.randint(1, 3)
            if m and rng.random() < 0.5:
                items[rng.randrange(1, 1 << m)][1] = digits(rng, rng.choice([641, 700, 1000]))
            rng.shuffle(items)
            yield m, items


def in_order_table_files(rng):
    """Entry lists of every size m from 0 to 10 as the writers emit them:
    masks "0", "1", ... in order, unpadded; some with a value past the 640
    digits of the least ``int`` digit limit. Each m > 0 also has two near
    misses: one value padded with a leading zero, and two masks swapped."""
    for m in range(11):
        items = [[str(mask), str(rng.randint(0, 99) if mask else 0)] for mask in range(1 << m)]
        yield m, items
        if m:
            long = [entry[:] for entry in items]
            long[rng.randrange(1, 1 << m)][1] = str(rng.randint(1, 9)) + digits(rng, rng.choice([640, 699, 999]))
            yield m, long
            zero_padded = [entry[:] for entry in items]
            zero_padded[rng.randrange(1 << m)][1] = "0" + str(rng.randint(0, 99))
            yield m, zero_padded
            swapped = [entry[:] for entry in items]
            i = rng.randrange((1 << m) - 1)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            yield m, swapped


def width_boundary_table_files():
    """Three-good files, masks in order, whose values reach 127 and 128,
    2^15, 2^31, 2^63, 2^64 and 2^100: a monotone table, one whose last
    entry falls below its neighbours and one that falls from the top to 0;
    each also as a chores file with its own negative entries and as a
    table of thirds, whose den is 3."""
    for top in (127, 128, 2**15, 2**31, 2**63, 2**64, 2**100):
        rising = [top - 3 + bin(mask).count("1") if mask else 0 for mask in range(8)]
        for values in (rising, rising[:-1] + [top - 4], [top if mask == 1 else 0 for mask in range(8)]):
            for sign in ("", "-"):
                yield 3, [[str(mask), sign + str(v) if v else "0"] for mask, v in enumerate(values)]
            yield 3, [[str(mask), f"{v}/3"] for mask, v in enumerate(values)]


BAD_ENTRIES = [{"0": "1"}, "01", 1, None, ["1"], ["1", "1", "1"], []]
BAD_FIELDS = [3, 0, True, False, 1.0, 1.5, "", "١", "¹", " 1", "-1", "1/2", "-1/3", "2/4", "1" * 700]


def malformed_table_files(rng):
    """Two-good tables with one entry, mask or value replaced by something
    the common file does not hold, or with masks "1" and "01" both."""
    def base():
        items = [[str(mask), str(bin(mask).count("1"))] for mask in range(4)]
        rng.shuffle(items)
        return items

    for bad in BAD_ENTRIES:
        items = base()
        items[rng.randrange(4)] = bad
        yield 2, items
    for bad in BAD_FIELDS:
        for side in (0, 1):
            items = base()
            items[rng.randrange(4)][side] = bad
            yield 2, items
    items = base()
    items.append(["01", "1"])
    yield 2, items
    items = [["0", "0"], ["1", "1"], ["01", "1"]]
    yield 1, items


def table_outcome(entries_of, m, items):
    try:
        table = Table(m, entries_of(items))
        return ("table", table, table.nondecreasing, table.nonincreasing)
    except ValueError as exc:  # ParseError included
        return ("error", str(exc))


@pytest.mark.parametrize("int_digits", [None, 640])
def test_c_level_table_parse_matches_the_per_entry_loop(monkeypatch, int_digits):
    from conflictfair import serialization

    rng = random.Random(21)
    files = list(valid_table_files(rng)) + list(in_order_table_files(rng)) + list(malformed_table_files(rng))
    files += width_boundary_table_files()
    loop = serialization._table_entries_one_by_one
    looped = []
    monkeypatch.setattr(serialization, "_table_entries_one_by_one", lambda items: looped.append(items) or loop(items))
    previous = sys.get_int_max_str_digits()
    if int_digits is not None:
        sys.set_int_max_str_digits(int_digits)
    try:
        for m, items in files:
            expected = table_outcome(loop, m, items)
            assert table_outcome(serialization._table_entries, m, items) == expected, (m, items[:4])
            try:
                table = model_from_json({"type": "table", "entries": items}, m)
                got = ("table", table, table.nondecreasing, table.nonincreasing)
            except ParseError as exc:
                got = ("error", str(exc))
            assert got == expected
    finally:
        sys.set_int_max_str_digits(previous)
    # The C-level path takes every file of pairs of digit strings, values
    # with an optional leading '-', that json parses (no leading zero,
    # within the digit limit) whose masks run 0, 1, ... in order, and only
    # those.
    fell_back = {id(items) for items in looped}
    limit = int_digits or previous

    def parses_in_c(text):
        text = text.removeprefix("-")  # masks are pinned to str(mask) below
        return 0 < len(text) <= limit and text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")

    for m, items in files:
        common = all(type(e) is list and len(e) == 2 for e in items)
        common = common and all(type(s) is str and parses_in_c(s) for e in items for s in e)
        common = common and [mask for mask, _ in items] == [str(mask) for mask in range(len(items))]
        assert (id(items) not in fell_back) == common, (m, items[:4])
    assert len(files) - len(fell_back) >= 10


def test_table_takes_a_list_indexed_by_mask():
    for m, shape, entries in corpus():
        values = [entries[mask] for mask in range(1 << m)]
        table, reference = Table(m, values), Table(m, entries)
        flags = (table.nondecreasing, table.nonincreasing)
        assert table == reference and flags == (reference.nondecreasing, reference.nonincreasing), (m, shape)
    for m, values in [(2, [0, 1, 1]), (2, [0, 1, 1, 2, 2]), (0, []), (2, [1, 1, 1, 2]), (1, [Fraction(1, 2), 1])]:
        errors = []
        for entries in (values, dict(enumerate(values))):
            with pytest.raises(ValueError) as caught:
                Table(m, entries)
            errors.append(str(caught.value))
        assert errors[0] == errors[1], (m, values)
    assert errors[0] == "table must assign value 0 to the empty set"


def test_written_tables_parse_on_the_c_level_path(monkeypatch):
    from conflictfair import serialization

    def loop(items):
        raise AssertionError("took the per-entry loop")

    monkeypatch.setattr(serialization, "_table_entries_one_by_one", loop)
    parsed = negative = 0
    for m, shape, entries in corpus():
        table = Table(m, entries)
        if table.den == 1:  # "1/2" takes the loop; chores tables' "-4" does not
            data = json.loads(json.dumps(table.to_json()))
            got = model_from_json(data, m)
            assert got == table and got.entries == reference_table_model(data, m).entries, (m, shape)
            parsed += 1
            negative += min(table.nums) < 0
    assert parsed >= 15 and negative >= 10


def test_int_and_fraction_values_mix_without_conversion():
    for m, shape, entries in corpus():
        mixed = {mask: int(v) if Fraction(v).denominator == 1 and mask % 2 else Fraction(v) for mask, v in entries.items()}
        fractions_only = {mask: Fraction(v) for mask, v in entries.items()}
        table = Table(m, mixed)
        assert table == Table(m, fractions_only) and set(map(type, table.nums)) == {int}, (m, shape)
    # bools are ints, but they are kept as plain ints, as written by to_json
    table = Table(2, [False, True, True, 1])
    assert table.nums == (0, 1, 1, 1) and set(map(type, table.nums)) == {int}
    for entries in ({0: 0, 1: 1.5}, {0: Fraction(0), 1: 1.5}, [0, 1.5], [Fraction(0), 1.0]):
        with pytest.raises(TypeError) as caught:
            Table(1, entries)
        assert str(caught.value) == "expected an exact rational, got float"
