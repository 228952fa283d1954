"""Records and models without dataclasses: importing the CLI loads neither
``dataclasses`` nor ``inspect``; the result records are immutable named
tuples; the models compare, hash and print as the frozen dataclasses they
replaced did (equality within one class, the hash of the defining fields
as one tuple, ``Name(field=value, ...)``); the graph, instance and
allocation compare and hash the same way."""

import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import conflictfair
from conflictfair import (
    CHORES,
    Additive,
    Allocation,
    Chain,
    ChainOutcome,
    Composite,
    ConflictGraph,
    EnumerationBudget,
    ExistenceResult,
    GoodMap,
    Instance,
    IntervalChains,
    Negated,
    PartialColoring,
    ReductionSpec,
    Solution,
    SwapIteration,
    Table,
    ValidationReport,
)
from conflictfair.chain import Walk

SRC = pathlib.Path(conflictfair.__file__).resolve().parent.parent

RECORDS = {
    ValidationReport: ("disjoint", "independent", "wellformed"),
    Chain: ("steps",),
    ChainOutcome: ("allocation", "step_index", "chain"),
    IntervalChains: ("combined",),
    SwapIteration: ("source", "value", "chosen"),
    Solution: ("algorithm", "allocation"),
    EnumerationBudget: ("max_assignments", "wall_clock_seconds"),
    ExistenceResult: ("exists", "witness"),
    GoodMap: ("base", "x", "y"),
    ReductionSpec: ("base", "is_instance", "gamma", "lam", "good_map", "gamma_allocation"),
    PartialColoring: ("n", "colors", "class_sizes"),
}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import conflictfair.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_their_fields_and_stay_immutable(cls):
    assert cls._fields == RECORDS[cls]
    record = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert hash(record) == hash(tuple(range(len(cls._fields))))


def test_record_defaults_methods_and_repr():
    assert EnumerationBudget() == EnumerationBudget(10**8, None)
    assert repr(EnumerationBudget()) == "EnumerationBudget(max_assignments=100000000, wall_clock_seconds=None)"
    assert repr(SwapIteration((0, 2), Fraction(3), 1)) == "SwapIteration(source=(0, 2), value=Fraction(3, 1), chosen=1)"
    assert not ChainOutcome(None, None, None).found
    good_map = GoodMap(range(2), (range(2, 4),), (range(4, 6),))
    assert (good_map.x[0][1], good_map.y[0][1]) == (3, 5)
    assert PartialColoring(2, (1, None, 2), (1, 1)).classes() == [frozenset({0}), frozenset({2})]


def test_models_compare_hash_and_print_as_frozen_dataclasses():
    one = Fraction(1)
    negated = Negated(Additive([1]))
    assert repr(negated) == "Negated(inner=Additive(values=(Fraction(1, 1),)))"
    assert negated == Negated(Additive([Fraction(2, 2)])) and negated != Negated(Additive([2]))
    assert hash(negated) == hash((((one,),),))

    composite = Composite(Additive([1, 1]), 2, Additive([0, Fraction(1, 2)]))
    assert repr(composite) == (
        "Composite(base=Additive(values=(Fraction(1, 1), Fraction(1, 1))), base_goods=2, "
        "tail=Additive(values=(Fraction(0, 1), Fraction(1, 2))))"
    )
    assert composite == Composite(Additive([1, 1]), 2, Additive([0, Fraction(1, 2)]))
    assert composite != Composite(Additive([1, 1]), 1, Additive([0, Fraction(1, 2)]))
    assert hash(composite) == hash((((one, one),), 2, ((Fraction(0), Fraction(1, 2)),)))

    # Equality holds within one class only, as a dataclass's does.
    assert Additive([]) != Negated(Additive([])) and Additive([]) != ()
    assert Additive([1]) != ((one,),)

    # Tables hash by (m, nums, den), so the models that hold them hash too.
    table, twin = Table(1, {0: 0, 1: 1}), Table(1, [0, Fraction(2, 2)])
    assert table == twin and repr(table) == "Table(m=1)"
    for wrap in (lambda t: t, Negated, lambda t: Composite(t, 1, Additive([0]))):
        assert wrap(table) == wrap(twin) and hash(wrap(table)) == hash(wrap(twin))


def test_walks_compare_hash_and_print_by_start_and_moves():
    # a walk holds a function that returns a fresh iterator of its moves; it
    # reads none when built, and all of them afresh on each comparison,
    # hash, repr and len
    start, moves = (frozenset({0}), frozenset()), (((0,), (), (), (0,)),)
    reads = []
    walk = Walk(start, lambda: reads.append(1) or iter(moves))
    assert not reads
    assert walk == Walk(start, moves.__iter__) and hash(walk) == hash((start, moves))
    assert walk != Walk(start, ().__iter__) and walk != (start, moves)
    assert repr(walk) == "Walk(start=(frozenset({0}), frozenset()), moves=(((0,), (), (), (0,)),))"
    assert len(walk) == 2
    assert len(reads) == 5


GRAPH = ConflictGraph(3, [(0, 1), (1, 2)])
TABLE = Table(2, {0: 0, 1: 1, 2: 1, 3: 2})
MODEL = Additive([1, 2, 3])


# Each value type: an object, twins built from differently shaped input,
# twins that change one field, and its fields as ``_fields`` names them.
VALUE_TYPES = {
    "ConflictGraph": (
        GRAPH,
        [ConflictGraph(3, [(2, 1), (1, 0)]), ConflictGraph(3, iter([(1, 2), (0, 1), (1, 0)]))],
        [ConflictGraph(4, [(0, 1), (1, 2)]), ConflictGraph(3, [(0, 1)])],
        (3, frozenset({(0, 1), (1, 2)})),
    ),
    "Table": (
        TABLE,
        [Table(2, {3: 2, 2: 1, 1: 1, 0: 0}), Table(2, [0, 1, 1, 2]), Table(2, [0, Fraction(2, 2), 1, Fraction(4, 2)])],
        # The last changes ``den`` only: its numerators over 2 are (0, 1, 1, 2).
        [Table(2, [0, 1, 1, 3]), Table(1, [0, 1]), Table(2, [0, Fraction(1, 2), Fraction(1, 2), 1])],
        (2, (0, 1, 1, 2), 1),
    ),
    "Instance": (
        Instance(GRAPH, 2, MODEL),
        [Instance(ConflictGraph(3, [(2, 1), (0, 1)]), 2, [MODEL, Additive([1, Fraction(4, 2), 3])])],
        [
            Instance(ConflictGraph(3, [(0, 1)]), 2, MODEL),
            Instance(GRAPH, 3, MODEL),
            Instance(GRAPH, 2, Negated(MODEL), CHORES),
            Instance(GRAPH, 2, [MODEL, Additive([3, 2, 1])]),
        ],
        (GRAPH, 2, "goods", True, (MODEL, MODEL)),
    ),
    "Allocation": (
        Allocation([{0, 2}, {1}]),
        [Allocation([[2, 0], [1, 1]]), Allocation(iter([(0, 2), [1]]))],
        [Allocation([{1}, {0, 2}]), Allocation([{0, 2}, {1}, set()]), Allocation([{0}, {1}])],
        ((frozenset({0, 2}), frozenset({1})),),
    ),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_types_compare_and_hash_by_their_fields(name):
    value, twins, changed, fields = VALUE_TYPES[name]
    assert type(value).__name__ == name
    assert tuple(getattr(value, f) for f in value._fields) == fields
    for twin in twins:
        assert twin == value and value == twin and not twin != value
        assert hash(twin) == hash(value) == hash(fields)
        assert repr(twin) == repr(value)
    for other in changed:
        assert other != value and value != other, other
    others = [v for k, (v, *_) in VALUE_TYPES.items() if k != name] + [Walk((), ().__iter__), Additive([0, 1, 1, 2])]
    for other in [fields, fields[0]] + others:
        assert value != other and other != value, other
    assert len({value, *twins}) == 1
