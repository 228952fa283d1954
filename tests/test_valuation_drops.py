"""Closed-form "value minus one good" on each valuation model: ``value``
and the running bundle's ``min_drop`` (over ``den``) equal the definitional
references of ``conftest`` on every subset, and so does minus the
``min_drop`` of the model's closed-form negation, ``_negation``, against
the largest drop; ``is_ef1``, which runs on the bundles, equals a checker
written with the reference value alone."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conflictfair import (
    CHORES,
    GOODS,
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    Negated,
    Table,
    is_ef1,
    value_minus_one,
)

from conftest import (
    MODEL_KINDS,
    random_graph,
    random_model,
    random_monotone_table,
    reference_max_drop,
    reference_min_drop,
    reference_value,
)


@st.composite
def models(draw, m, mode):
    """A valid model over m goods in ``mode``, of every kind in turn, and
    the negation of a composite."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(MODEL_KINDS + ("negated composite",)))
    if kind == "negated composite":
        return Negated(random_model(rng, m, CHORES if mode == GOODS else GOODS, kind="composite"))
    return random_model(rng, m, mode, kind=kind)


def subsets(m):
    for mask in range(1 << m):
        yield frozenset(g for g in range(m) if mask >> g & 1)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_drops_equal_definition_on_every_subset(data):
    m = data.draw(st.integers(0, 8))
    mode = data.draw(st.sampled_from([GOODS, CHORES]))
    model = data.draw(models(m, mode))
    negation, den = model._negation, model.den
    assert negation.den == den and model._negation is negation
    if isinstance(model, Table):
        # the one shortcut nothing else checks: the flags swapped, not scanned
        scanned = Table(m, [-v for v in model.entries.values()])
        assert negation == scanned
        assert (negation.nondecreasing, negation.nonincreasing) == (scanned.nondecreasing, scanned.nonincreasing)
    for s in subsets(m):
        bundle = model._bundle(s)
        low, value = Fraction(bundle.min_drop, den), model.value(s)
        assert type(value) is Fraction
        assert low == reference_min_drop(model, s)
        assert value == reference_value(model, s)
        assert value_minus_one(model, sorted(s)) == low
        # the negation reads minus the definitions, its least drop minus the
        # largest; Negated(model) reads the same through it
        negated = negation._bundle(s)
        reads = [negated.value, negated.min_drop, *map(negated.gain, range(m))]
        gains = [reference_value(model, s | {g}) - value for g in range(m)]
        assert [Fraction(x, den) for x in reads] == [-value, -reference_max_drop(model, s), *(-gain for gain in gains)]
        wrapped = Negated(model)._bundle(s)
        assert [wrapped.value, wrapped.min_drop, *map(wrapped.gain, range(m))] == reads


def reference_ef1(instance, allocation):
    """EF1 from the reference value alone: drop each good (goods) or own
    chore (chores) in turn."""
    bundles = allocation.bundles
    for i in range(instance.n):
        v = lambda s: reference_value(instance.models[i], s)
        own = v(bundles[i])
        for j in range(instance.n):
            if i == j:
                continue
            if instance.mode == GOODS:
                if bundles[j] and own < min(v(bundles[j] - {g}) for g in bundles[j]):
                    return False
            elif bundles[i] and max(v(bundles[i] - {c}) for c in bundles[i]) < v(bundles[j]):
                return False
    return True


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_is_ef1_equals_reference(data):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(0, 8))
    mode = data.draw(st.sampled_from([GOODS, CHORES]))
    if data.draw(st.booleans()):
        valuations = data.draw(models(m, mode))
    else:
        valuations = [data.draw(models(m, mode)) for _ in range(n)]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    instance = Instance(random_graph(rng, m), n, valuations, mode)
    for _ in range(6):
        # is_ef1 reads only the bundles, so they need not be independent.
        bundles = [set() for _ in range(n)]
        for g in range(m):
            label = rng.randrange(n + 1)
            if label:
                bundles[label - 1].add(g)
        allocation = Allocation(bundles)
        assert is_ef1(instance, allocation) == reference_ef1(instance, allocation)


_ADDITIVE = Additive([Fraction(1, 2), 0, 2])
_TABLE = random_monotone_table(random.Random(5), 3)
_BASE_TABLE = random_monotone_table(random.Random(6), 2)
RANGE_CHECKED = [
    _ADDITIVE,
    Negated(_ADDITIVE),
    _TABLE,
    Negated(_TABLE),
    Negated(Negated(_ADDITIVE)),
    Negated(Negated(_TABLE)),
    Composite(_BASE_TABLE, 2, _ADDITIVE),
    Composite(Additive([1, 3]), 2, _ADDITIVE),
    Negated(Composite(Composite(_BASE_TABLE, 2, Additive([0, 0])), 2, _ADDITIVE)),
]


@pytest.mark.parametrize("model", RANGE_CHECKED, ids=repr)
@pytest.mark.parametrize("g", [3, -1])  # the good count, and a good that would wrap
def test_out_of_range_goods_raise(model, g):
    mode = GOODS
    try:
        model.check(3, GOODS)
    except ValueError:
        mode = CHORES
    instance = Instance(ConflictGraph(3), 2, model, mode)
    for s in (frozenset({g}), frozenset({0, g})):
        for method in (model.value, model._bundle, lambda s: value_minus_one(model, s)):
            with pytest.raises(ValueError):
                method(s)
        for bundles in ((s, ()), ((), s), ({1}, s)):
            with pytest.raises(ValueError):
                is_ef1(instance, Allocation(bundles))


def test_additive_identity_ignores_denominators():
    a, b = Additive([1, 2]), Additive([Fraction(2, 2), 2])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Additive(values=(Fraction(1, 1), Fraction(2, 1)))"
    assert a != Additive([1, 3])
    assert Additive([Fraction(1, 2), Fraction(1, 3)]).to_json() == {"type": "additive", "values": ["1/2", "1/3"]}
