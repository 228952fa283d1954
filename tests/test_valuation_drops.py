"""Closed-form "value minus one good" on each valuation model: every
``min_drop``/``max_drop`` override equals the definitional default of
``ValuationModel`` on every subset, and ``is_ef1``, which runs on them,
equals a checker written with ``value`` alone."""

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
    Instance,
    Negated,
    Uniform,
    ValuationModel,
    is_ef1,
    value_minus_one,
)

from conftest import random_graph, random_monotone_table

# Mixed denominators and zeros, so the common denominator is not 1.
VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(7, 3), Fraction(5, 6), Fraction(3, 4)])


@st.composite
def goods_models(draw, m, depth=2):
    """A monotone non-decreasing model over m goods."""
    kinds = ["additive", "uniform", "table"] + (["composite", "double-negated"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "additive":
        return Additive(draw(st.lists(VALUES, min_size=m, max_size=m)))
    if kind == "uniform":
        return Uniform()
    if kind == "table":
        return random_monotone_table(random.Random(draw(st.integers(0, 2**32))), m)
    if kind == "composite":
        base_goods = draw(st.integers(0, m))
        tail = Additive(draw(st.lists(VALUES, min_size=m, max_size=m)))
        return Composite(draw(goods_models(base_goods, depth - 1)), base_goods, tail)
    return Negated(Negated(draw(goods_models(m, depth - 1))))


@st.composite
def models(draw, m, mode):
    """A valid model over m goods in ``mode``."""
    if mode == GOODS:
        model = draw(goods_models(m))
    elif draw(st.booleans()):
        model = Additive([-v for v in draw(st.lists(VALUES, min_size=m, max_size=m))])
    else:
        model = Negated(draw(goods_models(m)))
    model.check(m, mode)
    return model


def subsets(m):
    for mask in range(1 << m):
        yield frozenset(g for g in range(m) if mask >> g & 1)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_drops_equal_definition_on_every_subset(data):
    m = data.draw(st.integers(0, 8))
    mode = data.draw(st.sampled_from([GOODS, CHORES]))
    model = data.draw(models(m, mode))
    for s in subsets(m):
        low, high = model.min_drop(s), model.max_drop(s)
        assert type(low) is Fraction and type(high) is Fraction
        assert low == ValuationModel.min_drop(model, s)
        assert high == ValuationModel.max_drop(model, s)
        assert value_minus_one(model, sorted(s)) == low
        assert type(model.value(s)) is Fraction


def reference_ef1(instance, allocation):
    """EF1 from ``value`` alone: drop each good (goods) or own chore
    (chores) in turn."""
    bundles = allocation.bundles
    for i in range(instance.n):
        v = instance.models[i]
        own = v.value(bundles[i])
        for j in range(instance.n):
            if i == j:
                continue
            if instance.mode == GOODS:
                if bundles[j] and own < min(v.value(bundles[j] - {g}) for g in bundles[j]):
                    return False
            elif bundles[i] and max(v.value(bundles[i] - {c}) for c in bundles[i]) < v.value(bundles[j]):
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
RANGE_CHECKED = [_ADDITIVE, Negated(_ADDITIVE), _TABLE, Negated(_TABLE), Negated(Negated(_ADDITIVE)), Negated(Negated(_TABLE))]


@pytest.mark.parametrize("model", RANGE_CHECKED, ids=repr)
@pytest.mark.parametrize("g", [3, -1])  # the good count, and a good that would wrap
def test_out_of_range_goods_raise(model, g):
    for s in (frozenset({g}), frozenset({0, g})):
        for method in (model.value, model.min_drop, model.max_drop):
            with pytest.raises(ValueError):
                method(s)


def test_additive_identity_ignores_denominators():
    a, b = Additive([1, 2]), Additive([Fraction(2, 2), 2])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Additive(values=(Fraction(1, 1), Fraction(2, 1)))"
    assert a != Additive([1, 3])
    assert Additive([Fraction(1, 2), Fraction(1, 3)]).to_json() == {"type": "additive", "values": ["1/2", "1/3"]}
