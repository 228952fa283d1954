"""Running bundles (``ValuationModel._bundle``) against the definitional
valuation on frozensets.

A running bundle's values are in the model's own units (``Additive`` keeps
integer numerators), so only the comparisons the chain scan makes are
checked: their signs must agree with the same comparisons made through
``value``, ``min_drop`` and ``max_drop`` on the bundles' goods.
"""

import random

import pytest

from conflictfair import Additive, Composite, Negated, Uniform

from conftest import random_additive, random_monotone_table


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _models(rng, m):
    additive = Additive([rng.randint(0, 9) * rng.choice([1, 3]) for _ in range(m)])
    table = random_monotone_table(rng, m)
    composite = Composite(random_monotone_table(rng, m // 2), m // 2, random_additive(rng, m, hi=4))
    return {
        "additive": additive,
        "negated additive": Negated(additive),
        "table": table,
        "negated table": Negated(table),
        "composite": composite,
        "uniform": Uniform(),
    }


@pytest.mark.parametrize("kind", ["additive", "negated additive", "table", "negated table", "composite", "uniform"])
def test_scan_comparisons_agree_with_definitions(kind):
    rng = random.Random(kind)
    for _ in range(12):
        m = rng.randint(1, 7)
        model = _models(rng, m)[kind]
        members = [set(rng.sample(range(m), rng.randint(0, m))) for _ in range(2)]
        bundles = [model._bundle(goods) for goods in members]
        for _ in range(60):
            side = rng.randrange(2)
            g = rng.randrange(m)
            if g in members[side]:
                members[side].remove(g)
                bundles[side].remove(g)
            else:
                members[side].add(g)
                bundles[side].add(g)
            for a, b in ((0, 1), (1, 0)):
                run_a, run_b = bundles[a], bundles[b]
                set_a, set_b = frozenset(members[a]), frozenset(members[b])
                assert len(run_a) == len(set_a)
                value_a = model.value(set_a)
                assert _sign(run_a.value - run_b.min_drop) == _sign(value_a - model.min_drop(set_b))
                assert _sign(run_a.value - run_b.max_drop) == _sign(value_a - model.max_drop(set_b))
                g, h = rng.randrange(m), rng.randrange(m)
                gain = lambda x: model.value(set_a | {x}) - value_a
                assert _sign(run_a.gain(g) - run_a.gain(h)) == _sign(gain(g) - gain(h))
                assert _sign(run_a.gain(g)) == _sign(gain(g))


def test_additive_bundle_survives_re_adding_a_good():
    # once its heaps exist, a removed good stays in them until it surfaces;
    # adding it back must neither count it twice nor lose it
    model = Additive([5, 1, 3])
    bundle = model._bundle((0, 1, 2))
    assert (bundle.value, bundle.min_drop, bundle.max_drop) == (9, 4, 8)
    bundle.remove(0)
    bundle.add(0)
    bundle.add(0)
    assert (bundle.value, bundle.min_drop, bundle.max_drop) == (9, 4, 8)
    bundle.remove(0)
    assert (bundle.value, bundle.min_drop, bundle.max_drop) == (4, 1, 3)
    bundle.remove(1)
    bundle.remove(2)
    assert (len(bundle), bundle.value, bundle.min_drop, bundle.max_drop) == (0, 0, 0, 0)
