"""Running bundles (``ValuationModel._bundle``) against ``conftest``'s
recomputing ``ReferenceBundle``.

A running bundle's values are integers over the model's ``den``; scaled
back, each read must equal the reference's exactly, through a random run
of goods joining and leaving, for every model kind in goods and chores
mode: composites draw their bases from every kind, nested ones included.
The largest drop is read as minus the least drop of a bundle of the
model's negation, run alongside.
"""

import random
from fractions import Fraction

import pytest

from conflictfair import CHORES, GOODS, Additive, Negated

from conftest import ReferenceBundle, random_model


def _model(rng, m, mode, kind):
    """A model of ``conftest.MODEL_KINDS`` kind, or the negation of one
    for a kind "negated <kind>"."""
    if kind.startswith("negated "):
        return Negated(random_model(rng, m, CHORES if mode == GOODS else GOODS, kind=kind.removeprefix("negated ")))
    return random_model(rng, m, mode, kind=kind)


@pytest.mark.parametrize("kind", ["additive", "negated additive", "table", "negated table", "composite", "uniform",
                                  "negated", "double-negated", "negated composite"])
def test_scan_comparisons_agree_with_definitions(kind):
    rng = random.Random(kind)
    for mode in [GOODS, CHORES] * 8:
        m = rng.randint(1, 7)
        model = _model(rng, m, mode, kind)
        den = model.den
        goods = rng.sample(range(m), rng.randint(0, m))
        run, reference = model._bundle(goods), ReferenceBundle(model, goods)
        negated = model._negation._bundle(goods)
        for _ in range(40):
            g = rng.randrange(m)
            if g in reference.goods:
                run.remove(g)
                negated.remove(g)
                reference.remove(g)
            else:
                run.add(g)
                negated.add(g)
                reference.add(g)
            assert run.goods == reference.goods
            assert Fraction(run.value, den) == reference.value
            assert Fraction(run.min_drop, den) == reference.min_drop
            assert Fraction(-negated.min_drop, den) == reference.max_drop
            g = rng.randrange(m)
            assert Fraction(run.gain(g), den) == reference.gain(g)


def test_additive_bundle_survives_re_adding_a_good():
    # once its heap exists, a removed good stays in it until it surfaces;
    # adding it back must neither count it twice nor lose it. The largest
    # drop is minus the least drop of the negation's bundle, run alongside.
    model = Additive([5, 1, 3])
    bundles = model._bundle((0, 1, 2)), model._negation._bundle((0, 1, 2))

    def reads():
        bundle, negated = bundles
        return len(bundle.goods), bundle.value, bundle.min_drop, -negated.min_drop

    def each(*moves):
        for name, g in moves:
            for bundle in bundles:
                getattr(bundle, name)(g)

    assert reads() == (3, 9, 4, 8)
    each(("remove", 0), ("add", 0), ("add", 0))
    assert reads() == (3, 9, 4, 8)
    each(("remove", 0))
    assert reads() == (2, 4, 1, 3)
    each(("remove", 1), ("remove", 2))
    assert reads() == (0, 0, 0, 0)
