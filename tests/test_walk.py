"""The lazy chain walk against the eager construction it replaces.

``build_chain`` and ``interval_chains`` return walks (a start pair plus
per-step moves) and scan them with running bundles; the references in
``conftest`` build every step from its definition, and ``is_ef1`` on the
materialized steps is the ground truth for the scan.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conflictfair import (
    CHORES,
    Additive,
    Allocation,
    Composite,
    Instance,
    Negated,
    build_chain,
    chain_ef1,
    complete_to_maximal_is,
    interval_chains,
    interval_ef1,
    is_ef1,
    swap_ef1,
)
from conflictfair.chain import Walk, most_valuable_source
from conflictfair.core import _AdditiveBundle, _TableBundle, to_goods
from conflictfair.graph_classes import _splice_walk

from conftest import (
    chain_side_sets,
    eager_chain_steps,
    eager_interval_segments,
    eager_splice,
    interval_junctions,
    random_additive,
    random_graph,
    random_intervals,
    random_monotone_table,
    reference_side_sets,
    without_repeats,
)


def _chores_model(rng, m):
    """A chores valuation of each kind, before ``to_goods`` negates it."""
    kind = rng.randrange(3)
    if kind == 0:
        return Additive([-rng.randint(0, 10) for _ in range(m)])
    if kind == 1:
        return Negated(random_monotone_table(rng, m))
    base = rng.randint(0, min(m, 4))
    return Composite(Negated(random_monotone_table(rng, base)), base, Additive([-rng.randint(0, 3) for _ in range(m)]))


def _goods_model(rng, m):
    kind = rng.randrange(3)
    if kind == 0:
        return random_additive(rng, m)
    if kind == 1:
        return random_monotone_table(rng, m)
    base = rng.randint(0, min(m, 4))
    return Composite(random_monotone_table(rng, base), base, random_additive(rng, m, hi=3))


def _instance(rng, graph):
    """Goods-mode two-agent instance over ``graph``: goods, or chores
    negated into goods, with additive, table or composite valuations."""
    m = graph.m
    if rng.random() < 0.5:
        return Instance(graph, 2, _goods_model(rng, m))
    return to_goods(Instance(graph, 2, _chores_model(rng, m), CHORES))


def _first_ef1_by_definition(instance, steps):
    """Index and allocation of the first EF1 step, or (None, None)."""
    return next(((i, step) for i, step in enumerate(steps) if is_ef1(instance, step)), (None, None))


@pytest.fixture(scope="module")
def swap_corpus():
    rng = random.Random(101)
    corpus = []
    for _ in range(60):
        m = rng.randint(1, 10)
        instance = _instance(rng, random_graph(rng, m, rng.choice([0.2, 0.4, 0.6])))
        sources = [most_valuable_source(instance), complete_to_maximal_is(instance.graph, ())]
        for source in sources:
            order = sorted(source)
            rng.shuffle(order)
            corpus.append((instance, tuple(order)))
    return corpus


@pytest.fixture(scope="module")
def interval_corpus():
    rng = random.Random(202)
    corpus = []
    for _ in range(60):
        m = rng.randint(1, 10)
        intervals = random_intervals(rng, m, span=rng.choice([6, 12, 20]))
        corpus.append((_instance(rng, intervals.induced_graph()), intervals))
    return corpus


def test_chain_walk_equals_eager_steps(swap_corpus):
    for instance, source in swap_corpus:
        chain = build_chain(instance, source)
        # X_1, chosen a step at a time, and X_2, at the walk's ends, equal the sorted greedy sets
        assert chain_side_sets(chain) == reference_side_sets(instance.graph, source)
        reference = eager_chain_steps(instance.graph, source, chain)
        assert list(chain.steps) == without_repeats(reference) == reference
        assert len(chain.steps) == len(reference)
        assert chain.steps.first_ef1(instance.identical_model) == _first_ef1_by_definition(instance, reference)


def test_interval_walks_equal_eager_segments(interval_corpus):
    for instance, intervals in interval_corpus:
        chains = interval_chains(instance, intervals)
        narrowing, core, widening, combined = eager_interval_segments(instance, intervals, interval_junctions(chains))
        assert list(chains.narrowing) == without_repeats(narrowing)
        assert list(chains.core) == without_repeats(core)
        assert list(chains.widening) == without_repeats(widening)
        assert list(chains.combined) == without_repeats(combined)
        steps = list(chains.combined)
        assert chains.combined.first_ef1(instance.identical_model) == _first_ef1_by_definition(instance, steps)
        # dropping repeats cannot change the allocation the solver returns
        assert interval_ef1(instance, intervals) == _first_ef1_by_definition(instance, combined)[1]


def test_splice_walk_equals_eager_splice_on_any_orders():
    # orders the interval solver may never produce, such as a step whose
    # joining good is still in the tail while its leaving good is already
    # in the prefix, so that the bundle does not change
    rng = random.Random(404)
    cases = [((2, 0, 4), (3, 2, 0))]
    for _ in range(300):
        k = rng.randint(0, 6)
        cases.append((tuple(rng.sample(range(9), k)), tuple(rng.sample(range(9), k))))
    for prefix, tail in cases:
        for side in (0, 1):
            fixed = frozenset(range(10, 10 + rng.randint(0, 2)))
            walk = _splice_walk(prefix, tail, fixed, side)
            assert list(walk) == without_repeats(eager_splice(prefix, tail, fixed, side))


def test_indexing_slicing_and_index_match_the_list(swap_corpus, interval_corpus):
    walks = [build_chain(instance, source).steps for instance, source in swap_corpus[:20]]
    walks += [interval_chains(instance, intervals).combined for instance, intervals in interval_corpus[:20]]
    for walk in walks:
        steps = list(walk)
        assert all(walk.index(step) == steps.index(step) for step in steps)
        with pytest.raises(ValueError):
            walk.index(Allocation([{-1}, ()]))


def test_then_needs_a_matching_start():
    first = Walk((frozenset({0}), frozenset()), (((0,), (), (), (0,)),))
    second = Walk((frozenset(), frozenset({0})), (((), (1,), (), ()),))
    joined = first.then(second)
    assert list(joined) == [Allocation([{0}, ()]), Allocation([(), {0}]), Allocation([{1}, {0}])]
    with pytest.raises(RuntimeError):
        second.then(first)
    with pytest.raises(RuntimeError):
        first.then(first)


def test_solvers_build_only_the_allocation_they_return(monkeypatch):
    rng = random.Random(303)
    cases = []
    for _ in range(20):
        m = rng.randint(4, 14)
        cases.append(("swap", _instance(rng, random_graph(rng, m, 0.3)), None))
        intervals = random_intervals(rng, m, span=10)
        cases.append(("interval", _instance(rng, intervals.induced_graph()), intervals))
    built = []
    init = Allocation.__init__

    def counting(self, bundles):
        built.append(1)
        init(self, bundles)

    monkeypatch.setattr(Allocation, "__init__", counting)
    for kind, instance, intervals in cases:
        built.clear()
        result = swap_ef1(instance)[0] if kind == "swap" else interval_ef1(instance, intervals)
        assert isinstance(result, Allocation)
        assert len(built) == 1, kind


def test_solvers_replay_no_walk_to_rebuild_their_step(monkeypatch, swap_corpus, interval_corpus):
    # chain_ef1 replays nothing; interval_ef1 replays each left walk once,
    # to check the junction where the next segment starts
    yielded = []
    replay = Walk._replay

    def counting(self):
        for pair in replay(self):
            yielded.append(1)
            yield pair

    monkeypatch.setattr(Walk, "_replay", counting)
    for instance, source in swap_corpus:
        yielded.clear()
        chain_ef1(instance, source)
        assert not yielded
    for instance, intervals in interval_corpus:
        chains = interval_chains(instance, intervals)
        yielded.clear()
        interval_ef1(instance, intervals)
        assert len(yielded) == len(chains.narrowing) + len(chains.core)


def test_source_outside_the_goods_is_rejected():
    instance = Instance(random_graph(random.Random(1), 3, 0.0), 2, Additive([1, 2, Fraction(1, 2)]))
    for source in ([0, 1, 2, -1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="outside"):
            build_chain(instance, source)


def _tie_model(rng, m, chores):
    """A valuation whose values tie often: additive values in {0, 1, 2}, all
    zero, a table of steps 0-1, or a composite of such a table and additive
    values; for chores the same kinds negated, which ``to_goods`` undoes."""
    sign = -1 if chores else 1
    kind = rng.randrange(4)
    if kind == 0:
        return Additive([sign * rng.randint(0, 2) for _ in range(m)])
    if kind == 1:
        return Additive([0] * m)
    base = m if kind == 2 else rng.randint(0, min(m, 4))
    table = random_monotone_table(rng, base, step=1)
    table = Negated(table) if chores else table
    if kind == 2:
        return table
    return Composite(table, base, Additive([sign * rng.randint(0, 2) for _ in range(m)]))


def _tie_instance(rng, graph):
    if rng.random() < 0.5:
        return Instance(graph, 2, _tie_model(rng, graph.m, False))
    return to_goods(Instance(graph, 2, _tie_model(rng, graph.m, True), CHORES))


def _seeded_tie_instance(seed):
    rng = random.Random(seed)
    m = rng.randint(0, 10)
    return _tie_instance(rng, random_graph(rng, m, rng.choice([0.2, 0.4, 0.6])))


# Seeds whose tie-heavy instance takes two swap rounds (31 of the first 40 000).
ESCALATING_TIES = (250, 874, 1567, 1583, 2142, 2492, 8240, 10445, 12879, 16347, 16562, 18061)


def _count_ties(counts, instance, steps, stop):
    """Count the steps scanned up to ``stop`` (all when None) that hold an
    empty bundle or two equal values, and those of them the scan stops at."""
    value = instance.identical_model.value
    counts["no stop"] += stop is None
    for i, (one, two) in enumerate(steps[: len(steps) if stop is None else stop + 1]):
        for kind, holds in (("empty", not (one and two)), ("tied", value(one) == value(two))):
            counts[kind] += holds
            counts[kind + " stop"] += holds and i == stop


def test_scan_matches_the_definition_where_values_tie():
    # is_ef1 on each materialized step is the reference; conftest's
    # reference_swap_ef1 is not, since it scans through chain_ef1 too
    counts, rng = Counter(), random.Random(606)
    for seed in (*range(240), *ESCALATING_TIES):
        instance = _seeded_tie_instance(seed)
        for source in (most_valuable_source(instance), complete_to_maximal_is(instance.graph, ())):
            order = sorted(source)
            rng.shuffle(order)
            walk = build_chain(instance, order).steps
            steps = list(walk)
            expected = _first_ef1_by_definition(instance, steps)
            assert walk.first_ef1(instance.identical_model) == expected
            _count_ties(counts, instance, steps, expected[0])
        allocation, trace = swap_ef1(instance)
        assert len(trace) >= 1 + (seed in ESCALATING_TIES)
        for round_ in trace:
            # a failed round has no EF1 step; the last round returns its first one
            steps = list(build_chain(instance, round_.source).steps)
            index, step = _first_ef1_by_definition(instance, steps)
            assert (index is None) == (round_.chosen is not None)
            _count_ties(counts, instance, steps, index)
        assert allocation == step
    for _ in range(240):
        m = rng.randint(0, 10)
        intervals = random_intervals(rng, m, span=rng.choice([6, 12, 20]))
        instance = _tie_instance(rng, intervals.induced_graph())
        walk = interval_chains(instance, intervals).combined
        steps = list(walk)
        expected = _first_ef1_by_definition(instance, steps)
        assert walk.first_ef1(instance.identical_model) == expected
        assert interval_ef1(instance, intervals) == expected[1]
        _count_ties(counts, instance, steps, expected[0])
    assert min(counts[k] for k in ("empty", "tied", "empty stop", "tied stop")) >= 100, counts
    assert counts["no stop"] >= len(ESCALATING_TIES), counts


def test_scan_reads_one_drop_per_step(monkeypatch):
    # only the richer bundle's holder can fail EF1, so a step reads one drop
    rng = random.Random(707)
    cases = []
    for _ in range(60):
        m = rng.randint(0, 10)
        model = random_additive(rng, m) if rng.random() < 0.5 else random_monotone_table(rng, m)
        cases.append((Instance(random_graph(rng, m, rng.choice([0.2, 0.4, 0.6])), 2, model), None))
        intervals = random_intervals(rng, m, span=12)
        cases.append((Instance(intervals.induced_graph(), 2, model), intervals))
    reads = []
    for bundle in (_AdditiveBundle, _TableBundle):

        def counting(self, drop=bundle.min_drop.fget):
            reads.append(1)
            return drop(self)

        monkeypatch.setattr(bundle, "min_drop", property(counting))
    total = 0
    for instance, intervals in cases:
        reads.clear()
        if intervals is None:
            walks = [build_chain(instance, round_.source).steps for round_ in swap_ef1(instance)[1]]
        else:
            interval_ef1(instance, intervals)
            walks = [interval_chains(instance, intervals).combined]
        read, scanned = len(reads), 0
        for walk in walks:
            index, _ = _first_ef1_by_definition(instance, list(walk))
            scanned += len(walk) if index is None else index + 1
        assert read <= scanned, (instance, read, scanned)
        total += read
    assert total >= len(cases)
