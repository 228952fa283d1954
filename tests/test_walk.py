"""The lazy chain walk against the eager construction it replaces.

``build_chain`` and ``interval_chains`` return walks (a start pair plus a
function that generates the per-step moves) and scan them with running
bundles; the references in ``conftest`` build every step from its
definition, and ``is_ef1`` on the materialized steps is the ground truth for
the scan.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conflictfair import (
    CHORES,
    GOODS,
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    IntervalChains,
    IntervalSet,
    Negated,
    build_chain,
    chain_ef1,
    complete_to_maximal_is,
    interval_chains,
    interval_ef1,
    is_ef1,
    swap_ef1,
)
from conflictfair import graph_classes
from conflictfair.chain import Walk, chain_steps, most_valuable_source
from conflictfair.core import _AdditiveBundle, _TableBundle, to_goods
from conflictfair.graph_classes import _splice_moves

from conftest import (
    chain_side_sets,
    eager_chain_steps,
    eager_interval_segments,
    eager_splice,
    interval_junctions,
    interval_segments,
    random_additive,
    random_graph,
    random_intervals,
    random_monotone_table,
    reference_interval_ef1,
    reference_side_sets,
    reference_swap_ef1,
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
        reference = eager_chain_steps(instance.graph, source, *chain_side_sets(chain))
        assert list(chain.steps) == without_repeats(reference) == reference
        assert len(chain.steps) == len(reference)
        assert chain.steps.first_ef1(instance.identical_model) == _first_ef1_by_definition(instance, reference)


def _tied_position_sources(rng):
    """Graphs with a maximal independent set S whose other goods tie on p or
    q, each with S in a shuffled order: stars, S the centre or the leaves;
    complete bipartite graphs, S one side; random graphs in which one good
    of S neighbours every good outside S."""
    cases = []
    for m in range(2, 10):
        star = ConflictGraph(m, [(0, g) for g in range(1, m)])
        cases += [(star, {0}), (star, set(range(1, m)))]
    for a, b in itertools.product(range(1, 5), repeat=2):
        graph = ConflictGraph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])
        cases += [(graph, set(range(a))), (graph, set(range(a, a + b)))]
    for _ in range(60):
        m = rng.randint(2, 10)
        graph = random_graph(rng, m, rng.choice([0.2, 0.4]))
        source = complete_to_maximal_is(graph, ())
        hub = rng.choice(sorted(source))
        cases.append((ConflictGraph(m, [*graph.edges, *((hub, t) for t in range(m) if t not in source)]), source))
    for graph, source in cases:
        order = sorted(source)
        rng.shuffle(order)
        yield graph, tuple(order)


def test_chain_walk_equals_eager_steps_where_positions_tie():
    # X_2's greedy order breaks ties of p by descending t, X_1's of q by
    # ascending t; here most goods outside S tie
    rng = random.Random(707)
    cases = list(_tied_position_sources(rng))
    assert len(cases) >= 100
    for graph, source in cases:
        for chores in (False, True):
            instance = Instance(graph, 2, _tie_model(rng, graph.m, chores), CHORES if chores else GOODS)
            instance = to_goods(instance) if chores else instance
            chain = build_chain(instance, source)
            assert chain_side_sets(chain) == reference_side_sets(graph, source), (graph, source)
            assert list(chain.steps) == eager_chain_steps(graph, source, *chain_side_sets(chain)), (graph, source)
            assert swap_ef1(instance) == reference_swap_ef1(instance), (graph, source, chores)


def test_interval_walks_equal_eager_segments(interval_corpus):
    for instance, intervals in interval_corpus:
        chains = interval_chains(instance, intervals)
        junctions = interval_junctions(intervals, chains)
        segments = eager_interval_segments(instance, intervals, junctions)
        narrowing, core, widening, combined = map(without_repeats, segments)
        # the walk lays the segments end to end, each starting at the last
        # step of the one before
        steps = list(chains.combined)
        n, c = len(narrowing), len(core)
        assert steps[:n] == narrowing
        assert steps[n - 1 : n + c - 1] == core
        assert steps[n + c - 2 :] == widening
        assert steps == combined
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
            start = (fixed, frozenset(tail)) if side == 0 else (frozenset(tail), fixed)
            walk = Walk(start, lambda: _splice_moves(prefix, tail, side))
            assert list(walk) == without_repeats(eager_splice(prefix, tail, fixed, side))


def test_indexing_slicing_and_index_match_the_list(swap_corpus, interval_corpus):
    walks = [build_chain(instance, source).steps for instance, source in swap_corpus[:20]]
    walks += [interval_chains(instance, intervals).combined for instance, intervals in interval_corpus[:20]]
    for walk in walks:
        steps = list(walk)
        assert all(walk.index(step) == steps.index(step) for step in steps)
        with pytest.raises(ValueError):
            walk.index(Allocation([{-1}, ()]))


def test_a_junction_needs_a_matching_start(monkeypatch):
    # a narrowing of three steps and a core of three, sharing one step, and
    # a widening of one, the core's last
    intervals = IntervalSet([(6, 8), (3, 5), (4, 6), (5, 7), (5, 7), (3, 5)])
    instance = Instance(intervals.induced_graph(), 2, Additive([1] * 6))
    steps = [({1, 3}, {4, 5}), ({1, 3}, {0, 5}), ({1, 3}, {0, 2}), ({3, 5}, {0, 1}), ({4, 5}, {1, 3})]
    assert list(interval_chains(instance, intervals).combined) == list(map(Allocation, steps))
    # a narrowing that loses its last move ends one step short of the
    # core's start: a reader gets the move before the junction, then the
    # error when it goes past it
    splice = graph_classes._splice_moves
    short = lambda *args: iter([*splice(*args)][: -1 if args[2] == 0 else None])
    monkeypatch.setattr(graph_classes, "_splice_moves", short)
    walk = interval_chains(instance, intervals).combined
    moves = walk._moves()
    assert next(moves) == ((), (), (4,), (0,))
    with pytest.raises(RuntimeError, match="walks do not meet"):
        next(moves)
    with pytest.raises(RuntimeError, match="walks do not meet"):
        len(walk)


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
    # chain_ef1 replays nothing; interval_ef1 replays a segment's moves
    # once, to check the junction where the next segment starts, only if
    # its scan goes past that junction
    expected = []
    for instance, intervals in interval_corpus:
        chains = interval_chains(instance, intervals)
        stop, _ = chains.combined.first_ef1(instance.identical_model)
        narrowing, core, _ = map(len, interval_segments(instance, intervals, chains))
        expected.append(narrowing * (stop >= narrowing) + core * (stop >= narrowing + core - 1))
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
    for (instance, intervals), replays in zip(interval_corpus, expected):
        yielded.clear()
        interval_ef1(instance, intervals)
        assert len(yielded) == replays
    assert 0 < expected.count(0) < len(expected)


@pytest.fixture(scope="module")
def goods_and_chores_intervals():
    # each interval set twice: with a goods valuation, and with a chores
    # valuation negated into goods mode, as the solver receives it
    rng = random.Random(505)
    corpus = []
    for _ in range(60):
        m = rng.randint(1, 12)
        intervals = random_intervals(rng, m, span=rng.choice([6, 12, 20]))
        graph = intervals.induced_graph()
        corpus.append((Instance(graph, 2, _goods_model(rng, m)), intervals))
        corpus.append((to_goods(Instance(graph, 2, _chores_model(rng, m), CHORES)), intervals))
    return corpus


def test_interval_scan_generates_no_move_past_its_stop(monkeypatch, goods_and_chores_intervals):
    # A move counts as generated when the walk's generator yields it, and
    # the core's steps also as chain_steps yields them. Building the chains
    # generates none; a scan generates only the moves up to its stop, and
    # starts chain_steps only once it crosses into the core.
    generated, core_steps = [], []
    segments = [map(len, interval_segments(instance, intervals, interval_chains(instance, intervals)))
                for instance, intervals in goods_and_chores_intervals]

    def logged_chains(*args):
        walk = interval_chains(*args).combined
        return IntervalChains(Walk(walk.start, lambda: (generated.append(move) or move for move in walk._moves())))

    def logged_chain_steps(*args):
        for step in chain_steps(*args):
            core_steps.append(step)
            yield step

    # interval_ef1 reaches both through the module attributes
    monkeypatch.setattr(graph_classes, "interval_chains", logged_chains)
    monkeypatch.setattr(graph_classes, "chain_steps", logged_chain_steps)
    stops = Counter()
    for (instance, intervals), (narrowing, core, _) in zip(goods_and_chores_intervals, segments):
        expected, _ = reference_interval_ef1(instance, intervals)
        generated.clear(), core_steps.clear()
        chains = logged_chains(instance, intervals)
        assert not generated and not core_steps
        stop, allocation = chains.combined.first_ef1(instance.identical_model)
        assert allocation == expected
        scanned = generated[:], core_steps[:]
        generated.clear(), core_steps.clear()
        assert interval_ef1(instance, intervals) == expected
        assert (generated, core_steps) == scanned
        assert len(scanned[0]) == stop
        assert len(scanned[1]) == (0 if stop < narrowing else min(stop - narrowing + 2, core))
        stops["step 0" if stop == 0 else "narrowing" if stop < narrowing else "past it"] += 1
    assert min(stops[k] for k in ("step 0", "narrowing", "past it")) >= 10, stops


def test_interval_scan_calls_chain_steps_only_past_the_narrowing(monkeypatch, goods_and_chores_intervals):
    # graph_classes.chain_steps counted through the module attribute: an
    # untraced solve that stops in the narrowing never starts the core
    # chain, and one that stops later starts it once.
    cases = []
    for instance, intervals in goods_and_chores_intervals:
        chains = interval_chains(instance, intervals)
        stop, _ = chains.combined.first_ef1(instance.identical_model)
        narrowing, _, _ = interval_segments(instance, intervals, chains)
        cases.append((instance, intervals, stop >= len(narrowing)))
    calls = []
    original = graph_classes.chain_steps
    monkeypatch.setattr(graph_classes, "chain_steps", lambda *args: calls.append(args) or original(*args))
    stops = Counter()
    for instance, intervals, past in cases:
        calls.clear()
        interval_ef1(instance, intervals)
        assert len(calls) == past
        stops[past] += 1
    assert min(stops.values()) >= 10 and len(stops) == 2, stops


def test_a_faulted_junction_raises_once_a_reader_crosses_it(monkeypatch, goods_and_chores_intervals):
    # The narrowing splice loses its last move, so it ends one step short
    # of the core's start; or the core chain loses its last move, so it ends
    # one step short of the widening's start. A reader gets every move
    # before the faulted junction, then the error; a scan that stops before
    # it returns what it returned unfaulted.
    cases = []
    for instance, intervals in goods_and_chores_intervals:
        chains = interval_chains(instance, intervals)
        stop, allocation = chains.combined.first_ef1(instance.identical_model)
        narrowing, core, _ = map(len, interval_segments(instance, intervals, chains))
        cases.append((instance, intervals, narrowing, core, stop, allocation))
    splice, steps = graph_classes._splice_moves, graph_classes.chain_steps
    faults = {
        "narrowing": ("_splice_moves", lambda *args: iter([*splice(*args)][: -1 if args[2] == 0 else None])),
        "core": ("chain_steps", lambda *args: iter([*steps(*args)][:-1])),
    }
    outcomes = Counter()
    for fault, (attribute, faulted) in faults.items():
        monkeypatch.setattr(graph_classes, attribute, faulted)
        for instance, intervals, narrowing, core, stop, allocation in cases:
            if (narrowing if fault == "narrowing" else core) == 1:
                continue  # no move to lose: the junction holds
            # the combined index of the step the faulted segment lost
            lost = narrowing - 1 if fault == "narrowing" else narrowing + core - 2
            walk = interval_chains(instance, intervals).combined
            moves = walk._moves()
            assert len([*itertools.islice(moves, lost - 1)]) == lost - 1
            with pytest.raises(RuntimeError, match="walks do not meet"):
                next(moves)
            with pytest.raises(RuntimeError, match="walks do not meet"):
                len(walk)
            if stop < lost:
                assert interval_ef1(instance, intervals) == allocation
                outcomes[fault, "stops before"] += 1
            else:
                with pytest.raises(RuntimeError, match="walks do not meet"):
                    interval_ef1(instance, intervals)
                outcomes[fault, "crosses"] += 1
        monkeypatch.undo()
    # no scan here reaches the core's last step, so the core's fault is
    # crossed by the direct reads above only
    expected = (("narrowing", "stops before"), ("narrowing", "crosses"), ("core", "stops before"))
    assert min(outcomes[k] for k in expected) >= 10, outcomes


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
