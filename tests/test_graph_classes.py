"""Interval scheduling, interval/bipartite solvers, and round robin."""

import itertools
import random
from fractions import Fraction

import pytest

from conflictfair import (
    CHORES,
    GOODS,
    Additive,
    ConflictGraph,
    Instance,
    IntervalSet,
    Negated,
    bipartite_ef1,
    bipartition,
    chain_ef1,
    evaluate,
    interval_chains,
    interval_ef1,
    interval_scheduling_greedy,
    is_ef1,
    is_maximal,
    round_robin_small,
    validate_allocation,
)
from conflictfair.oracle import exists_maximal_ef1

from conftest import (
    brute_max_schedule_size,
    interval_junctions,
    interval_segments,
    is_ordered_adjacent,
    random_additive,
    random_graph,
    random_intervals,
    random_monotone_table,
    reference_interval_check,
    reference_interval_ef1,
    reference_interval_set,
    schedule_feasible,
    slice_greedy,
    sweep_check,
)


def interval_corpus(rng, count):
    """Seeded interval sets of 1-12 goods with many coincident endpoints,
    nested chains, equal lengths, and spread-out random intervals."""
    for i in range(count):
        m = rng.randint(1, 12)
        kind = i % 4
        if kind == 0:
            yield random_intervals(rng, m, span=rng.randint(2, 6))
        elif kind == 1:
            lefts = sorted(rng.randint(0, 8) for _ in range(m))
            rights = sorted((rng.randint(9, 17) for _ in range(m)), reverse=True)
            raw = list(zip(lefts, rights))
            raw[rng.randrange(m)] = (rng.randint(0, 15), 17)
            yield IntervalSet(rng.sample(raw, m))
        elif kind == 2:
            length = rng.randint(1, 4)
            yield IntervalSet([(l, l + length) for l in (rng.randint(0, 10) for _ in range(m))])
        else:
            yield random_intervals(rng, m, span=40)


def large_intervals(rng, m, kind):
    """An interval set of ``m`` goods, at the bench's sizes and past them:
    nested runs around shared centres (kind 0), a grid narrow enough that
    most endpoints coincide (1), ``Fraction`` endpoints (2), or the bench's
    own shape, lengths drawn around a mean point coverage of 3 to 10 (3)."""
    if kind == 0:
        raw = []
        while len(raw) < m:
            centre = rng.randint(0, 4 * m)
            raw += [(centre - w, centre + w) for w in range(1, rng.randint(2, 7))]
        return IntervalSet(rng.sample(raw, m))
    if kind == 1:
        return random_intervals(rng, m, span=rng.randint(2, 2 + m // 3))
    if kind == 2:
        lefts = [Fraction(rng.randint(0, 3 * m), rng.choice((1, 2, 3, 7))) for _ in range(m)]
        return IntervalSet([(l, l + Fraction(rng.randint(1, 3 * m), rng.choice((1, 2, 5)))) for l in lefts])
    span, load = 10 * m, rng.uniform(3.0, 10.0)
    raw = []
    for _ in range(m):
        length = rng.uniform(0.2, 1.0) if rng.random() < 0.7 else rng.uniform(1.0, 2.9)
        left = rng.randint(0, span)
        raw.append((left, left + max(1, round(length * load * 10))))
    return IntervalSet(raw)


def check_outcome(check, intervals, graph):
    try:
        check(intervals, graph)
    except ValueError as error:
        return str(error)
    return None


class TestIntervalSet:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            IntervalSet([(1, 1)])

    def test_touching_intervals_do_not_conflict(self):
        iv = IntervalSet([(0, 2), (2, 4)])
        assert not iv.overlaps(0, 1)
        assert iv.induced_graph().edges == frozenset()

    def test_perturbation_preserves_overlap_graph(self, rng):
        # small integer endpoints force plenty of coincidences
        for _ in range(200):
            m = rng.randint(1, 8)
            raw = []
            for _g in range(m):
                l = rng.randint(0, 6)
                raw.append((l, rng.randint(l + 1, 7)))
            iv = IntervalSet(raw)
            keys = [k for pair in iv.keys for k in pair]
            assert len(set(keys)) == 2 * m
            assert sorted(keys) == list(range(2 * m))
            raw_overlaps = set()
            for i in range(m):
                for j in range(i + 1, m):
                    li, ri = raw[i]
                    lj, rj = raw[j]
                    assert iv.overlaps(i, j) == (li < rj and lj < ri)
                    if li < rj and lj < ri:
                        raw_overlaps.add((i, j))
            assert iv.induced_graph().edges == raw_overlaps

    def test_matches_fraction_sort_reference(self, rng):
        # Integer, half, third and mixed endpoints on a small grid reaching
        # below 0, so many coincide; a few empty intervals and float
        # endpoints, where the first bad interval in input order names the
        # error.
        outcomes = set()
        for i in range(600):
            dens = ([1], [2], [3], [1, 2, 3])[i % 4]
            raw = []
            for _ in range(rng.randint(0, 14)):
                l, r = (Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(2))
                roll = rng.random()
                if roll < 0.03:
                    raw.append((l, l) if roll < 0.015 else (max(l, r) + 1, min(l, r)))
                elif roll < 0.045:
                    raw.append((float(min(l, r)), max(l, r) + 1))
                else:
                    l, r = min(l, r), max(l, r) + Fraction(1, rng.choice(dens))
                    raw.append((int(l), int(r)) if dens == [1] else (l, r))
            try:
                iv = IntervalSet(raw)
                got = ("ok", iv.intervals, iv.keys)
            except (TypeError, ValueError) as exc:
                got = (type(exc), str(exc))
            try:
                expected = ("ok", *reference_interval_set(raw))
            except (TypeError, ValueError) as exc:
                expected = (type(exc), str(exc))
            assert got == expected, raw
            if got[0] == "ok":
                # the stored endpoint orders: goods sorted by left, then by right rank
                assert (iv.by_left, iv.by_right) == tuple(
                    tuple(sorted(range(len(raw)), key=lambda g: expected[2][g][side])) for side in (0, 1)
                ), raw
            outcomes.add(got[0])
        assert outcomes == {"ok", TypeError, ValueError}

    def test_construction_compares_no_fraction(self, monkeypatch):
        # Integer ranks and signs: building an interval set and checking an
        # additive model never compare two Fractions.
        rng = random.Random(17)
        lefts = [Fraction(rng.randint(-300, 300), 3) for _ in range(200)]
        raw = [(l, l + Fraction(rng.randint(1, 60), 3)) for l in lefts]
        values = [Fraction(rng.randint(0, 9), rng.choice([1, 2, 3])) for _ in range(200)]
        goods, chores = Additive(values), Additive([-v for v in values])
        compared = []
        for name in ("__lt__", "_richcmp"):
            original = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, *rest, original=original: compared.append(a) or original(a, b, *rest))
        IntervalSet(raw)
        goods.check(200, GOODS)
        chores.check(200, CHORES)
        assert Fraction(1, 3) < Fraction(1, 2) and compared, "the counting hooks are not in place"
        compared.clear()
        IntervalSet(raw)
        goods.check(200, GOODS)
        chores.check(200, CHORES)
        assert compared == []

    def test_integer_endpoints_stay_ints(self, monkeypatch):
        # Int endpoints are kept as given, with no Fraction built, and
        # ``intervals`` and ``keys`` equal the Fraction reference's.
        rng = random.Random(29)
        raw = [(l, l + rng.randint(1, 9)) for l in (rng.randint(-20, 20) for _ in range(150))]
        expected = reference_interval_set(raw)
        made = []
        original = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: made.append(args) or original(cls, *args, **kw))
        assert Fraction(1, 3) and made, "the counting hook is not in place"
        made.clear()
        iv = IntervalSet(raw)
        assert made == []
        assert (iv.intervals, iv.keys) == expected
        assert all(type(x) is int for pair in iv.intervals for x in pair)

    def test_check_agrees_with_induced_graph(self, rng):
        # accepts exactly the induced graph, with the same error text as the
        # per-edge check that read ``graph.edges`` and as the per-edge
        # ``overlaps`` check with an open-set sweep; each graph is built from
        # its edges in order, and again shuffled, duplicated and reversed
        kinds = set()
        for iv in interval_corpus(rng, 400):
            m = len(iv)
            edges = sorted(iv.induced_graph().edges)
            others = [(u, v) for u in range(m) for v in range(u + 1, m) if (u, v) not in edges]
            another = random_intervals(rng, m, span=rng.randint(2, 12))
            cases = [("induced", m, edges), ("count", m + 1, edges), ("another", m, sorted(another.induced_graph().edges))]
            if m > 1 and not any(m - 1 in edge for edge in edges):
                cases.append(("count", m - 1, edges))
            if edges:
                cases.append(("dropped", m, edges[1:]))
            if others:
                cases.append(("added", m, edges + [rng.choice(others)]))
            if edges and others:
                swapped = edges[:]
                swapped[rng.randrange(len(edges))] = rng.choice(others)
                cases.append(("swapped", m, swapped))
            for kind, goods, listed in cases:
                messy = listed + rng.sample(listed, len(listed) // 2)
                messy = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in messy]
                rng.shuffle(messy)
                for graph in (ConflictGraph(goods, listed), ConflictGraph(goods, messy)):
                    outcome = check_outcome(IntervalSet.check, iv, graph)
                    assert (outcome is None) == (iv.induced_graph() == graph), (kind, iv.keys)
                    assert kind == "another" or (outcome is None) == (kind == "induced"), (kind, iv.keys)
                    assert outcome == check_outcome(reference_interval_check, iv, graph), (kind, iv.keys)
                    assert outcome == check_outcome(sweep_check, iv, graph), (kind, iv.keys)
                    kinds.add((kind, outcome is None))
        assert kinds >= {("another", False), ("another", True)}
        assert {kind for kind, _ in kinds} == {"induced", "count", "another", "dropped", "added", "swapped"}


class TestSchedulingGreedy:
    def test_capacity_one_example(self):
        iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
        assert interval_scheduling_greedy(iv, c=1) == (0, 2)

    def test_capacity_two_takes_all(self):
        iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
        assert interval_scheduling_greedy(iv, c=2) == (0, 1, 2)

    def test_single_interval(self):
        iv = IntervalSet([(5, 9)])
        assert interval_scheduling_greedy(iv, c=1) == (0,)

    def test_matches_slice_reference(self, rng):
        for iv in interval_corpus(rng, 400):
            m = len(iv)
            picked = [g for g in range(m) if rng.random() < 0.7]
            for subset in (None, picked, set(picked)):
                for c in (1, 2, 3, 4):
                    for direction in ("forward", "reverse"):
                        assert interval_scheduling_greedy(iv, subset, c, direction) == slice_greedy(
                            iv, subset, c, direction
                        ), (iv.keys, subset, c, direction)

    @pytest.mark.parametrize("good", [-1, 3, 7, 1.5])
    def test_rejects_goods_outside_the_set(self, good):
        iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
        with pytest.raises(ValueError, match=rf"good {good} is outside \[0,3\)"):
            interval_scheduling_greedy(iv, [0, good])

    @pytest.mark.parametrize(
        "settings, message", [({"c": 0}, "capacity must be at least 1"), ({"direction": "sideways"}, "direction must be")]
    )
    def test_rejects_bad_settings(self, settings, message):
        with pytest.raises(ValueError, match=message):
            interval_scheduling_greedy(IntervalSet([(0, 2), (1, 3), (2, 4)]), **settings)

    def test_matches_brute_force_optimum(self, rng):
        for _ in range(60):
            m = rng.randint(1, 10)
            iv = random_intervals(rng, m, span=12)
            subset = [g for g in range(m) if rng.random() < 0.8]
            for c in (1, 2):
                for direction in ("forward", "reverse"):
                    sol = interval_scheduling_greedy(iv, subset, c, direction)
                    assert schedule_feasible(iv, sol, c)
                    assert len(sol) == brute_max_schedule_size(iv, subset, c)

    def test_feasibility_oracles_agree(self, rng):
        # cross-check the pairwise-overlap shortcut used by the brute
        # force against the direct endpoint sweep
        from conftest import _schedule_feasible

        for _ in range(100):
            m = rng.randint(1, 9)
            iv = random_intervals(rng, m, span=10)
            members = [g for g in range(m) if rng.random() < 0.5]
            overlap_mask = {
                g: sum(1 << h for h in range(m) if h != g and iv.overlaps(g, h))
                for g in members
            }
            mask = sum(1 << g for g in members)
            for c in (1, 2):
                assert _schedule_feasible(members, mask, overlap_mask, c) == schedule_feasible(
                    iv, members, c
                )

    def test_greedy_prefix_dominates_same_size_solutions(self, rng):
        # i-th greedy right endpoint is never later than the i-th right
        # endpoint of any feasible solution of the same size
        for _ in range(40):
            m = rng.randint(2, 9)
            iv = random_intervals(rng, m, span=12)
            for c in (1, 2):
                greedy = interval_scheduling_greedy(iv, c=c)
                k = len(greedy)
                rights = [iv.keys[g][1] for g in greedy]
                goods = list(range(m))
                for pick in itertools.combinations(goods, k):
                    if not schedule_feasible(iv, pick, c):
                        continue
                    other = sorted(iv.keys[g][1] for g in pick)
                    assert all(a <= b for a, b in zip(rights, other))

    def test_prefix_splice_feasible_and_optimal(self, rng):
        for _ in range(40):
            m = rng.randint(1, 9)
            iv = random_intervals(rng, m, span=12)
            greedy = interval_scheduling_greedy(iv, c=1)
            k = len(greedy)
            optima = [
                pick
                for pick in itertools.combinations(range(m), k)
                if schedule_feasible(iv, pick, 1)
            ]
            for optimum in optima[:20]:
                ordered = sorted(optimum, key=lambda g: iv.keys[g][1])
                for i in range(k + 1):
                    spliced = set(greedy[:i]) | set(ordered[i:])
                    assert schedule_feasible(iv, spliced, 1)
                    assert len(spliced) == k


class TestIntervalEf1:
    def test_single_interval(self):
        iv = IntervalSet([(0, 1)])
        instance = Instance(iv.induced_graph(), 2, Additive([1] * 1))
        allocation = interval_ef1(instance, iv)
        assert set(allocation[0]) == {0} and not allocation[1]

    def test_two_disjoint_intervals_split(self):
        iv = IntervalSet([(0, 1), (2, 3)])
        instance = Instance(iv.induced_graph(), 2, Additive([1] * 2))
        allocation = interval_ef1(instance, iv)
        assert is_maximal(instance, allocation) and is_ef1(instance, allocation)
        assert len(allocation[0]) == len(allocation[1]) == 1

    def test_graph_mismatch_rejected(self):
        iv = IntervalSet([(0, 2), (1, 3)])
        instance = Instance(ConflictGraph(2), 2, Additive([1] * 2))
        with pytest.raises(ValueError, match="induce"):
            interval_ef1(instance, iv)

    def test_random_instances_verified_and_match_oracle(self, rng):
        for _ in range(50):
            m = rng.randint(1, 8)
            iv = random_intervals(rng, m, span=12)
            graph = iv.induced_graph()
            model = random_monotone_table(rng, m) if rng.random() < 0.5 else random_additive(rng, m)
            instance = Instance(graph, 2, model)
            allocation = interval_ef1(instance, iv)
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)
            assert exists_maximal_ef1(instance).exists

    def test_matches_reference_at_bench_sizes(self, rng):
        # The bench solves m = 24-49 with nested intervals, past the m <= 9
        # of the pinned allocations; here m runs from 1 to 60, every shape
        # in goods and in chores negated into goods mode, as the bench
        # builds them.
        for i in range(152):
            m = 1 + i * 59 // 151
            iv = large_intervals(rng, m, kind=i % 4)
            model = random_additive(rng, m, hi=20)
            if i // 4 % 2:
                model = Negated(Additive([-v for v in model.values]))
            instance = Instance(iv.induced_graph(), 2, model)
            expected, junctions = reference_interval_ef1(instance, iv)
            assert interval_ef1(instance, iv) == expected, iv.intervals
            assert interval_junctions(iv, interval_chains(instance, iv)) == junctions, iv.intervals

    def test_chain_segments_are_maximal_and_gapless(self, rng):
        for _ in range(40):
            m = rng.randint(1, 9)
            iv = random_intervals(rng, m, span=14)
            instance = Instance(iv.induced_graph(), 2, random_additive(rng, m))
            model = instance.identical_model
            chains = interval_chains(instance, iv)
            combined = list(chains.combined)
            # the walk lays the three segments end to end, so each step of
            # each segment is a step of the walk
            narrowing, core, widening = interval_segments(instance, iv, chains)
            n, c = len(narrowing), len(core)
            assert combined[:n] == narrowing and combined[n - 1 : n + c - 1] == core
            assert combined[n + c - 2 :] == widening
            for step in combined:
                assert validate_allocation(instance, step).wellformed
                assert is_maximal(instance, step)
            assert evaluate(model, combined[0][0]) >= evaluate(model, combined[0][1])
            assert evaluate(model, combined[-1][0]) <= evaluate(model, combined[-1][1])
            for prev, cur in itertools.pairwise(combined):
                assert is_ordered_adjacent(prev, cur)
            # endpoints are (Z1, Z2) and (Z2, Z1)
            assert combined[0][0] == combined[-1][1]
            assert combined[0][1] == combined[-1][0]


class TestBipartite:
    def test_k22_heavy_left(self):
        graph = ConflictGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        instance = Instance(graph, 2, Additive([3, 3, 2, 2]))
        allocation = bipartite_ef1(instance)
        assert tuple(set(b) for b in allocation) == ({0, 1}, {2, 3})
        outcome = chain_ef1(instance, [0, 1])
        assert outcome.step_index == 0

    def test_single_edge(self):
        instance = Instance(ConflictGraph(2, [(0, 1)]), 2, Additive([1, 1]))
        allocation = bipartite_ef1(instance)
        assert tuple(set(b) for b in allocation) == ({0}, {1})

    def test_edgeless_uniform(self):
        instance = Instance(ConflictGraph(3), 2, Additive([1] * 3))
        allocation = bipartite_ef1(instance)
        assert is_maximal(instance, allocation) and is_ef1(instance, allocation)

    def test_rejects_odd_cycle(self):
        triangle = ConflictGraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="bipartite"):
            bipartite_ef1(Instance(triangle, 2, Additive([1] * 3)))

    def test_random_bipartite_graphs(self, rng):
        for _ in range(60):
            left = rng.randint(1, 6)
            right = rng.randint(0, 6)
            m = left + right
            edges = [
                (u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.5
            ]
            instance = Instance(ConflictGraph(m, edges), 2, random_additive(rng, m))
            allocation = bipartite_ef1(instance)
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)


class TestRoundRobin:
    def test_path_with_leftover(self):
        graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)])
        instance = Instance(graph, 3, Additive([4, 3, 2, 1]))
        allocation = round_robin_small(instance)
        assert tuple(set(b) for b in allocation) == ({0, 3}, {1}, {2})

    def test_fewer_goods_than_agents(self):
        instance = Instance(ConflictGraph(2), 3, Additive([1] * 2))
        allocation = round_robin_small(instance)
        sizes = sorted(len(b) for b in allocation)
        assert sizes == [0, 1, 1]

    def test_triangle_blocks_leftover(self):
        triangle = ConflictGraph(3, [(0, 1), (1, 2), (0, 2)])
        instance = Instance(triangle, 2, Additive([1] * 3))
        allocation = round_robin_small(instance)
        assert len(allocation.allocated) == 2
        assert is_maximal(instance, allocation)
        assert is_ef1(instance, allocation)

    def test_rejects_too_many_goods(self):
        instance = Instance(ConflictGraph(4), 2, Additive([1] * 4))
        with pytest.raises(ValueError, match="n\\+1"):
            round_robin_small(instance)

    def test_deterministic_across_runs(self, rng):
        for _ in range(20):
            m = rng.randint(1, 8)
            iv = random_intervals(rng, m, span=10)
            instance = Instance(iv.induced_graph(), 2, random_additive(rng, m))
            assert interval_ef1(instance, iv) == interval_ef1(instance, iv)
            n = rng.randint(max(1, m - 1), m)
            rr = Instance(random_graph(rng, m), n, random_additive(rng, m))
            if rr.m <= rr.n + 1:
                assert round_robin_small(rr) == round_robin_small(rr)

    def test_per_agent_valuations_all_small_graphs(self, rng):
        for m in range(1, 5):
            for edges in itertools.chain.from_iterable(
                itertools.combinations(list(itertools.combinations(range(m), 2)), k)
                for k in range(m * (m - 1) // 2 + 1)
            ):
                graph = ConflictGraph(m, edges)
                for n in {max(1, m - 1), m}:
                    models = [random_additive(rng, m) for _ in range(n)]
                    chores = Instance(graph, n, [Negated(v) for v in models], CHORES)
                    for instance in (Instance(graph, n, models), chores):
                        allocation = round_robin_small(instance)
                        assert validate_allocation(instance, allocation).wellformed
                        assert is_maximal(instance, allocation)
                        assert is_ef1(instance, allocation)
