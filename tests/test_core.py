"""Checkers and valuation models.

Goods from the seven-good three-agent counterexample are referred to by
their dense 0-based indices throughout (its construction lives in
hardness.gen_counterexample and is pinned down in test_hardness).
"""

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
    RootedTree,
    Table,
    bipartite_ef1,
    coloring_violations,
    complete_to_maximal_is,
    equitable_tree_coloring,
    evaluate,
    gen_counterexample,
    is_ef1,
    is_independent_set,
    is_maximal,
    interval_ef1,
    round_robin_small,
    swap_ef1,
    validate_allocation,
    value_minus_one,
)
from conflictfair.core import DENOMINATOR_BITS, _most_valuable
from conflictfair.oracle import enumerate_maximal_allocations

from conftest import (
    is_ordered_adjacent,
    neighbours,
    random_additive,
    random_connected_graph,
    random_graph,
    random_intervals,
    random_maximal_allocation,
    random_monotone_table,
    random_tree_edges,
    random_wellformed_allocation,
    reference_additive_check,
    reference_allocated,
    reference_bundles,
    reference_conflict_graph,
    reference_is_independent_set,
    reference_is_maximal,
    reference_validate_allocation,
)


FOUR_CYCLE = ConflictGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH3 = ConflictGraph(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="module")
def counterexample3():
    return gen_counterexample(3)


def graph_parts(m, edges):
    graph = ConflictGraph(m, edges)
    # Each neighbour list is a tuple naming each neighbour once, whatever
    # duplicated or reversed edges the input held.
    for listed in graph.adj:
        assert type(listed) is tuple and len(set(listed)) == len(listed), listed
    return graph.edges, tuple(map(frozenset, graph.adj))


class TestConflictGraph:
    def test_matches_min_max_reference(self, rng):
        # Reversed pairs, duplicates, self-loops and endpoints -1 and m; the
        # first bad edge in input order names the error.
        outcomes = set()
        for _ in range(800):
            m = rng.randint(0, 9)
            edges = []
            for _e in range(rng.randint(0, 12)):
                roll = rng.random()
                if edges and roll < 0.25:
                    u, v = rng.choice(edges)
                    edges.append((v, u) if roll < 0.15 else (u, v))
                elif roll < 0.28:
                    g = rng.randint(-1, m)
                    edges.append((g, g))
                elif roll < 0.33:
                    edges.append(rng.sample([rng.choice([-1, m]), rng.randint(-1, m)], 2))
                elif m >= 2:
                    edges.append(rng.sample(range(m), 2))
            got = outcome(graph_parts, m, edges)
            assert got == outcome(reference_conflict_graph, m, edges), (m, edges)
            outcomes.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
        assert outcomes == {"ok", "self-loop", "edge"}
        assert outcome(ConflictGraph, -1) == outcome(reference_conflict_graph, -1, ())

    def test_equal_and_hash_alike_whatever_the_edge_input(self, rng):
        # ``edges`` is built from ``adj``, so equality and hashing see the
        # edge set only, not the order or form the edges came in.
        for _ in range(200):
            m = rng.randint(0, 9)
            graph = random_graph(rng, m, rng.random())
            listed = sorted(graph.edges)
            messy = listed + rng.sample(listed, len(listed) // 2)
            messy = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in messy]
            rng.shuffle(messy)
            for edges in (listed[::-1], messy, iter(messy)):
                twin = ConflictGraph(m, edges)
                assert twin == graph and hash(twin) == hash(graph), (m, messy)
                assert twin.edges == frozenset(listed) and repr(twin) == repr(graph)
            for twin in TestNeighbourOrder.twins(rng, graph):
                assert twin == graph and hash(twin) == hash(graph)
            if m:
                assert ConflictGraph(m + 1, listed) != graph
            if listed:
                assert ConflictGraph(m, listed[1:]) != graph


def reordered(graph, order):
    """A twin of ``graph`` whose every neighbour tuple is passed through
    ``order``."""
    twin = ConflictGraph(graph.m, graph.edges)
    twin.adj = tuple(map(order, graph.adj))
    return twin


class TestNeighbourOrder:
    """No result depends on the order in which ``adj[g]`` lists g's
    neighbours: every solver and checker gives the same answer on the graph
    as built, with each tuple reversed, and with each one shuffled."""

    @staticmethod
    def twins(rng, graph):
        yield reordered(graph, lambda t: t[::-1])
        yield reordered(graph, lambda t: tuple(rng.sample(t, len(t))))

    def test_swap(self, rng):
        for i in range(60):
            m = rng.randint(1, 10)
            graph = random_connected_graph(rng, m)
            model = random_additive(rng, m) if i % 2 else random_monotone_table(rng, m)
            expected = swap_ef1(Instance(graph, 2, model))
            for twin in self.twins(rng, graph):
                assert swap_ef1(Instance(twin, 2, model)) == expected

    def test_interval_and_bipartite(self, rng):
        for _ in range(60):
            m = rng.randint(1, 12)
            iv = random_intervals(rng, m, span=rng.randint(2, 12))
            graph, model = iv.induced_graph(), random_additive(rng, m)
            expected = interval_ef1(Instance(graph, 2, model), iv)
            for twin in self.twins(rng, graph):
                assert interval_ef1(Instance(twin, 2, model), iv) == expected
            left = rng.randint(1, 6)
            m = left + rng.randint(0, 6)
            edges = [(u, v) for u in range(left) for v in range(left, m) if rng.random() < 0.5]
            graph, model = ConflictGraph(m, edges), random_additive(rng, m)
            expected = bipartite_ef1(Instance(graph, 2, model))
            for twin in self.twins(rng, graph):
                assert bipartite_ef1(Instance(twin, 2, model)) == expected

    def test_round_robin(self, rng):
        for _ in range(120):
            m = rng.randint(1, 9)
            n = rng.randint(max(1, m - 1), m)
            graph = random_graph(rng, m, rng.random())
            models = [random_additive(rng, m) for _ in range(n)]
            for mode, valuations in ((GOODS, models), (CHORES, [Negated(v) for v in models])):
                expected = round_robin_small(Instance(graph, n, valuations, mode))
                for twin in self.twins(rng, graph):
                    assert round_robin_small(Instance(twin, n, valuations, mode)) == expected

    def test_tree_coloring(self, rng):
        for _ in range(60):
            nv = rng.randint(1, 60)
            ids = rng.sample(range(nv), nv)
            graph = ConflictGraph(nv, [(ids[u], ids[w]) for u, w in random_tree_edges(rng, nv)])
            n = rng.randint(1, 6)
            expected = equitable_tree_coloring(RootedTree(graph), n)
            for twin in self.twins(rng, graph):
                coloring = equitable_tree_coloring(RootedTree(twin), n)
                assert coloring == expected
                assert coloring_violations(twin, coloring.colors, n) == []

    def test_checkers(self, rng):
        # Maximal, merely wellformed, and arbitrary allocations, whose
        # bundles may overlap or hold an edge.
        for _ in range(150):
            m = rng.randint(1, 9)
            instance = Instance(random_graph(rng, m, rng.random()), rng.randint(1, 3), Additive([1] * m))
            allocations = [
                random_maximal_allocation(rng, instance),
                random_wellformed_allocation(rng, instance),
                Allocation([rng.sample(range(m), rng.randint(0, m)) for _ in range(instance.n)]),
            ]
            for twin in self.twins(rng, instance.graph):
                twin_instance = Instance(twin, instance.n, Additive([1] * m))
                for allocation in allocations:
                    assert validate_allocation(twin_instance, allocation) == validate_allocation(instance, allocation)
                    assert is_maximal(twin_instance, allocation) == is_maximal(instance, allocation)


class TestEvaluate:
    def test_uniform_cardinality(self):
        assert evaluate(Additive([1] * 6), {0, 2, 5}) == 3

    def test_counterexample_table_pair(self, counterexample3):
        # a right-part good together with the pendant good
        assert evaluate(counterexample3.identical_model, {4, 6}) == 3

    def test_additive_sum(self):
        assert evaluate(Additive([1, 3, 1, 3]), {1, 3}) == 6

    def test_table_missing_subset(self, counterexample3):
        with pytest.raises(ValueError, match="missing subset"):
            evaluate(counterexample3.identical_model, {9})

    def test_additive_matches_brute_subset_sum(self, rng):
        m = 12
        values = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)]
        model = Additive(values)
        for mask in range(1 << m):
            subset = [g for g in range(m) if mask & (1 << g)]
            assert evaluate(model, subset) == sum((values[g] for g in subset), Fraction(0))


def test_most_valuable_takes_the_lowest_index_among_equals(rng):
    # Few distinct values, so most picks break a tie. A small set of goods
    # up to 39 iterates in slot order, often not in index order.
    for _ in range(200):
        m = rng.randint(1, 40)
        values = [rng.randint(0, 2) for _ in range(m)]
        models = [Additive(values), Negated(Additive(values)), Additive([-v for v in values]), Additive([1] * m)]
        if m <= 8:
            table = random_monotone_table(rng, m, step=1)
            models += [table, Negated(table)]
        for goods in (range(m), set(rng.sample(range(m), min(m, rng.randint(2, 5))))):
            for model in models:
                expected = min(goods, key=lambda g: (-evaluate(model, {g}), g))
                assert _most_valuable(model, goods) == expected, (model, sorted(goods))


class TestValueMinusOne:
    def test_empty_is_zero(self, counterexample3):
        assert value_minus_one(counterexample3.identical_model, ()) == 0
        assert value_minus_one(Additive([1] * 3), ()) == 0

    def test_counterexample_pair(self, counterexample3):
        model = counterexample3.identical_model
        # min(v({4}), v({6})) = min(2, 2)
        assert value_minus_one(model, {4, 6}) == 2

    def test_additive_pair(self):
        assert value_minus_one(Additive([2, 3]), {0, 1}) == 2

    def test_never_exceeds_value_exhaustively(self, rng):
        models = [
            (10, Additive([rng.randint(0, 6) for _ in range(10)])),
            (10, Additive([1] * 10)),
            (6, random_monotone_table(rng, 6)),
        ]
        for m, model in models:
            for mask in range(1 << m):
                subset = frozenset(g for g in range(m) if mask & (1 << g))
                assert value_minus_one(model, subset) <= evaluate(model, subset)


class TestIndependentSet:
    def test_four_cycle(self):
        assert is_independent_set(FOUR_CYCLE, {1, 3})
        assert not is_independent_set(FOUR_CYCLE, {0, 1})

    def test_counterexample_cross_pair(self, counterexample3):
        # both parts of the K_{3,3} core, hence adjacent
        assert not is_independent_set(counterexample3.graph, {1, 4})
        assert not is_independent_set(counterexample3.graph, {0, 3})
        assert is_independent_set(counterexample3.graph, {0, 1})


class TestValidateAllocation:
    def test_counterexample_wellformed(self, counterexample3):
        report = validate_allocation(counterexample3, Allocation([{4, 6}, {0, 1, 2}, {3, 5}]))
        assert report.wellformed and report.disjoint and all(report.independent)

    def test_all_empty_wellformed(self, counterexample3):
        assert validate_allocation(counterexample3, Allocation([(), (), ()])).wellformed

    def test_adjacent_pair_in_bundle(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1] * 4))
        report = validate_allocation(instance, Allocation([{0, 1}, ()]))
        assert not report.wellformed
        assert report.independent == (False, True)

    def test_overlapping_bundles_not_disjoint(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1] * 4))
        report = validate_allocation(instance, Allocation([{0}, {0, 2}]))
        assert not report.disjoint and not report.wellformed

    def test_out_of_range_good(self, counterexample3):
        with pytest.raises(ValueError, match="outside"):
            validate_allocation(counterexample3, Allocation([{7}, (), ()]))

    def test_wrong_bundle_count(self, counterexample3):
        with pytest.raises(ValueError, match="bundles"):
            validate_allocation(counterexample3, Allocation([(), ()]))


class TestIsMaximal:
    def test_counterexample_pendant_good_must_be_allocated(self, counterexample3):
        # good 6 (the degree-2 pendant) is unallocated but assignable
        assert not is_maximal(counterexample3, Allocation([{1}, {0}, {3}]))

    def test_complete_allocation_is_maximal(self):
        instance = Instance(PATH3, 2, Additive([1] * 3))
        assert is_maximal(instance, Allocation([{0, 2}, {1}]))

    def test_empty_bundle_blocks_nothing(self):
        instance = Instance(PATH3, 2, Additive([1] * 3))
        assert not is_maximal(instance, Allocation([{0, 2}, ()]))

    def test_maximal_allocations_admit_no_feasible_addition(self, rng):
        # maximality means exactly that the set of feasible additions is
        # empty, and completing any non-maximal allocation greedily
        # terminates in a maximal one
        for _ in range(25):
            m = rng.randint(1, 8)
            instance = Instance(random_graph(rng, m), rng.randint(1, 3), Additive([1] * m))
            adj = neighbours(instance.graph)
            for allocation in enumerate_maximal_allocations(instance):
                feasible = [
                    (g, a)
                    for g in allocation.unallocated(m)
                    for a in range(instance.n)
                    if not (adj[g] & allocation[a])
                ]
                assert feasible == []
            start = random_wellformed_allocation(rng, instance)
            bundles = [set(b) for b in start.bundles]
            while True:
                feasible = [
                    (g, a)
                    for g in range(m)
                    if all(g not in b for b in bundles)
                    for a in range(instance.n)
                    if not (adj[g] & bundles[a])
                ]
                if not feasible:
                    break
                g, a = feasible[0]
                bundles[a].add(g)
            assert is_maximal(instance, Allocation(bundles))


def outcome(check, *args):
    try:
        return ("ok", check(*args))
    except ValueError as exc:
        return ("error", str(exc))


# One bundle list in each input form Allocation and the checkers accept.
SHAPES = {
    "lists": lambda bundles: [list(b) for b in bundles],
    "sets": lambda bundles: [set(b) for b in bundles],
    "frozensets": lambda bundles: tuple(frozenset(b) for b in bundles),
    "generators": lambda bundles: (iter(b) for b in bundles),
}


class TestCheckersMatchTheirReferences:
    """The set-operation checkers against their loop bodies in conftest, on
    random, overlapping, out-of-range and maximal allocations."""

    def random_bundles(self, rng, instance):
        m, n = instance.m, instance.n
        roll = rng.random()
        if roll < 0.3:
            return random_maximal_allocation(rng, instance).bundles
        bundles = [[g for g in range(m) if rng.random() < 0.35] for _ in range(n)]
        if roll < 0.5 and n:
            bundles[rng.randrange(n)].append(rng.choice([-2, -1, m, m + 3]))
        return bundles

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_allocation_and_checkers(self, rng, shape):
        make = SHAPES[shape]
        errors = maximal = 0
        for _ in range(400):
            m, n = rng.randint(0, 8), rng.randint(1, 4)
            instance = Instance(random_graph(rng, m, rng.uniform(0.1, 0.8)), n, Additive([1] * m))
            bundles = self.random_bundles(rng, instance)
            allocation = Allocation(make(bundles))
            assert allocation.bundles == reference_bundles(make(bundles))
            assert allocation.allocated == reference_allocated(allocation)
            wrong_n = Allocation(list(allocation.bundles) + [frozenset()])
            for candidate in (allocation, wrong_n):
                report = outcome(validate_allocation, instance, candidate)
                assert report == outcome(reference_validate_allocation, instance, candidate)
                errors += report[0] == "error"
            assert is_maximal(instance, allocation) == reference_is_maximal(instance, allocation)
            maximal += is_maximal(instance, allocation)
            for b in bundles:
                if all(0 <= g < m for g in b):
                    subset = next(iter(make([b])))
                    assert is_independent_set(instance.graph, subset) == reference_is_independent_set(instance.graph, b)
        assert errors > 400 and maximal > 50

    def test_out_of_range_messages(self):
        instance = Instance(ConflictGraph(3, [(0, 1)]), 2, Additive([1] * 3))
        for bundles in ([{0}, {2, 5}], [{-1, 1}, {7}], [{3, 4, 9}, set()]):
            allocation = Allocation(bundles)
            with pytest.raises(ValueError) as caught:
                validate_allocation(instance, allocation)
            assert ("error", str(caught.value)) == outcome(reference_validate_allocation, instance, allocation)


class TestIsEf1:
    def test_counterexample_singleton_vs_pair(self, counterexample3):
        assert not is_ef1(counterexample3, Allocation([{4, 6}, {5}, {3}]))

    def test_all_empty_is_ef1(self, counterexample3):
        assert is_ef1(counterexample3, Allocation([(), (), ()]))

    def test_counterexample_pair_vs_triple(self, counterexample3):
        assert not is_ef1(counterexample3, Allocation([{4, 6}, {0, 1, 2}, {3, 5}]))

    def test_matches_direct_definition(self, rng):
        # cross-check the min-removal shortcut against the literal
        # "exists g" definition on random instances
        for _ in range(50):
            m = rng.randint(1, 6)
            instance = Instance(
                random_graph(rng, m), rng.randint(2, 3), random_monotone_table(rng, m)
            )
            allocation = random_wellformed_allocation(rng, instance)
            model = instance.identical_model
            expected = True
            for i in range(instance.n):
                for j in range(instance.n):
                    if i == j or not allocation[j]:
                        continue
                    own = evaluate(model, allocation[i])
                    if not any(
                        own >= evaluate(model, allocation[j] - {g}) for g in allocation[j]
                    ):
                        expected = False
            assert is_ef1(instance, allocation) == expected


@pytest.mark.parametrize("checker", [validate_allocation, is_maximal, is_ef1])
@pytest.mark.parametrize(
    "instance, bundles",
    [
        # One bundle short: on K3 the missing third bundle would take good 2.
        (Instance(ConflictGraph(3, [(0, 1), (1, 2), (0, 2)]), 3, Additive([1] * 3)), [{0}, {1}]),
        (Instance(ConflictGraph(2), 2, Additive([1] * 2)), [(), (), {0, 1}]),
    ],
    ids=["short", "long"],
)
def test_checkers_refuse_a_wrong_bundle_count(checker, instance, bundles):
    with pytest.raises(ValueError, match=f"allocation has {len(bundles)} bundles, instance has {instance.n} agents"):
        checker(instance, Allocation(bundles))


class TestChoresGoodsEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_negation_metamorphic(self, data):
        seed = data.draw(st.integers(0, 10**9))
        rng = random.Random(seed)
        m = rng.randint(1, 6)
        graph = random_graph(rng, m)
        model = random_monotone_table(rng, m)
        n = rng.randint(1, 3)
        goods = Instance(graph, n, model, "goods")
        chores = Instance(graph, n, Negated(model), "chores")
        allocation = random_wellformed_allocation(rng, goods)
        assert is_ef1(chores, allocation) == is_ef1(goods, allocation)


class TestOrderedAdjacent:
    def test_single_transfer(self):
        assert is_ordered_adjacent(Allocation([{0}, ()]), Allocation([(), {0}]))

    def test_two_goods_entering(self):
        assert not is_ordered_adjacent(Allocation([{0, 1}, ()]), Allocation([(), {0, 1}]))

    def test_growth_on_the_left_is_free(self):
        assert is_ordered_adjacent(Allocation([(), {0, 1}]), Allocation([{0, 1}, {2}]))

    def test_needs_two_bundles(self):
        with pytest.raises(ValueError):
            is_ordered_adjacent(Allocation([(), (), ()]), Allocation([(), (), ()]))


class TestCompleteToMaximalIs:
    def test_path_seed(self):
        assert complete_to_maximal_is(PATH3, {0}) == {0, 2}

    def test_empty_graph(self):
        assert complete_to_maximal_is(ConflictGraph(3), ()) == {0, 1, 2}

    def test_four_cycle_seed(self):
        assert complete_to_maximal_is(FOUR_CYCLE, {1}) == {1, 3}

    def test_dependent_seed_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            complete_to_maximal_is(FOUR_CYCLE, {0, 1})

    def test_output_is_maximal_definitionally(self, rng):
        for _ in range(60):
            m = rng.randint(1, 9)
            graph = random_connected_graph(rng, m)
            seed_pool = [g for g in range(m) if rng.random() < 0.3]
            seed, adj = set(), neighbours(graph)
            for g in seed_pool:
                if not (adj[g] & seed):
                    seed.add(g)
            result = complete_to_maximal_is(graph, seed)
            assert seed <= result
            assert is_independent_set(graph, result)
            for g in range(m):
                assert g in result or adj[g] & result


class TestInstanceValidation:
    def test_goods_reject_negative_additive(self):
        with pytest.raises(ValueError, match="non-negative"):
            Instance(PATH3, 2, Additive([1, -1, 0]))

    def test_chores_accept_negated_table(self, rng):
        model = random_monotone_table(rng, 3)
        Instance(ConflictGraph(3), 2, Negated(model), "chores")

    def test_chores_reject_increasing_table(self, rng):
        model = random_monotone_table(rng, 3)
        if all(v == 0 for v in model.entries.values()):
            pytest.skip("degenerate all-zero table")
        with pytest.raises(ValueError, match="non-increasing"):
            Instance(ConflictGraph(3), 2, model, "chores")

    def test_additive_check_matches_fraction_reference(self, rng):
        # Mixed denominators, sometimes with one value of the wrong sign.
        failed = set()
        for _ in range(300):
            m = rng.randint(0, 8)
            sign = rng.choice([1, -1])
            values = [sign * Fraction(rng.randint(0, 9), rng.choice([1, 2, 3, 5, 7])) for _ in range(m)]
            if m and rng.random() < 0.5:
                values[rng.randrange(m)] = -sign * Fraction(1, rng.choice([3, 4, 11]))
            model = Additive(values)
            for mode in (GOODS, CHORES):
                for goods in (m, m + 1):
                    got = outcome(model.check, goods, mode)
                    assert got == outcome(reference_additive_check, values, goods, mode), (values, goods, mode)
                    if goods == m and got[0] == "error":
                        failed.add(mode)
        assert failed == {GOODS, CHORES}

    def test_common_denominator_is_bounded(self):
        limit = 1 << DENOMINATOR_BITS
        message = f"common denominator of the values exceeds {DENOMINATOR_BITS} bits"
        # 2^(bits-1) is the largest power of two within the bound.
        Additive([Fraction(1, limit // 2), 3])
        Table(1, {0: 0, 1: Fraction(1, limit // 2)})
        for model in (
            lambda: Additive([Fraction(1, limit), 3]),
            lambda: Additive([Fraction(1, 3), Fraction(1, limit // 2)]),
            lambda: Table(1, {0: 0, 1: Fraction(1, 3 * limit)}),
        ):
            with pytest.raises(ValueError, match=message):
                model()
        # Distinct primes past the bound: the lcm stops as it passes it.
        primes = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
        with pytest.raises(ValueError, match=message):
            Additive([Fraction(1, p) for p in primes])

    def test_table_must_cover_all_subsets(self):
        with pytest.raises(ValueError, match="cover"):
            Table(2, {0: 0, 1: 1})

    def test_table_over_other_goods(self):
        with pytest.raises(ValueError, match="table is over 2 goods, expected 3"):
            Instance(ConflictGraph(3), 2, Table(2, {0: 0, 1: 1, 2: 1, 3: 2}))

    def test_composite_base_goods_in_range(self):
        for base_goods in (-1, 4):
            with pytest.raises(ValueError, match="composite base goods out of range"):
                Instance(ConflictGraph(3), 2, Composite(Additive([1]), base_goods, Additive([0] * 3)))

    def test_per_agent_instance_has_no_identical_model(self):
        instance = Instance(PATH3, 2, [Additive([5, 0, 5]), Additive([1, 1, 1])])
        with pytest.raises(ValueError, match="does not have identical valuations"):
            instance.identical_model

    def test_table_bounded_to_twenty_goods(self):
        with pytest.raises(ValueError, match="at most 20"):
            Table(21, {})

    def test_rejects_non_monotone_table(self):
        entries = {0: 0, 1: 2, 2: 1, 3: 1}
        with pytest.raises(ValueError, match="monotone"):
            Instance(ConflictGraph(2), 1, Table(2, entries))
        # one table, scanned once, checked in both modes
        both_ways = Table(2, {0: 0, 1: 2, 2: -1, 3: 1})
        for mode, direction in (("goods", "non-decreasing"), ("chores", "non-increasing")):
            with pytest.raises(ValueError, match=direction):
                Instance(ConflictGraph(2), 1, both_ways, mode)

    def test_monotonicity_flags_match_fraction_scan(self):
        def fraction_scan(m, entries):
            up = down = False
            for mask in range(1 << m):
                for g in range(m):
                    if not mask >> g & 1:
                        up |= entries[mask | 1 << g] > entries[mask]
                        down |= entries[mask | 1 << g] < entries[mask]
            return not down, not up

        rng = random.Random(1212)
        seen = set()
        for _ in range(200):
            m = rng.randint(0, 6)
            # monotone in one direction, over mixed denominators
            sign, pick = rng.choice([(1, max), (-1, min)])
            entries = {0: Fraction(0)}
            for mask in sorted(range(1, 1 << m), key=lambda x: bin(x).count("1")):
                start = pick(entries[mask & ~(1 << g)] for g in range(m) if mask >> g & 1)
                entries[mask] = start + sign * Fraction(rng.randint(0, 3), rng.choice([1, 2, 3, 4, 6, 7]))
            if m and rng.random() < 0.5:
                # nudge one entry either way, by less than most steps
                entries[rng.randrange(1, 1 << m)] += rng.choice([-1, 1]) * Fraction(1, rng.choice([5, 9, 11, 13]))
            table = Table(m, entries)
            flags = (table.nondecreasing, table.nonincreasing)
            assert flags == fraction_scan(m, entries)
            seen.add(flags)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
