"""Chain construction: step validity, maximality, adjacency, and the
sign-flip guarantee."""

import random

import networkx as nx
import pytest

from conflictfair import (
    Additive,
    ConflictGraph,
    Instance,
    Negated,
    build_chain,
    chain_ef1,
    cut_and_choose,
    evaluate,
    is_ef1,
    is_maximal,
    validate_allocation,
)

from conftest import (
    all_maximal_independent_sets,
    chain_positions,
    chain_side_sets,
    is_ordered_adjacent,
    random_additive,
    random_connected_graph,
    random_monotone_table,
    swap_solver,
)


FOUR_CYCLE = ConflictGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH3 = ConflictGraph(3, [(0, 1), (1, 2)])


def bundles(allocation):
    return tuple(set(b) for b in allocation.bundles)


class TestChainEf1Examples:
    def test_single_good(self):
        instance = Instance(ConflictGraph(1), 2, Additive([5]))
        outcome = chain_ef1(instance, [0])
        assert outcome.found
        assert bundles(outcome.allocation) == ({0}, set())
        assert outcome.step_index == 0

    def test_four_cycle(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1, 3, 1, 3]))
        outcome = chain_ef1(instance, [1, 3])
        assert outcome.found
        assert bundles(outcome.allocation) == ({3}, {1})
        assert outcome.step_index == 1

    def test_path_returns_null(self):
        instance = Instance(PATH3, 2, Additive([5, 0, 5]))
        outcome = chain_ef1(instance, [1])
        assert not outcome.found
        assert outcome.allocation is None and outcome.step_index is None


class TestBuildChainExamples:
    def test_single_good(self):
        instance = Instance(ConflictGraph(1), 2, Additive([5]))
        chain = build_chain(instance, [0])
        assert [bundles(s) for s in chain.steps] == [({0}, set()), (set(), {0})]
        assert chain_side_sets(chain) == (frozenset(), frozenset())

    def test_four_cycle(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1, 3, 1, 3]))
        chain = build_chain(instance, [1, 3])
        assert [bundles(s) for s in chain.steps] == [
            ({1, 3}, {0, 2}),
            ({3}, {1}),
            ({0, 2}, {1, 3}),
        ]

    def test_two_leaf_star(self):
        star = ConflictGraph(3, [(0, 1), (0, 2)])
        instance = Instance(star, 2, Additive([0, 1, 1]))
        chain = build_chain(instance, [1, 2])
        assert [bundles(s) for s in chain.steps] == [
            ({1, 2}, {0}),
            ({2}, {1}),
            ({0}, {1, 2}),
        ]
        assert chain_positions(star, [1, 2]) == ({0: 1}, {0: 2})

    def test_rejects_dependent_source(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1, 3, 1, 3]))
        with pytest.raises(ValueError, match="independent"):
            build_chain(instance, [0, 1])

    def test_dependent_source_errors_keep_their_order(self):
        # duplicates, then range, then independence, then maximality
        path_and_isolated = ConflictGraph(4, [(0, 1), (1, 2)])
        cases = [
            (path_and_isolated, [0, 1], "source is not an independent set"),
            (FOUR_CYCLE, [0, 1, 0], "source contains duplicate goods"),
            (FOUR_CYCLE, [1, 0, 1, 7], "source contains duplicate goods"),
            (FOUR_CYCLE, [0, 1, 4], "source holds a good outside [0,4)"),
            (FOUR_CYCLE, [-1, 0, 1], "source holds a good outside [0,4)"),
        ]
        for graph, source, message in cases:
            instance = Instance(graph, 2, Additive([1] * graph.m))
            with pytest.raises(ValueError) as raised:
                build_chain(instance, source)
            assert str(raised.value) == message, source

    def test_rejects_duplicate_goods(self):
        instance = Instance(PATH3, 2, Additive([5, 0, 5]))
        with pytest.raises(ValueError, match="source contains duplicate goods"):
            build_chain(instance, [0, 0])

    def test_rejects_non_maximal_source(self):
        instance = Instance(PATH3, 2, Additive([5, 0, 5]))
        with pytest.raises(ValueError, match="maximal"):
            build_chain(instance, [0])

    def test_rejects_per_agent_valuations(self):
        instance = Instance(PATH3, 2, [Additive([5, 0, 5]), Additive([1, 1, 1])])
        with pytest.raises(ValueError, match="identical"):
            build_chain(instance, [1])


def connected_atlas(max_nodes=6):
    return [
        g
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= max_nodes and nx.is_connected(g)
    ]


@pytest.fixture(scope="module")
def chain_corpus():
    """Every maximal independent set of every connected graph on <= 6
    vertices, against one random table and one random additive valuation."""
    rng = random.Random(7)
    corpus = []
    for g in connected_atlas(6):
        m = g.number_of_nodes()
        graph = ConflictGraph(m, list(g.edges()))
        for model in (random_additive(rng, m), random_monotone_table(rng, m)):
            instance = Instance(graph, 2, model)
            for source in all_maximal_independent_sets(graph):
                corpus.append((instance, tuple(sorted(source))))
    return corpus


class TestChainInvariants:
    def test_every_step_valid_and_maximal(self, chain_corpus):
        for instance, source in chain_corpus:
            chain = build_chain(instance, source)
            for step in chain.steps:
                assert validate_allocation(instance, step).wellformed
                assert is_maximal(instance, step)

    def test_consecutive_steps_ordered_adjacent(self, chain_corpus):
        for instance, source in chain_corpus:
            steps = list(build_chain(instance, source).steps)
            for i in range(1, len(steps)):
                prev, cur = steps[i - 1], steps[i]
                assert is_ordered_adjacent(prev, cur)
                moved = {source[i - 1]}
                assert prev[0] - cur[0] == moved
                assert cur[1] - prev[1] == moved

    def test_dominant_source_guarantees_ef1_and_endpoints(self, chain_corpus):
        for instance, source in chain_corpus:
            model = instance.identical_model
            outcome = chain_ef1(instance, source)
            chain = outcome.chain
            steps = list(chain.steps)
            x1, x2 = chain_side_sets(chain)
            vs = evaluate(model, source)
            if vs >= evaluate(model, x1) and vs >= evaluate(model, x2):
                assert outcome.found
                assert bundles(steps[0]) == (set(source), set(x2))
                assert bundles(steps[-1]) == (set(x1), set(source))
            if outcome.found:
                # the scan's running bundles against the replayed step
                assert outcome.allocation == steps[outcome.step_index]
                assert is_ef1(instance, outcome.allocation)
                assert is_maximal(instance, outcome.allocation)

    def test_sign_flip_pair_contains_ef1(self, chain_corpus):
        for instance, source in chain_corpus:
            model = instance.identical_model
            steps = list(build_chain(instance, source).steps)
            for i in range(1, len(steps)):
                prev, cur = steps[i - 1], steps[i]
                if (
                    evaluate(model, prev[0]) >= evaluate(model, prev[1])
                    and evaluate(model, cur[0]) <= evaluate(model, cur[1])
                ):
                    assert is_ef1(instance, prev) or is_ef1(instance, cur)


class TestCutAndChoose:
    def test_identical_valuations_pass_through(self):
        instance = Instance(FOUR_CYCLE, 2, Additive([1, 3, 1, 3]))
        allocation = cut_and_choose(instance, swap_solver(instance))
        assert is_maximal(instance, allocation)
        assert is_ef1(instance, allocation)

    def test_four_cycle_opposed_valuations(self):
        instance = Instance(
            FOUR_CYCLE, 2, [Additive([1, 3, 1, 3]), Additive([3, 1, 3, 1])]
        )
        allocation = cut_and_choose(instance, swap_solver(instance))
        assert bundles(allocation) == ({3}, {1})
        assert is_maximal(instance, allocation) and is_ef1(instance, allocation)

    def test_path_no_swap_needed(self):
        instance = Instance(PATH3, 2, [Additive([5, 0, 5]), Additive([0, 9, 0])])
        allocation = cut_and_choose(instance, swap_solver(instance))
        assert bundles(allocation) == ({2}, {0})
        assert is_maximal(instance, allocation) and is_ef1(instance, allocation)

    def test_random_two_sided_ef1(self, rng):
        for _ in range(60):
            m = rng.randint(1, 7)
            graph = random_connected_graph(rng, m)
            instance = Instance(graph, 2, [random_additive(rng, m), random_additive(rng, m)])
            allocation = cut_and_choose(instance, swap_solver(instance))
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)

    def test_chores_instances_choose_by_true_preference(self, rng):
        for _ in range(40):
            m = rng.randint(1, 6)
            graph = random_connected_graph(rng, m)
            models = [
                Negated(random_monotone_table(rng, m)),
                Negated(random_monotone_table(rng, m)),
            ]
            instance = Instance(graph, 2, models, "chores")
            allocation = cut_and_choose(instance, swap_solver(instance))
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)
