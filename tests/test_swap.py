"""Escalating solver: traces, termination bounds, and output quality."""

import random
from fractions import Fraction

import networkx as nx
import pytest

from conflictfair import (
    Additive,
    ConflictGraph,
    Instance,
    evaluate,
    is_ef1,
    is_maximal,
    iteration_bound_additive,
    swap_ef1,
    validate_allocation,
)

from conftest import random_additive, random_connected_graph, random_monotone_table


def bundles(allocation):
    return tuple(set(b) for b in allocation.bundles)


class TestSwapExamples:
    def test_path_one_iteration(self):
        instance = Instance(ConflictGraph(3, [(0, 1), (1, 2)]), 2, Additive([5, 0, 5]))
        allocation, trace = swap_ef1(instance)
        assert bundles(allocation) == ({2}, {0})
        assert len(trace) == 1
        assert trace[0].source == (0, 2)
        assert trace[0].chosen is None

    def test_single_good(self):
        instance = Instance(ConflictGraph(1), 2, Additive([7]))
        allocation, trace = swap_ef1(instance)
        assert bundles(allocation) == ({0}, set())
        assert len(trace) == 1

    def test_four_cycle(self):
        graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        instance = Instance(graph, 2, Additive([1, 3, 1, 3]))
        allocation, trace = swap_ef1(instance)
        assert bundles(allocation) == ({3}, {1})
        assert trace[0].source == (1, 3)
        assert len(trace) == 1

    def test_rejects_three_agents(self):
        with pytest.raises(ValueError, match="2 agents"):
            swap_ef1(Instance(ConflictGraph(2, [(0, 1)]), 3, Additive([1, 1])))

    def test_rejects_chores_mode(self):
        from conflictfair import Negated

        instance = Instance(ConflictGraph(2), 2, Negated(Additive([1] * 2)), "chores")
        with pytest.raises(ValueError, match="negated"):
            swap_ef1(instance)


class TestIterationBound:
    def test_closed_form_values(self):
        assert iteration_bound_additive(2) == 2
        assert iteration_bound_additive(4) == 6
        assert iteration_bound_additive(10) == 23

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            iteration_bound_additive(1)

    def test_matches_logarithm_definition(self):
        import math

        for m in range(2, 60):
            exact = math.log(m) / math.log(m / (m - 1))
            expected = math.ceil(round(exact, 9)) + 1
            assert iteration_bound_additive(m) == expected


@pytest.fixture(scope="module")
def swap_corpus():
    rng = random.Random(23)
    atlas = [
        g
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 6 and nx.is_connected(g)
    ]
    records = []
    for g in atlas:
        m = g.number_of_nodes()
        graph = ConflictGraph(m, list(g.edges()))
        for model in (random_additive(rng, m), random_monotone_table(rng, m)):
            instance = Instance(graph, 2, model)
            allocation, trace = swap_ef1(instance)
            records.append((instance, allocation, trace))
    return records


class TestSwapInvariants:
    def test_output_maximal_and_ef1(self, swap_corpus):
        for instance, allocation, _trace in swap_corpus:
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)

    def test_strict_escalation(self, swap_corpus):
        for _instance, _allocation, trace in swap_corpus:
            values = [it.value for it in trace]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_additive_multiplicative_increase(self, swap_corpus):
        for instance, _allocation, trace in swap_corpus:
            if not isinstance(instance.identical_model, Additive):
                continue
            m = instance.m
            for earlier, later in zip(trace, trace[1:]):
                assert later.value > Fraction(m, m - 1) * earlier.value

    def test_iteration_count_bounds(self, swap_corpus):
        for instance, _allocation, trace in swap_corpus:
            m = instance.m
            count = len(trace)
            assert count**3 <= 3**m or count == 1
            model = instance.identical_model
            if isinstance(model, Additive):
                if m >= 2:
                    assert count <= iteration_bound_additive(m)
            else:
                distinct = {
                    evaluate(model, [g for g in range(m) if mask & (1 << g)])
                    for mask in range(1 << m)
                }
                assert count <= len(distinct)

    def test_larger_random_graphs(self, rng):
        for _ in range(40):
            m = rng.randint(7, 9)
            instance = Instance(random_connected_graph(rng, m), 2, random_additive(rng, m))
            allocation, trace = swap_ef1(instance)
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)
            assert len(trace) <= iteration_bound_additive(m)

    def test_deterministic_across_runs(self, rng):
        # every tie-break is pinned, so repeated solves agree exactly
        for _ in range(25):
            m = rng.randint(1, 7)
            instance = Instance(random_connected_graph(rng, m), 2, random_additive(rng, m))
            first_alloc, first_trace = swap_ef1(instance)
            second_alloc, second_trace = swap_ef1(instance)
            assert first_alloc == second_alloc
            assert first_trace == second_trace
