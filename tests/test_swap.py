"""Escalating solver: traces, termination bounds, and output quality."""

import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from conflictfair import (
    CHORES,
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

from conflictfair import cli, swap as swap_module
from conflictfair.chain import chain_ef1, chain_steps, most_valuable_source
from conflictfair.core import to_goods
from conflictfair.serialization import instance_to_json

from conftest import (
    random_additive,
    random_connected_graph,
    random_graph,
    random_model,
    random_monotone_table,
    reference_swap_ef1,
)


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


# (kind, seed) of ``_seeded_instance`` inputs that take two swap rounds: the
# first chain has no EF1 step, so the scan runs to the end and escalates.
ESCALATING = (
    [("additive", seed) for seed in (971, 1012, 1043, 1713, 2011, 2412)]
    + [("chores", seed) for seed in (2775, 3337, 971, 1012)]
    + [("table", seed) for seed in (327, 341, 417, 1151, 1667, 1952)]
    + [("composite", seed) for seed in (1663, 1823, 2057, 2882, 2982, 5369)]
)


def _seeded_instance(kind, seed):
    """A goods-mode two-agent instance on a random graph: additive goods,
    negated additive chores, a monotone table or a composite model."""
    rng = random.Random(seed)
    m = rng.randint(4, 10 if kind in ("table", "composite") else 14)
    graph = random_graph(rng, m, rng.choice([0.2, 0.3, 0.4]))
    if kind == "additive":
        return Instance(graph, 2, random_additive(rng, m))
    if kind == "chores":
        return to_goods(Instance(graph, 2, Additive([-rng.randint(0, 10) for _ in range(m)]), CHORES))
    return Instance(graph, 2, random_model(rng, m, kind=kind))


class TestScanAgainstReference:
    """``swap_ef1`` scans each chain as it is built and stops at the first
    EF1 step; the reference builds each chain whole through ``chain_ef1``."""

    def test_corpus_matches_reference(self, swap_corpus):
        for instance, allocation, trace in swap_corpus:
            assert (allocation, trace) == reference_swap_ef1(instance)

    def test_seeded_models_match_reference(self):
        for kind in ("additive", "chores", "table", "composite"):
            for seed in range(60):
                instance = _seeded_instance(kind, seed)
                assert swap_ef1(instance) == reference_swap_ef1(instance), (kind, seed)

    def test_escalating_instances_match_reference(self):
        assert len(ESCALATING) >= 20
        for kind, seed in ESCALATING:
            instance = _seeded_instance(kind, seed)
            allocation, trace = swap_ef1(instance)
            assert len(trace) >= 2, (kind, seed)
            assert (allocation, trace) == reference_swap_ef1(instance), (kind, seed)
            assert is_maximal(instance, allocation) and is_ef1(instance, allocation)

    def test_each_chain_is_read_only_to_its_first_ef1_step(self, monkeypatch):
        read = []

        def counting(graph, source):
            read.append(0)
            for move in chain_steps(graph, source):
                read[-1] += 1
                yield move

        monkeypatch.setattr(swap_module, "chain_steps", counting)
        for kind, seed in ESCALATING[:8] + [("additive", seed) for seed in range(40)]:
            instance = _seeded_instance(kind, seed)
            read.clear()
            _, trace = swap_ef1(instance)
            expected = []
            for round_ in trace:
                outcome = chain_ef1(instance, round_.source)
                expected.append(len(outcome.chain.steps) if outcome.step_index is None else outcome.step_index + 1)
            assert read == expected, (kind, seed)


def test_escalation_stops_at_the_maximal_is_bound(tmp_path, capsys, monkeypatch):
    # Every round seeds the next with round 1's source, so v(S) never rises
    # and the loop runs until its bound on distinct maximal independent sets.
    instance = _seeded_instance("additive", 971)
    m = instance.m
    assert m == 8 and len(swap_ef1(instance)[1]) == 2
    first = most_valuable_source(instance)
    rounds = []

    def counting(graph, source):
        rounds.append(source)
        return chain_steps(graph, source)

    monkeypatch.setattr(swap_module, "complete_to_maximal_is", lambda graph, seed: first)
    monkeypatch.setattr(swap_module, "chain_steps", counting)
    with pytest.raises(RuntimeError, match="escalation failed to terminate"):
        swap_ef1(instance)
    assert len(rounds) == 3 ** ((m + 2) // 3) + 1 == 28
    assert set(rounds) == {tuple(sorted(first))}

    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(instance_to_json(instance)))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "--algorithm", "swap"]) == 7
    assert capsys.readouterr().err.startswith("error:internal invariant failed: escalation failed")
