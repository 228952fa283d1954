"""No path that solves, checks or searches reads ``ConflictGraph.edges``.

``edges`` is built from ``adj`` on each access, in O(m + |E|). Each test
records its answers first, then swaps ``edges`` for a property that raises
and makes the same calls again: they must succeed with the same answers.
"""

from functools import partial

import pytest

from conflictfair import (
    CHORES,
    GOODS,
    Allocation,
    ConflictGraph,
    Instance,
    Negated,
    RootedTree,
    bipartite_ef1,
    coloring_violations,
    compute_gamma,
    count_maximal_allocations,
    equitable_tree_coloring,
    exists_maximal_ef1,
    gen_counterexample,
    interval_ef1,
    is_ef1,
    is_maximal,
    round_robin_small,
    swap_ef1,
    validate_allocation,
)
from conflictfair.cli import main
from conflictfair.serialization import dump_json, instance_to_json

from conftest import (
    random_additive,
    random_connected_graph,
    random_graph,
    random_intervals,
    random_maximal_allocation,
    random_monotone_table,
    random_tree_edges,
    random_wellformed_allocation,
)


def forbid_edges(monkeypatch):
    def unread(graph):
        raise AssertionError("ConflictGraph.edges was read")

    monkeypatch.setattr(ConflictGraph, "edges", property(unread))


def same_answers_without_edges(monkeypatch, calls):
    expected = [call() for call in calls]
    forbid_edges(monkeypatch)
    assert [call() for call in calls] == expected


def test_forbidding_edges_bites(monkeypatch):
    graph = ConflictGraph(3, [(0, 1), (1, 2)])
    forbid_edges(monkeypatch)
    with pytest.raises(AssertionError, match="edges was read"):
        graph.edges


def test_solvers(rng, monkeypatch):
    calls = []
    for i in range(40):
        m = rng.randint(1, 10)
        model = random_additive(rng, m) if i % 2 else random_monotone_table(rng, m)
        calls.append(partial(swap_ef1, Instance(random_connected_graph(rng, m), 2, model)))
        iv = random_intervals(rng, m, span=rng.randint(2, 12))
        calls.append(partial(interval_ef1, Instance(iv.induced_graph(), 2, random_additive(rng, m)), iv))
        left = rng.randint(1, m)
        edges = [(u, v) for u in range(left) for v in range(left, m) if rng.random() < 0.5]
        calls.append(partial(bipartite_ef1, Instance(ConflictGraph(m, edges), 2, model)))
        n = rng.randint(max(1, m - 1), m)
        graph = random_graph(rng, m, rng.random())
        models = [random_additive(rng, m) for _ in range(n)]
        calls.append(partial(round_robin_small, Instance(graph, n, models)))
        calls.append(partial(round_robin_small, Instance(graph, n, [Negated(v) for v in models], CHORES)))
    same_answers_without_edges(monkeypatch, calls)


def test_checkers(rng, monkeypatch):
    calls = []
    for _ in range(100):
        m = rng.randint(1, 9)
        n = rng.randint(1, 3)
        instance = Instance(random_graph(rng, m, rng.random()), n, [random_additive(rng, m) for _ in range(n)])
        for allocation in (
            random_maximal_allocation(rng, instance),
            random_wellformed_allocation(rng, instance),
            Allocation([rng.sample(range(m), rng.randint(0, m)) for _ in range(n)]),
        ):
            calls.append(partial(validate_allocation, instance, allocation))
            calls.append(partial(is_maximal, instance, allocation))
            calls.append(partial(is_ef1, instance, allocation))
    same_answers_without_edges(monkeypatch, calls)


def test_oracle(rng, monkeypatch):
    instances = [gen_counterexample(3)]
    for _ in range(20):
        m = rng.randint(1, 6)
        instances.append(Instance(random_graph(rng, m, rng.random()), rng.randint(1, 3), random_additive(rng, m)))
    calls = []
    for instance in instances:
        calls.append(partial(exists_maximal_ef1, instance))
        calls.append(partial(count_maximal_allocations, instance))
        calls.append(partial(compute_gamma, instance))
    same_answers_without_edges(monkeypatch, calls)


def test_rooted_tree(rng, monkeypatch):
    graphs = []
    for _ in range(40):
        nv = rng.randint(1, 60)
        ids = rng.sample(range(nv), nv)
        edges = [(ids[u], ids[w]) for u, w in random_tree_edges(rng, nv)]
        graphs.append(ConflictGraph(nv, edges))
        if nv > 2:  # one edge too many, and v-1 edges with a cycle
            graphs.append(ConflictGraph(nv, edges + [(ids[0], ids[2])]))
            graphs.append(ConflictGraph(nv, edges[1:] + [(ids[0], ids[2])]))
    graphs.append(ConflictGraph(0))

    def shape(graph):
        try:
            tree = RootedTree(graph)
        except ValueError as error:
            return str(error)
        return tree.children, tree.order

    same_answers_without_edges(monkeypatch, [partial(shape, graph) for graph in graphs])


def test_tree_coloring(rng, monkeypatch):
    calls = []
    for _ in range(40):
        nv = rng.randint(1, 60)
        n = rng.randint(1, 5)
        tree = RootedTree(ConflictGraph(nv, random_tree_edges(rng, nv)))
        calls.append(partial(lambda tree, n: equitable_tree_coloring(tree, n).colors, tree, n))
        colors = [rng.choice([None, *range(n + 2)]) for _ in range(nv)]
        calls.append(partial(coloring_violations, tree.graph, colors, n))
    same_answers_without_edges(monkeypatch, calls)


def test_cli_solve_and_check(rng, tmp_path, monkeypatch, capsys):
    paths = []
    for i in range(12):
        m = rng.randint(1, 9)
        intervals = None
        if i % 3 == 0:
            intervals = random_intervals(rng, m, span=rng.randint(2, 12))
            graph = intervals.induced_graph()
        else:
            graph = random_connected_graph(rng, m)
        n = 2 if i % 4 else max(1, m - 1)
        model = random_additive(rng, m)
        instance = Instance(graph, n, Negated(model), CHORES) if i % 2 else Instance(graph, n, model, GOODS)
        path = tmp_path / f"instance{i}.json"
        dump_json(str(path), instance_to_json(instance, intervals))
        paths.append(str(path))

    def run_all():
        outputs = []
        for path in paths:
            out = path + ".allocation.json"
            outputs.append((main(["solve", path, "--out", out]), main(["check", path, out])))
            outputs.append(capsys.readouterr())
        return outputs

    expected = run_all()
    assert all(codes == (0, 0) for codes in expected[::2]), expected
    forbid_edges(monkeypatch)
    assert run_all() == expected
