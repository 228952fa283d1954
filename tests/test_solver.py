"""The library dispatch ``solve``: each algorithm it runs gives the allocation
of the direct solver call, ``auto`` picks as documented, and every explicit
algorithm handles an instance without goods."""

import hashlib
import json
import random

import pytest

from conflictfair import (
    CHORES,
    Additive,
    GOODS,
    ConflictGraph,
    InapplicableError,
    Instance,
    IntervalSet,
    Negated,
    NoAlgorithmError,
    bipartite_ef1,
    chain_ef1,
    complete_to_maximal_is,
    compute_gamma,
    cut_and_choose,
    enumerate_maximal_allocations,
    evaluate,
    interval_ef1,
    is_bipartite,
    round_robin_small,
    solve,
    swap_ef1,
)
from conflictfair import graph_classes, solver
from conflictfair.cli import main
from conflictfair.core import to_goods
from conflictfair.oracle import worst_envy_gap
from conflictfair.solver import ALGORITHMS

from conftest import (
    random_additive,
    random_connected_graph,
    random_graph,
    random_intervals,
    random_monotone_table,
    swap_solver,
)


# sha256 of the outputs over the corpus of ``test_allocations_match_parent``,
# as made by the valuation models that summed Fractions good by good and
# took "value minus one good" as |S| separate subset values.
PINNED_ALLOCATIONS = "ee394638159d87408dcd85f991a1d127c0ab0dbe575611f86e563f7ca0c2c3ab"


def _model(rng, m):
    return random_monotone_table(rng, m) if m <= 5 and rng.random() < 0.4 else random_additive(rng, m)


def _instances(rng, count, graph_of):
    """Two-agent instances over ``graph_of(m)``, a third each of identical
    goods, identical chores and per-agent valuations, the last in both
    modes."""
    out = []
    for i in range(count):
        m = rng.randint(1, 7)
        graph, intervals = graph_of(m)
        mode = CHORES if i % 3 == 1 or (i % 3 == 2 and rng.random() < 0.5) else GOODS
        models = [_model(rng, m) for _ in range(2)]
        if mode == CHORES:
            models = [Negated(v) for v in models]
        out.append((Instance(graph, 2, models[0] if i % 3 < 2 else models, mode), intervals))
    return out


def _goods_identical(instance):
    """The goods-mode identical instance, negated by hand."""
    model = instance.identical_model
    return Instance(instance.graph, 2, Negated(model) if instance.mode == CHORES else model, GOODS)


def _direct(instance, identical_solver):
    if instance.identical:
        return identical_solver(_goods_identical(instance))
    return cut_and_choose(instance, solve=identical_solver)


def _single_chain(instance):
    model = instance.identical_model
    g_star = max(range(instance.m), key=lambda g: (evaluate(model, (g,)), -g))
    return chain_ef1(instance, sorted(complete_to_maximal_is(instance.graph, (g_star,)))).allocation


@pytest.fixture(scope="module")
def general_corpus():
    rng = random.Random(11)
    return _instances(rng, 45, lambda m: (random_connected_graph(rng, m), None))


@pytest.fixture(scope="module")
def bipartite_corpus():
    rng = random.Random(12)

    def graph_of(m):
        while True:
            graph = random_graph(rng, m, edge_prob=0.35)
            if is_bipartite(graph):
                return graph, None

    return _instances(rng, 45, graph_of)


@pytest.fixture(scope="module")
def interval_corpus():
    rng = random.Random(13)

    def graph_of(m):
        intervals = random_intervals(rng, m, span=12)
        return intervals.induced_graph(), intervals

    return _instances(rng, 45, graph_of)


class TestMatchesDirectCalls:
    def test_swap(self, general_corpus):
        for instance, _ in general_corpus:
            solution = solve(instance, "swap")
            assert solution.algorithm == "swap"
            assert solution.allocation == _direct(instance, lambda inst: swap_ef1(inst)[0])

    def test_chain(self, general_corpus):
        found = 0
        for instance, _ in general_corpus:
            allocation = solve(instance, "chain").allocation
            assert allocation == _direct(instance, _single_chain)
            found += allocation is not None
        assert found > 0

    def test_bipartite(self, bipartite_corpus):
        for instance, _ in bipartite_corpus:
            assert solve(instance, "bipartite").allocation == _direct(instance, bipartite_ef1)

    def test_interval(self, interval_corpus):
        for instance, intervals in interval_corpus:
            direct = _direct(instance, lambda inst: interval_ef1(inst, intervals))
            assert solve(instance, "interval", intervals).allocation == direct

    def test_round_robin(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(0, n + 1)
            models = [random_additive(rng, m) for _ in range(n)]
            instance = Instance(random_graph(rng, m), n, models)
            assert solve(instance, "roundrobin").allocation == round_robin_small(instance)
            chores = Instance(instance.graph, n, [Negated(v) for v in models], CHORES)
            assert solve(chores, "roundrobin").allocation == round_robin_small(chores)


def _expected_auto(instance, intervals):
    if instance.m <= instance.n + 1:
        return "roundrobin"
    if intervals is not None:
        return "interval"
    return "bipartite" if is_bipartite(instance.graph) else "swap"


class TestAuto:
    def test_choice_and_allocation(self, general_corpus, bipartite_corpus, interval_corpus):
        picked = set()
        for instance, intervals in general_corpus + bipartite_corpus + interval_corpus:
            solution = solve(instance, intervals=intervals)
            assert solution.algorithm == _expected_auto(instance, intervals)
            assert solution.allocation == solve(instance, solution.algorithm, intervals).allocation
            picked.add(solution.algorithm)
        assert picked == {"roundrobin", "interval", "bipartite", "swap"}

    def test_bipartite_graph_checked_once(self, monkeypatch):
        calls = []
        original = graph_classes.bipartition
        monkeypatch.setattr(graph_classes, "bipartition", lambda graph: calls.append(graph) or original(graph))
        instance = Instance(ConflictGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), 2, Additive([1] * 6))
        assert solve(instance).algorithm == "bipartite"
        assert len(calls) == 1

    def test_per_agent_sub_instance_built_once(self, monkeypatch):
        # On an odd cycle with no intervals, auto asks the interval, the
        # bipartite and the swap solver, all on one agent-1 sub-instance.
        cycle = ConflictGraph(5, [(g, (g + 1) % 5) for g in range(5)])
        models = [random_additive(random.Random(seed), 5) for seed in (1, 2)]
        for mode, built_per_solve in ((GOODS, 1), (CHORES, 2)):
            agents = models if mode == GOODS else [Negated(v) for v in models]
            instance = Instance(cycle, 2, agents, mode)
            calls, built = [], []
            monkeypatch.setattr(solver, "cut_and_choose", lambda *args, **kw: calls.append(args) or cut_and_choose(*args, **kw))
            original = Instance.__init__
            monkeypatch.setattr(Instance, "__init__", lambda self, *args: built.append(args) or original(self, *args))
            solution = solve(instance)
            monkeypatch.undo()
            assert solution.algorithm == "swap"
            assert solution.allocation == cut_and_choose(instance, swap_solver)
            assert len(calls) == 1 and len(built) == built_per_solve, mode

    def test_no_algorithm_for_three_agents(self):
        with pytest.raises(NoAlgorithmError, match="no algorithm applies to 3 agents on 5 goods"):
            solve(Instance(ConflictGraph(5), 3, Additive([1] * 5)))

    def test_intervals_that_miss_the_graph_are_not_skipped(self):
        # The interval check's ValueError is no refusal: auto does not go
        # on to the bipartite or the swap solver.
        path = Instance(ConflictGraph(4, [(0, 1), (1, 2), (2, 3)]), 2, Additive([1] * 4))
        disjoint = IntervalSet([(0, 1), (2, 3), (4, 5), (6, 7)])
        with pytest.raises(ValueError, match="joins disjoint intervals") as caught:
            solve(path, "auto", disjoint)
        assert not isinstance(caught.value, InapplicableError)


# The solver each algorithm name runs, as bound in the ``solver`` module.
SOLVER_ATTRIBUTES = {
    "chain": "chain_ef1",
    "swap": "swap_ef1",
    "bipartite": "bipartite_ef1",
    "interval": "interval_ef1",
    "roundrobin": "round_robin_small",
}


class TestModuleAttributes:
    """``solve`` reaches each solver through the ``solver`` module's
    attribute, looked up on each call: a wrapper bound there (as the traced
    benchmark binds its spans) is the one that runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in SOLVER_ATTRIBUTES.values():
            original = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
        return calls

    def test_algorithm_names(self):
        assert ALGORITHMS == ("chain", "swap", "bipartite", "interval", "roundrobin")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("per_agent", [False, True])
    def test_each_name_reaches_its_wrapper(self, calls, algorithm, per_agent):
        m = 3 if algorithm == "roundrobin" else 4
        intervals = IntervalSet([(g, g + 2) for g in range(m)])
        models = [random_additive(random.Random(seed), m) for seed in (1, 2)]
        instance = Instance(intervals.induced_graph(), 2, models if per_agent else models[0])
        assert solve(instance, algorithm, intervals).algorithm == algorithm
        assert calls == [SOLVER_ATTRIBUTES[algorithm]]

    def test_auto_asks_each_wrapper_in_turn(self, calls):
        cycle = ConflictGraph(5, [(g, (g + 1) % 5) for g in range(5)])
        models = [random_additive(random.Random(seed), 5) for seed in (1, 2)]
        assert solve(Instance(cycle, 2, models)).algorithm == "swap"
        assert calls == ["round_robin_small", "interval_ef1", "bipartite_ef1", "swap_ef1"]


class TestInapplicable:
    @pytest.mark.parametrize(
        "algorithm, instance, message",
        [
            ("swap", Instance(ConflictGraph(2), 3, Additive([1] * 2)), "algorithm needs exactly 2 agents, got n=3"),
            ("bipartite", Instance(ConflictGraph(3, [(0, 1), (1, 2), (0, 2)]), 2, Additive([1] * 3)), "graph is not bipartite"),
            ("interval", Instance(ConflictGraph(3), 2, Additive([1] * 3)), "instance file has no intervals"),
            ("roundrobin", Instance(ConflictGraph(4), 2, Additive([1] * 4)), "round robin needs m <= n\\+1, got m=4"),
            ("greedy", Instance(ConflictGraph(1), 2, Additive([1] * 1)), "unknown algorithm"),
        ],
    )
    def test_rejected(self, algorithm, instance, message):
        with pytest.raises(InapplicableError, match=message):
            solve(instance, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_zero_goods_under_every_algorithm(tmp_path, capsys, algorithm):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "agents": 2,
        "goods": 0,
        "edges": [],
        "valuations": {"identical": {"type": "additive", "values": []}},
        "intervals": [],
    }))
    assert main(["solve", str(path), "--algorithm", algorithm]) == 0
    lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["algorithm"] == algorithm
    assert lines["found"] == "true" and lines["bundles"] == "[[], []]"


def _bipartite_graph(rng, m):
    side = [rng.random() < 0.5 for _ in range(m)]
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if side[u] != side[v] and rng.random() < 0.4]
    return ConflictGraph(m, edges)


def test_allocations_match_parent():
    """The two-agent solvers, cut-and-choose and gamma give exactly the
    outputs they gave before the closed-form valuation drops."""
    rng = random.Random(2025)
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    for i in range(120):
        m = rng.randint(1, 9)
        mode = CHORES if i % 2 else GOODS
        models = [_model(rng, m) for _ in range(2)]
        if mode == CHORES:
            models = [Negated(v) for v in models]
        graph = random_connected_graph(rng, m)
        allocation, trace = swap_ef1(to_goods(Instance(graph, 2, models[0], mode)))
        put("swap", repr(allocation), len(trace))
        put("cut", repr(cut_and_choose(Instance(graph, 2, models, mode), swap_solver)))
        intervals = random_intervals(rng, m, span=12)
        put("interval", repr(interval_ef1(to_goods(Instance(intervals.induced_graph(), 2, models[0], mode)), intervals)))
        put("bipartite", repr(bipartite_ef1(to_goods(Instance(_bipartite_graph(rng, m), 2, models[0], mode)))))
        if m <= 6:
            n = rng.randint(2, 3)
            instance = Instance(random_graph(rng, m), n, models[0], mode)
            if mode == GOODS:
                put("gamma", compute_gamma(instance))
            else:
                # compute_gamma refuses chores; this is the smallest gap it
                # returned for them before it did.
                leaves = enumerate_maximal_allocations(instance, symmetric=True)
                put("gamma", min(worst_envy_gap(models[0], leaf) for leaf in leaves))
    assert digest.hexdigest() == PINNED_ALLOCATIONS


def _odd_cycle(rng, m):
    """A cycle on an odd number of the m goods (m >= 3), in random order,
    plus a few chords."""
    k = m if m % 2 else m - 1
    order = rng.sample(range(m), k)
    edges = {tuple(sorted((order[i], order[(i + 1) % k]))) for i in range(k)}
    edges.update((u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < 0.15)
    return ConflictGraph(m, edges)


def _solve_corpus():
    """Seeded instances for every branch of ``solve``: one to three agents,
    identical and per-agent valuations, goods and chores, m <= n+1, bipartite
    graphs, odd cycles, general graphs and interval graphs with and without
    their intervals (and with intervals of another graph)."""
    rng = random.Random(2026)
    out = []
    for i in range(150):
        n = rng.choice((1, 2, 2, 2, 2, 3))
        kind = i % 5
        m = rng.randint(0, n + 1) if kind == 0 else rng.randint(3 if kind == 2 else 1, 7)
        intervals = None
        if kind == 1:
            graph = _bipartite_graph(rng, m)
        elif kind == 2:
            graph = _odd_cycle(rng, m)
        elif kind == 3:
            intervals = random_intervals(rng, m, span=12)
            graph = intervals.induced_graph()
            if rng.random() < 0.3:
                intervals = None
            elif rng.random() < 0.15:
                intervals = random_intervals(rng, m, span=12)
        else:
            graph = random_connected_graph(rng, m) if m else ConflictGraph(0)
        mode = CHORES if rng.random() < 0.4 else GOODS
        models = [_model(rng, m) for _ in range(n)]
        if mode == CHORES:
            models = [Negated(v) for v in models]
        valuations = models[0] if rng.random() < 0.5 else models
        out.append((Instance(graph, n, valuations, mode), intervals))
    # The single chain from the most valuable good finds no EF1 step here.
    no_chain = ConflictGraph(7, [(0, 1), (0, 5), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (4, 5), (5, 6)])
    values = Additive([9, 10, 4, 7, 7, 0, 10])
    out.append((Instance(no_chain, 2, values), None))
    out.append((Instance(no_chain, 2, Negated(values), CHORES), None))
    return out


# sha256 over the corpus of ``test_solve_outputs_pinned``.
PINNED_SOLVE = "e40a52c2ee31742bdd1f95751d4f5bd9ec63cf2094708d0a11c899218cb29c42"


def test_solve_outputs_pinned():
    """Per instance and per algorithm (``auto`` and every name in
    ``ALGORITHMS``), the algorithm that ran and its sorted bundles, or the
    type and message of what ``solve`` raised, are those pinned."""
    digest = hashlib.sha256()
    for instance, intervals in _solve_corpus():
        for algorithm in ("auto", *ALGORITHMS):
            try:
                solution = solve(instance, algorithm, intervals)
            except (ValueError, RuntimeError) as exc:
                row = (type(exc).__name__, str(exc))
            else:
                allocation = solution.allocation
                row = (solution.algorithm, None if allocation is None else [sorted(b) for b in allocation.bundles])
            digest.update(repr((algorithm, row)).encode())
    assert digest.hexdigest() == PINNED_SOLVE
