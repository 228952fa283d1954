"""Acceptance suite: one test per criterion, at the stated scale and
tolerance. Every value comparison is exact rational arithmetic.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; each test also prints an ``ACCEPTANCE k PASS`` line on success.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from conflictfair import (
    Additive,
    ConflictGraph,
    ISInstance,
    Instance,
    Negated,
    bipartition,
    build_chain,
    build_reduction,
    chain_ef1,
    bipartite_ef1,
    coloring_violations,
    cut_and_choose,
    equitable_tree_coloring,
    evaluate,
    exists_maximal_ef1,
    gen_counterexample,
    interval_ef1,
    interval_scheduling_greedy,
    is_ef1,
    is_maximal,
    iteration_bound_additive,
    round_robin_small,
    swap_ef1,
    validate_allocation,
    yes_certificate,
    RootedTree,
)

from conftest import (
    all_maximal_independent_sets,
    brute_max_schedule_size,
    chain_side_sets,
    independent_sets,
    is_ordered_adjacent,
    max_independent_set_size,
    random_additive,
    random_graph,
    random_intervals,
    random_monotone_table,
    random_tree_edges,
    random_wellformed_allocation,
    schedule_feasible,
    structured_maximal_allocations,
    swap_solver,
)


def passed(number, label):
    print(f"ACCEPTANCE {number} PASS: {label}")


@pytest.fixture(scope="module")
def connected_catalog():
    """Isomorph-free catalog of all 996 connected graphs on 1..7 vertices."""
    catalog = [
        g
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 7 and nx.is_connected(g)
    ]
    assert len(catalog) == 996
    return [ConflictGraph(g.number_of_nodes(), list(g.edges())) for g in catalog]


@pytest.fixture(scope="module")
def solver_corpus(connected_catalog):
    """Criterion 3 corpus: every catalog graph with one random additive
    valuation, plus >= 50 random monotone table valuations; each instance is
    solved once and the trace is kept."""
    rng = random.Random(31337)
    records = []
    for graph in connected_catalog:
        instance = Instance(graph, 2, random_additive(rng, graph.m, hi=10))
        allocation, trace = swap_ef1(instance)
        records.append((instance, allocation, trace))
    for graph in rng.sample(connected_catalog, 60):
        instance = Instance(graph, 2, random_monotone_table(rng, graph.m))
        allocation, trace = swap_ef1(instance)
        records.append((instance, allocation, trace))
    return records


def test_criterion_01_three_agent_counterexample_has_no_maximal_ef1():
    start = time.monotonic()
    instance = gen_counterexample(3)
    result = exists_maximal_ef1(instance)
    elapsed = time.monotonic() - start
    assert not result.exists
    assert elapsed < 5.0, f"enumeration took {elapsed:.1f}s"
    passed(1, f"3-agent counterexample exhausted in {elapsed:.2f}s, no maximal EF1")


def test_criterion_02_four_and_five_agent_counterexamples():
    for n in (4, 5, 6):
        start = time.monotonic()
        result = exists_maximal_ef1(gen_counterexample(n))
        elapsed = time.monotonic() - start
        assert not result.exists, f"n={n}"
        assert elapsed < 30.0, f"n={n} took {elapsed:.1f}s"
    passed(2, "K_{3,n-1} counterexamples admit no maximal EF1 for n in {4,5,6}")


def test_criterion_03_two_agent_solver_never_fails(solver_corpus):
    failures = 0
    for instance, allocation, _trace in solver_corpus:
        ok = (
            validate_allocation(instance, allocation).wellformed
            and is_maximal(instance, allocation)
            and is_ef1(instance, allocation)
        )
        failures += not ok
    assert failures == 0
    passed(3, f"{len(solver_corpus)} solved instances, all maximal and EF1, zero failures")


def test_criterion_04_chain_steps_valid_maximal_adjacent(solver_corpus):
    mis_cache = {}
    chains = 0
    for instance, _allocation, _trace in solver_corpus:
        graph = instance.graph
        key = (graph.m, graph.edges)
        if key not in mis_cache:
            mis_cache[key] = all_maximal_independent_sets(graph)
        model = instance.identical_model
        for source in mis_cache[key]:
            ordered = tuple(sorted(source))
            chain = build_chain(instance, ordered)
            chains += 1
            for step in chain.steps:
                assert validate_allocation(instance, step).wellformed
                assert is_maximal(instance, step)
            for prev, cur in itertools.pairwise(chain.steps):
                assert is_ordered_adjacent(prev, cur)
            vs = evaluate(model, source)
            if all(vs >= evaluate(model, side) for side in chain_side_sets(chain)):
                assert any(is_ef1(instance, step) for step in chain.steps)
    passed(4, f"{chains} chains: every step valid+maximal, adjacency and EF1 guarantees hold")


def test_criterion_05_additive_iteration_bounds(solver_corpus):
    checked = 0
    for instance, _allocation, trace in solver_corpus:
        model = instance.identical_model
        if not isinstance(model, Additive):
            continue
        m = instance.m
        if m >= 2:
            assert len(trace) <= iteration_bound_additive(m)
        for earlier, later in zip(trace, trace[1:]):
            assert later.value > Fraction(m, m - 1) * earlier.value
        checked += 1
    assert checked >= 500
    passed(5, f"{checked} additive traces within ceil(log_(m/(m-1)) m)+1, all increases exceed m/(m-1)")


def test_criterion_06_interval_suite():
    rng = random.Random(606)
    splices = 0
    for trial in range(300):
        m = rng.randint(1, 12)
        iv = random_intervals(rng, m, span=18)
        instance = Instance(iv.induced_graph(), 2, random_additive(rng, m))
        allocation = interval_ef1(instance, iv)
        assert validate_allocation(instance, allocation).wellformed
        assert is_maximal(instance, allocation)
        assert is_ef1(instance, allocation)

        for c in (1, 2):
            greedy = interval_scheduling_greedy(iv, c=c)
            assert len(greedy) == brute_max_schedule_size(iv, range(m), c)

        greedy1 = interval_scheduling_greedy(iv, c=1)
        k = len(greedy1)
        optima = [
            pick
            for pick in itertools.combinations(range(m), k)
            if schedule_feasible(iv, pick, 1)
        ]
        for optimum in optima[:10]:
            ordered = sorted(optimum, key=lambda g: iv.keys[g][1])
            for i in range(k + 1):
                spliced = set(greedy1[:i]) | set(ordered[i:])
                assert schedule_feasible(iv, spliced, 1)
                assert len(spliced) == k
                splices += 1
    passed(6, f"300 interval instances solved and verified; {splices} prefix splices feasible")


def test_criterion_07_bipartite_suite():
    rng = random.Random(707)
    for trial in range(300):
        left = rng.randint(1, 20)
        right = rng.randint(0, 20)
        m = left + right
        if m > 40:
            right = 40 - left
            m = 40
        edges = [
            (u, left + v)
            for u in range(left)
            for v in range(right)
            if rng.random() < rng.choice([0.1, 0.3, 0.6])
        ]
        graph = ConflictGraph(m, edges)
        instance = Instance(graph, 2, random_additive(rng, m))
        allocation = bipartite_ef1(instance)
        assert validate_allocation(instance, allocation).wellformed
        assert is_maximal(instance, allocation)
        assert is_ef1(instance, allocation)

        # the guarantee is single-chain: no escalation is ever needed
        model = instance.identical_model
        isolated = frozenset(g for g in range(m) if not graph.adj[g])
        side0, side1 = bipartition(graph)
        side0 -= isolated
        side1 -= isolated
        if evaluate(model, side0) >= evaluate(model, side1):
            m1 = side0 | isolated
        else:
            m1 = side1 | isolated
        assert chain_ef1(instance, sorted(m1)).found
    passed(7, "300 bipartite instances solved within a single chain, all verified")


def test_criterion_08_round_robin_all_small_graphs():
    rng = random.Random(808)
    runs = 0
    for m in range(1, 6):
        pairs = list(itertools.combinations(range(m), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask & (1 << i)]
            graph = ConflictGraph(m, edges)
            for n in sorted({max(1, m - 1), m}):
                models = [random_additive(rng, m, hi=8) for _ in range(n)]
                instance = Instance(graph, n, models)
                allocation = round_robin_small(instance)
                assert validate_allocation(instance, allocation).wellformed
                assert is_maximal(instance, allocation)
                assert is_ef1(instance, allocation)
                runs += 1
    passed(8, f"round robin on all {runs} (graph, n) pairs with m <= 5: maximal and per-agent EF1")


def test_criterion_09_reduction_suite():
    start = time.monotonic()
    h5 = ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    _instance, spec = build_reduction(gen_counterexample(4), ISInstance(h5, 3))
    assert spec.gamma == 1
    assert spec.lam == Fraction(1, 3)

    base = gen_counterexample(3)
    yes_cases = [
        (ConflictGraph(3, []), 2),
        (ConflictGraph(3, [(0, 1), (1, 2)]), 2),
        (ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 2),
    ]
    for h, t in yes_cases:
        instance, hspec = build_reduction(base, ISInstance(h, t))
        witnesses = [s for s in independent_sets(h) if len(s) == t]
        assert witnesses, "not a YES case"
        for witness in witnesses:
            certificate = yes_certificate(hspec, witness)
            assert validate_allocation(instance, certificate).wellformed
            assert is_maximal(instance, certificate)
            assert is_ef1(instance, certificate)

    no_cases = [
        (ConflictGraph(3, [(0, 1), (1, 2), (0, 2)]), 2),
        (ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 3),
        (ConflictGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), 2),
    ]
    for h, t in no_cases:
        assert max_independent_set_size(h) < t, "not a NO case"
        instance, hspec = build_reduction(base, ISInstance(h, t))
        count = 0
        for allocation in structured_maximal_allocations(hspec):
            count += 1
            assert not is_ef1(instance, allocation)
        assert count > 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"reduction suite took {elapsed:.1f}s"
    passed(9, f"gamma=1, lambda=1/3 exact; YES certificates verify, NO cases have zero EF1 ({elapsed:.1f}s)")


def test_criterion_10_tree_coloring_suite():
    rng = random.Random(1010)
    for trial in range(500):
        nv = rng.randint(1, 200)
        n = rng.randint(1, 10)
        if trial % 50 == 0:
            edges = [(v - 1, v) for v in range(1, nv)]  # worst-case depth
        else:
            edges = random_tree_edges(rng, nv)
        tree = RootedTree.from_edges(nv, edges)
        coloring = equitable_tree_coloring(tree, n)
        graph = tree.graph
        assert not coloring_violations(graph, coloring.colors, n)
        root_color = coloring.colors[tree.root]
        if root_color is not None:
            assert coloring.class_sizes[root_color - 1] == max(coloring.class_sizes)

    small_trees = [nx.empty_graph(1)]
    for nv in range(2, 8):
        small_trees.extend(nx.nonisomorphic_trees(nv))
    checked = 0
    for g in small_trees:
        nv = g.number_of_nodes()
        tree = RootedTree.from_edges(nv, list(g.edges()))
        graph = tree.graph
        for n in (1, 2, 3):
            coloring = equitable_tree_coloring(tree, n)
            valid = set()
            for assignment in itertools.product(range(n + 1), repeat=nv):
                colors = tuple(c if c else None for c in assignment)
                if not coloring_violations(graph, colors, n):
                    valid.add(colors)
            assert coloring.colors in valid
            checked += 1
    passed(10, f"500 random trees pass all four conditions; {checked} small cases match brute force")


def test_criterion_11_chores_goods_metamorphic(solver_corpus):
    # solver outputs stay checker-consistent under the chores flip
    for instance, allocation, _trace in solver_corpus:
        model = instance.identical_model
        chores_twin = Instance(instance.graph, 2, Negated(model), "chores")
        assert is_ef1(chores_twin, allocation) == is_ef1(instance, allocation)
        assert is_maximal(chores_twin, allocation) == is_maximal(instance, allocation)

    rng = random.Random(1111)
    pairs = 0
    discrepancies = 0
    while pairs < 10_000:
        m = rng.randint(1, 5)
        graph = random_graph(rng, m)
        roll = rng.random()
        if roll < 0.4:
            model = random_additive(rng, m)
        elif roll < 0.8:
            model = random_monotone_table(rng, m)
        else:
            model = Additive([1] * m)
        n = rng.randint(1, 3)
        goods = Instance(graph, n, model, "goods")
        chores = Instance(graph, n, Negated(model), "chores")
        for _ in range(5):
            allocation = random_wellformed_allocation(rng, goods)
            if is_ef1(chores, allocation) != is_ef1(goods, allocation):
                discrepancies += 1
            pairs += 1
    assert discrepancies == 0
    passed(11, f"{pairs} random (instance, allocation) pairs: chores EF1 equals goods EF1 under negation")


def test_criterion_12_cut_and_choose_two_sided():
    rng = random.Random(1212)
    for trial in range(300):
        m = rng.randint(1, 8)
        graph = random_graph(rng, m, edge_prob=rng.choice([0.2, 0.5]))
        models = [random_additive(rng, m), random_additive(rng, m)]
        instance = Instance(graph, 2, models)
        allocation = cut_and_choose(instance, swap_solver)
        assert validate_allocation(instance, allocation).wellformed
        assert is_maximal(instance, allocation)
        assert is_ef1(instance, allocation)
    passed(12, "300 distinct-valuation instances: cut-and-choose maximal and two-sided EF1")
