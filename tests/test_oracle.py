"""Brute-force enumeration: completeness, gamma, budget handling."""

import itertools
import math
import random

import pytest

from conflictfair import (
    Additive,
    Allocation,
    BudgetExceededError,
    Composite,
    ConflictGraph,
    EnumerationBudget,
    Instance,
    Negated,
    compute_gamma,
    count_maximal_allocations,
    enumerate_maximal_allocations,
    exists_maximal_ef1,
    gen_counterexample,
    is_ef1,
)
from conflictfair.oracle import _gamma_and_allocation, worst_envy_gap

from conftest import (
    backtracking_maximal_allocations,
    canonical_relabeling,
    product_maximal_allocations,
    random_additive,
    random_graph,
    random_monotone_table,
)


def order_corpus():
    """Every m in 0..7 and n in 1..4 on an edgeless, a complete and a random
    graph, with uniform (1 per good), Additive (per agent at odd m) or Table valuations,
    plus the 3-, 4- and 5-agent counterexamples."""
    rng = random.Random(0x0DE7)
    corpus = []
    for m in range(8):
        for n in range(1, 5):
            graphs = (
                ConflictGraph(m),
                ConflictGraph(m, itertools.combinations(range(m), 2)),
                random_graph(rng, m, rng.uniform(0.2, 0.7)),
            )
            for k, graph in enumerate(graphs):
                kind = (m + n + k) % 3
                if kind == 0:
                    models = Additive([1] * m)
                elif kind == 1:
                    models = [random_additive(rng, m) for _ in range(n)] if m % 2 else random_additive(rng, m)
                else:
                    models = random_monotone_table(rng, m)
                corpus.append(Instance(graph, n, models))
    corpus.extend(gen_counterexample(n) for n in (3, 4, 5))
    return corpus


@pytest.fixture(scope="module")
def product_corpus():
    return [(instance, product_maximal_allocations(instance)) for instance in order_corpus()]


class TestEnumeration:
    def test_single_good_single_agent(self):
        instance = Instance(ConflictGraph(1), 1, Additive([5]))
        allocations = list(enumerate_maximal_allocations(instance))
        assert allocations == [Allocation([{0}])]

    def test_k2_two_agents(self):
        instance = Instance(ConflictGraph(2, [(0, 1)]), 2, Additive([1] * 2))
        allocations = list(enumerate_maximal_allocations(instance))
        assert allocations == [Allocation([{0}, {1}]), Allocation([{1}, {0}])]
        assert list(enumerate_maximal_allocations(instance, symmetric=True)) == allocations[:1]

    def test_counterexample_has_maximal_but_no_ef1(self):
        instance = gen_counterexample(3)
        allocations = list(enumerate_maximal_allocations(instance))
        assert allocations
        assert not any(is_ef1(instance, a) for a in allocations)

    def test_matches_backtracking_enumerator(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 3)
            instance = Instance(random_graph(rng, m), n, Additive([1] * m))
            mine = list(enumerate_maximal_allocations(instance))
            theirs = backtracking_maximal_allocations(instance)
            assert sorted(mine, key=repr) == sorted(theirs, key=repr)
            assert len(set(map(repr, mine))) == len(mine)

    def test_matches_product_sweep_in_order(self, product_corpus):
        for instance, reference in product_corpus:
            assert list(enumerate_maximal_allocations(instance)) == reference

    def test_assignment_budget(self):
        instance = Instance(ConflictGraph(4), 2, Additive([1] * 4))
        with pytest.raises(BudgetExceededError, match="exceed"):
            list(enumerate_maximal_allocations(instance, EnumerationBudget(max_assignments=10)))

    def test_wall_clock_budget(self):
        instance = Instance(ConflictGraph(10), 3, Additive([1] * 10))
        budget = EnumerationBudget(wall_clock_seconds=0.0)
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            list(enumerate_maximal_allocations(instance, budget))

    @pytest.mark.parametrize("seconds", [0.0, -5.0])
    def test_wall_clock_checked_at_the_first_node(self, seconds):
        # A search of a few nodes, far fewer than 1024, still stops when it
        # starts with no time left.
        instance = Instance(ConflictGraph(3, [(0, 1)]), 2, Additive([1] * 3))
        budget = EnumerationBudget(wall_clock_seconds=seconds)
        for search in (exists_maximal_ef1, count_maximal_allocations, compute_gamma):
            with pytest.raises(BudgetExceededError, match="wall-clock"):
                search(instance, budget)


class TestExistence:
    def test_counterexample_three_agents(self):
        result = exists_maximal_ef1(gen_counterexample(3))
        assert not result.exists and result.witness is None

    def test_counterexample_four_agents(self):
        assert not exists_maximal_ef1(gen_counterexample(4)).exists

    def test_two_agent_identical_always_exists(self, rng):
        for _ in range(25):
            m = rng.randint(1, 6)
            instance = Instance(random_graph(rng, m), 2, random_monotone_table(rng, m))
            result = exists_maximal_ef1(instance)
            assert result.exists
            assert is_ef1(instance, result.witness)


class TestFirstEnumerated:
    """Answers that take the first allocation in enumeration order equal
    those read off the product sweep."""

    def test_exists_witness_gamma_and_gamma_allocation(self, product_corpus):
        identical = 0
        for instance, reference in product_corpus:
            witness = next((a for a in reference if is_ef1(instance, a)), None)
            result = exists_maximal_ef1(instance)
            assert result.exists == (witness is not None)
            assert result.witness == witness
            if not instance.identical:
                continue
            identical += 1
            model = instance.identical_model
            gaps = [worst_envy_gap(model, a) for a in reference]
            gamma = min(gaps)
            assert compute_gamma(instance) == gamma
            assert _gamma_and_allocation(instance) == (gamma, reference[gaps.index(gamma)])
        assert identical >= len(product_corpus) // 2


class TestGamma:
    def test_four_agent_counterexample(self):
        assert compute_gamma(gen_counterexample(4)) == 1

    def test_single_good_single_agent(self):
        instance = Instance(ConflictGraph(1), 1, Additive([5]))
        assert compute_gamma(instance) == -5

    def test_three_agent_counterexample(self):
        assert compute_gamma(gen_counterexample(3)) == 1

    def test_requires_identical_valuations(self):
        instance = Instance(ConflictGraph(1), 2, [Additive([1]), Additive([2])])
        with pytest.raises(ValueError, match="identical"):
            compute_gamma(instance)

    def test_refuses_chores(self):
        # The gap formula is the goods one: on chores it gives a number
        # (4 here) that means nothing.
        instance = Instance(ConflictGraph(4), 3, Additive([-1, -2, -3, -4]), "chores")
        for gamma in (compute_gamma, _gamma_and_allocation):
            with pytest.raises(ValueError, match="gamma is defined for identical valuations of goods"):
                gamma(instance)

    def test_positive_gamma_forbids_ef1(self, rng):
        # For identical monotone goods valuations gamma <= 0 exactly when
        # some maximal allocation is EF1: the gap's own-bundle and
        # empty-bundle terms are never positive.
        corpus = [gen_counterexample(3), gen_counterexample(4)]
        for _ in range(30):
            m = rng.randint(1, 5)
            n = rng.randint(1, 3)
            corpus.append(Instance(random_graph(rng, m), n, random_monotone_table(rng, m)))
        seen = set()
        for instance in corpus:
            exists = exists_maximal_ef1(instance).exists
            assert exists == (compute_gamma(instance) <= 0)
            seen.add(exists)
        assert seen == {True, False}


def symmetric_corpus():
    """Seeded identical instances: additive, table and composite models,
    n in 2..4, each as goods and as chores through ``Negated``."""
    rng = random.Random(0x5E77)
    corpus = []
    for n in (2, 3, 4):
        for kind in ("additive", "table", "composite"):
            for _ in range(6):
                m = rng.randint(3, 7 if n < 4 else 6)
                graph = random_graph(rng, m, rng.uniform(0.2, 0.7))
                if kind == "additive":
                    model = random_additive(rng, m)
                elif kind == "table":
                    model = random_monotone_table(rng, m)
                else:
                    base = rng.randint(1, m - 1)
                    model = Composite(random_monotone_table(rng, base), base, random_additive(rng, m, hi=3))
                corpus.append(Instance(graph, n, model))
                corpus.append(Instance(graph, n, Negated(model), "chores"))
    corpus.extend(gen_counterexample(n) for n in (3, 4))
    return corpus


class TestSymmetricSearch:
    """With identical valuations the symmetric search yields exactly one
    leaf per agent-relabeling class of the full search, the class's least
    member in sweep order, so every answer that takes the first leaf with
    an orbit-invariant property is the full search's answer."""

    @pytest.fixture(scope="class")
    def searches(self):
        return [
            (
                instance,
                list(enumerate_maximal_allocations(instance)),
                list(enumerate_maximal_allocations(instance, symmetric=True)),
            )
            for instance in symmetric_corpus()
        ]

    def test_one_symmetric_leaf_per_relabeling_class(self, searches):
        for _instance, full, symmetric in searches:
            # The orbit minima of the full search, in its order.
            assert symmetric == [a for a in full if canonical_relabeling(a) == a]
            for leaf in full:
                relabelings = set(map(Allocation, itertools.permutations(leaf.bundles)))
                assert sum(a in relabelings for a in symmetric) == 1
        assert sum(len(s) for *_, s in searches) < sum(len(f) for _, f, _ in searches)

    def test_answers_equal_the_full_search(self, searches):
        outcomes = set()
        for instance, full, symmetric in searches:
            witness = next((a for a in full if is_ef1(instance, a)), None)
            result = exists_maximal_ef1(instance)
            assert (result.exists, result.witness) == (witness is not None, witness)
            model = instance.identical_model
            gaps = [worst_envy_gap(model, a) for a in full]
            gamma = min(gaps)
            if instance.mode == "goods":
                assert compute_gamma(instance) == gamma
                assert _gamma_and_allocation(instance) == (gamma, full[gaps.index(gamma)])
            else:
                # Gamma refuses chores; the symmetric search still finds the
                # least gap and the first leaf attaining it.
                least = min(((worst_envy_gap(model, a), a) for a in symmetric), key=lambda pair: pair[0])
                assert least == (gamma, full[gaps.index(gamma)])
            outcomes.add(result.exists)
        assert outcomes == {True, False}

    def test_count_equals_the_full_search(self, searches):
        for instance, full, _symmetric in searches:
            assert count_maximal_allocations(instance) == len(full)


def per_agent_corpus():
    """Seeded instances with one Additive or Table model per agent, n in
    1..4 and m in 0..7 (n > m included), each as goods and as chores."""
    rng = random.Random(0xC0C7)
    corpus = []
    for n in range(1, 5):
        for m in range(8):
            graph = random_graph(rng, m, rng.uniform(0.2, 0.7))
            if (n + m) % 2:
                models = [random_additive(rng, m) for _ in range(n)]
            else:
                models = [random_monotone_table(rng, m) for _ in range(n)]
            corpus.append(Instance(graph, n, models))
            corpus.append(Instance(graph, n, [Negated(model) for model in models], "chores"))
    return corpus


class TestCount:
    """Maximality ignores the valuations, so counting the symmetric leaves,
    each weighted by its orbit size perm(n, k) for k non-empty bundles, is
    exact on every instance."""

    @pytest.fixture(scope="class")
    def searches(self):
        return [
            (
                instance,
                list(enumerate_maximal_allocations(instance)),
                list(enumerate_maximal_allocations(instance, symmetric=True)),
            )
            for instance in per_agent_corpus()
        ]

    def test_count_equals_the_full_search_with_per_agent_valuations(self, searches):
        for instance, full, _symmetric in searches:
            assert count_maximal_allocations(instance) == len(full)
        instances = [instance for instance, *_ in searches]
        assert sum(not instance.identical for instance in instances) > len(instances) // 2
        assert any(instance.n > instance.m for instance in instances)

    def test_each_symmetric_leaf_stands_for_its_orbit(self, searches):
        for instance, full, symmetric in searches:
            orbit_sizes = {}
            for leaf in full:
                key = canonical_relabeling(leaf)
                orbit_sizes[key] = orbit_sizes.get(key, 0) + 1
            assert list(orbit_sizes) == symmetric
            for leaf in symmetric:
                k = sum(1 for b in leaf.bundles if b)
                assert orbit_sizes[leaf] == math.perm(instance.n, k)

    @pytest.mark.parametrize("n, count", [(3, 102), (4, 420), (5, 7100), (6, 140070)])
    def test_counterexample_counts(self, n, count):
        assert count_maximal_allocations(gen_counterexample(n)) == count


class TestPaperClaims:
    """No maximal EF1 allocation for n >= 3 (the counterexamples), for goods
    and for chores."""

    def test_seven_agent_counterexample(self):
        instance = gen_counterexample(7)
        budget = EnumerationBudget(max_assignments=8**9)
        assert not exists_maximal_ef1(instance, budget).exists

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_chores_counterexamples(self, n):
        goods = gen_counterexample(n)
        chores = Instance(goods.graph, n, Negated(goods.identical_model), "chores")
        result = exists_maximal_ef1(chores)
        assert not result.exists and result.witness is None
