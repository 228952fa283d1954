"""Counterexample generators and the independent-set reduction."""

import itertools
import random
from fractions import Fraction

import pytest

from conflictfair import (
    Additive,
    Allocation,
    ConflictGraph,
    EnumerationBudget,
    ISInstance,
    Instance,
    build_reduction,
    evaluate,
    exists_maximal_ef1,
    gen_counterexample,
    is_ef1,
    is_maximal,
    validate_allocation,
    yes_certificate,
)

from conftest import (
    independent_sets,
    max_independent_set_size,
    random_maximal_allocation,
    structured_maximal_allocations,
)


H5 = ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
TRIANGLE = ConflictGraph(3, [(0, 1), (1, 2), (0, 2)])
ISOLATED3 = ConflictGraph(3, [])


class TestCounterexamples:
    def test_three_agents(self):
        instance = gen_counterexample(3)
        assert instance.n == 3 and instance.m == 7
        assert len(instance.graph.edges) == 11
        model = instance.identical_model
        assert evaluate(model, {4, 6}) == 3  # right-part good plus the pendant
        assert evaluate(model, {0}) == 1
        assert evaluate(model, {3}) == 1
        assert evaluate(model, {1}) == 2
        assert evaluate(model, {0, 1}) == 4
        assert evaluate(model, ()) == 0

    def test_four_agents(self):
        instance = gen_counterexample(4)
        assert instance.m == 6
        expected = {(a, b) for a in (0, 1, 2) for b in (3, 4, 5)}
        assert instance.graph.edges == frozenset(expected)
        assert instance.identical_model == Additive([2, 2, 2, 3, 3, 3])

    def test_five_agents(self):
        instance = gen_counterexample(5)
        assert instance.m == 7
        assert len(instance.graph.edges) == 3 * 4  # K_{3,4}

    def test_rejects_two_agents(self):
        with pytest.raises(ValueError, match="n >= 3"):
            gen_counterexample(2)


class TestISInstance:
    def test_t_bounds(self):
        with pytest.raises(ValueError, match="t=4"):
            ISInstance(TRIANGLE, 4)
        with pytest.raises(ValueError, match="t=0"):
            ISInstance(TRIANGLE, 0)

    def test_independent_set_helpers(self):
        sets = independent_sets(TRIANGLE)
        assert sorted(sets, key=lambda s: (len(s), sorted(s))) == [
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]
        assert max_independent_set_size(TRIANGLE) == 1
        assert max_independent_set_size(H5) == 2


@pytest.fixture(scope="module")
def reduction4():
    base = gen_counterexample(4)
    return build_reduction(base, ISInstance(H5, 3))


@pytest.fixture(scope="module")
def reduction3_triangle():
    return build_reduction(gen_counterexample(3), ISInstance(TRIANGLE, 2))


class TestBuildReduction:
    def test_figure_instance_counts(self, reduction4):
        instance, spec = reduction4
        assert instance.m == 46
        assert len(instance.graph.edges) == 9 + 4 * 7 + 4 * 5 + 6 * 100
        assert spec.gamma == 1
        assert spec.lam == Fraction(1, 3)

    def test_lambda_times_t_is_gamma(self, reduction4, reduction3_triangle):
        for _instance, spec in (reduction4, reduction3_triangle):
            assert spec.lam * spec.is_instance.t == spec.gamma

    def test_triangle_reduction_size(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        assert instance.m == 7 + 2 * 3 * 3
        assert spec.lam == Fraction(1, 2)

    def test_composed_valuation(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        model = instance.identical_model
        base_model = spec.base.identical_model
        x_good = spec.good_map.x[1][0]
        y_good = spec.good_map.y[2][1]
        assert evaluate(model, {4, 6}) == evaluate(base_model, {4, 6})
        assert evaluate(model, {x_good}) == spec.lam
        assert evaluate(model, {y_good}) == 0
        assert evaluate(model, {4, 6, x_good, y_good}) == evaluate(base_model, {4, 6}) + spec.lam

    def test_additive_base_stays_additive(self, reduction4):
        instance, _spec = reduction4
        assert isinstance(instance.identical_model, Additive)

    def test_rejects_base_with_ef1(self):
        base = Instance(ConflictGraph(2, [(0, 1)]), 2, Additive([1] * 2))
        with pytest.raises(ValueError, match="admits"):
            build_reduction(base, ISInstance(TRIANGLE, 2))

    def test_rejects_per_agent_base(self):
        base = Instance(ConflictGraph(1), 2, [Additive([1]), Additive([2])])
        with pytest.raises(ValueError, match="identical"):
            build_reduction(base, ISInstance(TRIANGLE, 2))


class TestYesCertificate:
    def test_isolated_vertices_witness(self):
        instance, spec = build_reduction(gen_counterexample(3), ISInstance(ISOLATED3, 2))
        certificate = yes_certificate(spec, [0, 1])
        assert validate_allocation(instance, certificate).wellformed
        assert is_maximal(instance, certificate)
        assert is_ef1(instance, certificate)

    def test_first_agent_needs_no_filler_value(self):
        # the agent with the largest one-removed value always has c_i = 0,
        # so its extra goods are all zero-valued y-goods
        _instance, spec = build_reduction(gen_counterexample(3), ISInstance(ISOLATED3, 2))
        certificate = yes_certificate(spec, [0, 2])
        extras = certificate[0] - frozenset(spec.good_map.base)
        y_range = set(spec.good_map.y[0])
        assert extras and extras <= y_range

    def test_rejects_bad_witness(self, reduction3_triangle):
        _instance, spec = reduction3_triangle
        with pytest.raises(ValueError, match="size"):
            yes_certificate(spec, [0])  # needs size t=2
        with pytest.raises(ValueError, match="independent"):
            yes_certificate(spec, [0, 1])


def no_case_has_no_ef1(instance, spec, exhaustive=False):
    seen = 0
    for allocation in structured_maximal_allocations(
        spec, per_size_representatives=not exhaustive
    ):
        seen += 1
        if is_ef1(instance, allocation):
            return False, seen
    return True, seen


class TestReductionSoundness:
    def test_yes_cases_all_witnesses(self):
        pairs = [
            (ISOLATED3, 2),
            (ConflictGraph(3, [(0, 1), (1, 2)]), 2),
            (ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 2),
        ]
        base = gen_counterexample(3)
        for h, t in pairs:
            instance, spec = build_reduction(base, ISInstance(h, t))
            witnesses = [s for s in independent_sets(h) if len(s) == t]
            assert witnesses
            for witness in witnesses:
                certificate = yes_certificate(spec, witness)
                assert validate_allocation(instance, certificate).wellformed
                assert is_maximal(instance, certificate)
                assert is_ef1(instance, certificate)

    def test_no_cases_structured_enumeration(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        assert max_independent_set_size(TRIANGLE) < spec.is_instance.t
        ok, seen = no_case_has_no_ef1(instance, spec)
        assert ok and seen > 0

    def test_no_case_full_oracle(self):
        # Every maximal allocation of the reduced instance, not only the
        # certificate-shaped ones: H is one edge, so no independent set has
        # size t = 2, and m = 7 + 3 * 2 * 2 = 19 needs a raised budget.
        instance, spec = build_reduction(gen_counterexample(3), ISInstance(ConflictGraph(2, [(0, 1)]), 2))
        assert instance.m == 19 and max_independent_set_size(spec.is_instance.graph) < spec.is_instance.t
        result = exists_maximal_ef1(instance, EnumerationBudget(max_assignments=4**19))
        assert not result.exists and result.witness is None

    def test_structured_dedupe_matches_full_enumeration(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        ok_dedupe, seen_dedupe = no_case_has_no_ef1(instance, spec)
        ok_full, seen_full = no_case_has_no_ef1(instance, spec, exhaustive=True)
        assert ok_dedupe == ok_full
        assert seen_full >= seen_dedupe

    def test_structured_allocations_are_maximal(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        sample = itertools.islice(structured_maximal_allocations(spec), 0, 64, 7)
        count = 0
        for allocation in sample:
            count += 1
            assert validate_allocation(instance, allocation).wellformed
            assert is_maximal(instance, allocation)
        assert count > 0

    def test_restriction_of_maximal_is_base_maximal(self, reduction3_triangle):
        instance, spec = reduction3_triangle
        rng = random.Random(99)
        m_base = spec.base.m
        for _ in range(25):
            allocation = random_maximal_allocation(rng, instance)
            restricted = Allocation([b & frozenset(range(m_base)) for b in allocation])
            assert is_maximal(spec.base, restricted)
