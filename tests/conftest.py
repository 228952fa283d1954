"""Shared generators and independent brute-force oracles for the suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from conflictfair import (
    CHORES,
    GOODS,
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    IntervalSet,
    Negated,
    RootedTree,
    SwapIteration,
    Table,
    ValidationReport,
    build_chain,
    chain_ef1,
    complete_to_maximal_is,
    enumerate_maximal_allocations,
    evaluate,
    is_ef1,
    is_independent_set,
    is_maximal,
    swap_ef1,
    validate_allocation,
)
from conflictfair.chain import most_valuable_source
from conflictfair.core import as_fraction
from conflictfair.hardness import _assemble


def swap_solver(instance: Instance) -> Allocation:
    """The swap solver's allocation for two agents who both hold agent 1's
    valuation, negated by hand into goods form for chores: the allocation
    that ``cut_and_choose`` lets agent 2 choose from."""
    model = instance.models[0]
    return swap_ef1(Instance(instance.graph, 2, Negated(model) if instance.mode == CHORES else model, GOODS))[0]


def random_connected_graph(rng: random.Random, m: int, extra_edge_prob: float = 0.3) -> ConflictGraph:
    """Random spanning tree plus random extra edges."""
    edges = set()
    for v in range(1, m):
        edges.add((rng.randrange(v), v))
    for u in range(m):
        for v in range(u + 1, m):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return ConflictGraph(m, edges)


def random_graph(rng: random.Random, m: int, edge_prob: float = 0.4) -> ConflictGraph:
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < edge_prob]
    return ConflictGraph(m, edges)


def random_additive(rng: random.Random, m: int, hi: int = 10) -> Additive:
    return Additive([rng.randint(0, hi) for _ in range(m)])


def random_monotone_table(rng: random.Random, m: int, step: int = 3) -> Table:
    """Random monotone non-decreasing set function with v({}) = 0, built by
    adding a non-negative increment to the best sub-subset value."""
    entries = {0: Fraction(0)}
    for mask in sorted(range(1, 1 << m), key=lambda x: bin(x).count("1")):
        best = max(entries[mask & ~(1 << g)] for g in range(m) if mask & (1 << g))
        entries[mask] = best + rng.randint(0, step)
    return Table(m, entries)


def one_pair_violation(m: int, g: int, j: int) -> list:
    """Table values by mask over m goods that break monotone non-decreasing
    at the one covering pair (j, j + 2^g), j without bit g: 4|S| elsewhere,
    4|j| + 2 at j and 4|j| + 1 at j + 2^g. For j = 0 the pair's top is -1,
    as v(empty set) stays 0."""
    values = [4 * bin(mask).count("1") for mask in range(1 << m)]
    if j:
        values[j] += 2
        values[j | 1 << g] -= 3
    else:
        values[1 << g] = -1
    return values


# Mixed denominators and zeros, so a common denominator is not 1.
MODEL_VALUES = (Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(7, 3), Fraction(5, 6), Fraction(3, 4))
MODEL_KINDS = ("additive", "uniform", "table", "negated", "double-negated", "composite")


def random_model(rng: random.Random, m: int, mode: str = GOODS, kind=None, depth: int = 2):
    """A valid model over m goods in ``mode``: of ``kind``, or of a random
    kind when it is None. Negated, double-negated and composite models wrap
    random models ``depth`` levels deep; "uniform" is 1 (or -1) per good,
    and a chores table is a negated table's entries."""
    kind = kind or rng.choice(MODEL_KINDS if depth else MODEL_KINDS[:3])
    sign = 1 if mode == GOODS else -1
    if kind == "additive":
        model = Additive([sign * rng.choice(MODEL_VALUES) for _ in range(m)])
    elif kind == "uniform":
        model = Additive([sign] * m)
    elif kind == "table":
        model = random_monotone_table(rng, m)
        if mode == CHORES:
            model = Table(m, {mask: -v for mask, v in model.entries.items()})
    elif kind == "negated":
        model = Negated(random_model(rng, m, CHORES if mode == GOODS else GOODS, depth=depth - 1))
    elif kind == "double-negated":
        model = Negated(Negated(random_model(rng, m, mode, depth=depth - 1)))
    else:
        base_goods = rng.randint(0, m)
        tail = Additive([sign * rng.choice(MODEL_VALUES) for _ in range(m)])
        model = Composite(random_model(rng, base_goods, mode, depth=depth - 1), base_goods, tail)
    model.check(m, mode)
    return model


def reference_value(model, subset) -> Fraction:
    """v(subset) from the definition of each model type, read from its
    defining data and never through ``value`` or a running bundle. A good
    outside the model is a ValueError."""
    subset = frozenset(subset)
    if isinstance(model, Additive):
        bad = [g for g in subset if not 0 <= g < len(model.values)]
        if bad:
            raise ValueError(f"good {bad[0]} outside the additive vector")
        return sum((model.values[g] for g in subset), Fraction(0))
    if isinstance(model, Table):
        if not all(0 <= g < model.m for g in subset):
            raise ValueError("good outside the table")
        return Fraction(model.nums[sum(1 << g for g in subset)], model.den)
    if isinstance(model, Negated):
        return -reference_value(model.inner, subset)
    if isinstance(model, Composite):
        base = reference_value(model.base, {g for g in subset if g < model.base_goods})
        return base + reference_value(model.tail, subset)
    raise TypeError(f"no reference for {type(model).__name__}")


def reference_min_drop(model, subset) -> Fraction:
    """min over g in subset of v(subset - {g}); 0 for the empty set."""
    subset = frozenset(subset)
    return min((reference_value(model, subset - {g}) for g in subset), default=Fraction(0))


def reference_max_drop(model, subset) -> Fraction:
    """max over g in subset of v(subset - {g}); 0 for the empty set."""
    subset = frozenset(subset)
    return max((reference_value(model, subset - {g}) for g in subset), default=Fraction(0))


class ReferenceBundle:
    """Reference for a model's running bundle: it keeps the goods and
    recomputes each read from them through the references above, as a
    ``Fraction`` where the running bundle gives an integer over ``den``."""

    def __init__(self, model, goods=()):
        self.model, self.goods = model, set(goods)

    def add(self, g: int) -> None:
        self.goods.add(g)

    def remove(self, g: int) -> None:
        self.goods.remove(g)

    def __len__(self):
        return len(self.goods)

    @property
    def value(self) -> Fraction:
        return reference_value(self.model, self.goods)

    @property
    def min_drop(self) -> Fraction:
        return reference_min_drop(self.model, self.goods)

    @property
    def max_drop(self) -> Fraction:
        return reference_max_drop(self.model, self.goods)

    def gain(self, g: int) -> Fraction:
        return reference_value(self.model, self.goods | {g}) - self.value


def random_intervals(rng: random.Random, m: int, span: int = 20) -> IntervalSet:
    """Random integer-endpoint intervals; coincident endpoints are common on
    purpose, to exercise the tie perturbation."""
    raw = []
    for _ in range(m):
        l = rng.randint(0, span - 1)
        r = rng.randint(l + 1, span)
        raw.append((l, r))
    return IntervalSet(raw)


def random_tree_edges(rng: random.Random, nv: int):
    return [(rng.randrange(v), v) for v in range(1, nv)]


def neighbours(graph: ConflictGraph) -> tuple:
    """Each good's neighbours as a frozenset, built from ``graph.edges``
    alone, so that the reference checkers do not read the adjacency they
    check."""
    adj = [set() for _ in range(graph.m)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(map(frozenset, adj))


def random_wellformed_allocation(rng: random.Random, instance: Instance) -> Allocation:
    """Random wellformed (not necessarily maximal) allocation."""
    bundles = [set() for _ in range(instance.n)]
    adj = neighbours(instance.graph)
    for g in rng.sample(range(instance.m), instance.m):
        label = rng.randrange(instance.n + 1)
        if label and not (adj[g] & bundles[label - 1]):
            bundles[label - 1].add(g)
    return Allocation(bundles)


def random_maximal_allocation(rng: random.Random, instance: Instance) -> Allocation:
    """Random wellformed allocation greedily completed until maximal."""
    bundles = [set(b) for b in random_wellformed_allocation(rng, instance).bundles]
    assigned = set().union(*bundles) if bundles else set()
    adj = neighbours(instance.graph)
    while True:
        feasible = [
            (g, a)
            for g in range(instance.m)
            if g not in assigned
            for a in range(instance.n)
            if not (adj[g] & bundles[a])
        ]
        if not feasible:
            break
        g, a = rng.choice(feasible)
        bundles[a].add(g)
        assigned.add(g)
    allocation = Allocation(bundles)
    assert validate_allocation(instance, allocation).wellformed
    assert is_maximal(instance, allocation)
    return allocation


def all_maximal_independent_sets(graph: ConflictGraph):
    """Exhaustive maximal-independent-set listing for small graphs."""
    assert graph.m <= 16
    adj = neighbours(graph)
    out = []
    for mask in range(1 << graph.m):
        subset = frozenset(g for g in range(graph.m) if mask & (1 << g))
        if not is_independent_set(graph, subset):
            continue
        if any(
            g not in subset and not (adj[g] & subset) for g in range(graph.m)
        ):
            continue
        out.append(subset)
    return out


def backtracking_maximal_allocations(instance: Instance):
    """Independent recursive enumerator used to cross-check the oracle."""
    results = []
    bundles = [set() for _ in range(instance.n)]
    adj = neighbours(instance.graph)

    def place(g: int):
        if g == instance.m:
            allocation = Allocation(bundles)
            if is_maximal(instance, allocation):
                results.append(allocation)
            return
        place_unassigned_last = list(range(1, instance.n + 1)) + [0]
        for label in place_unassigned_last:
            if label == 0:
                place(g + 1)
            else:
                bundle = bundles[label - 1]
                if not (adj[g] & bundle):
                    bundle.add(g)
                    place(g + 1)
                    bundle.remove(g)

    place(0)
    return results


def product_maximal_allocations(instance: Instance):
    """Reference for the oracle's enumerator and its order: sweep all
    (n+1)^m labelings in mixed-radix order (good 0 most significant; label 0
    = unassigned, label a = agent a) and keep the maximal ones."""
    n, m = instance.n, instance.m
    adj_mask = [0] * m
    for u, w in instance.graph.edges:
        adj_mask[u] |= 1 << w
        adj_mask[w] |= 1 << u
    results = []
    for assignment in itertools.product(range(n + 1), repeat=m):
        bundle_mask = [0] * (n + 1)
        ok = True
        for g, label in enumerate(assignment):
            if label and adj_mask[g] & bundle_mask[label]:
                ok = False
                break
            bundle_mask[label] |= 1 << g
        if not ok:
            continue
        maximal = True
        for g, label in enumerate(assignment):
            if label:
                continue
            for a in range(1, n + 1):
                if not adj_mask[g] & bundle_mask[a]:
                    maximal = False
                    break
            if not maximal:
                break
        if maximal:
            results.append(
                Allocation([g for g in range(m) if assignment[g] == a + 1] for a in range(n))
            )
    return results


def independent_sets(graph: ConflictGraph):
    """All independent sets (including the empty one); small graphs only."""
    assert graph.m <= 20
    out = []
    for mask in range(1 << graph.m):
        subset = frozenset(g for g in range(graph.m) if mask & (1 << g))
        if is_independent_set(graph, subset):
            out.append(subset)
    return out


def max_independent_set_size(graph: ConflictGraph) -> int:
    return max(len(s) for s in independent_sets(graph))


def structured_maximal_allocations(spec, per_size_representatives: bool = True):
    """Certificate-shaped maximal allocations of a reduced instance: every
    base maximal allocation combined with per-agent independent-set picks
    from the agent's own copy (y-goods forced to the complement).

    The composed valuation sees a pick only through its size, so with
    ``per_size_representatives`` one independent set per size decides the
    same EF1-existence question as the full product enumeration.
    """
    all_sets = sorted(independent_sets(spec.is_instance.graph), key=lambda s: (len(s), sorted(s)))
    if per_size_representatives:
        by_size = {}
        for s in all_sets:
            by_size.setdefault(len(s), s)
        choices = [by_size[size] for size in sorted(by_size)]
    else:
        choices = all_sets
    for base_alloc in enumerate_maximal_allocations(spec.base):
        for picks in itertools.product(choices, repeat=spec.base.n):
            yield _assemble(spec, base_alloc.bundles, picks)


def canonical_relabeling(allocation: Allocation) -> Allocation:
    """The agent relabeling of ``allocation`` least in the oracle's sweep
    order: non-empty bundles ordered by their least good, then the empty
    ones."""
    filled = sorted((b for b in allocation.bundles if b), key=min)
    return Allocation(filled + [frozenset()] * (allocation.n - len(filled)))


# The definitional checkers' bodies before their set-operation rewrite, the
# references for the differential tests in test_core.

def reference_bundles(bundles) -> tuple:
    return tuple(frozenset(b) for b in bundles)


def reference_allocated(allocation: Allocation) -> frozenset:
    out = frozenset()
    for b in allocation.bundles:
        out |= b
    return out


def reference_is_independent_set(graph: ConflictGraph, subset) -> bool:
    s, adj = set(subset), neighbours(graph)
    for g in s:
        if adj[g] & s:
            return False
    return True


def reference_validate_allocation(instance: Instance, allocation: Allocation) -> ValidationReport:
    if allocation.n != instance.n:
        raise ValueError(f"allocation has {allocation.n} bundles, instance has {instance.n} agents")
    m = instance.m
    for b in allocation.bundles:
        for g in b:
            if not 0 <= g < m:
                raise ValueError(f"bundle references good {g} outside [0,{m})")
    total = sum(len(b) for b in allocation.bundles)
    disjoint = total == len(reference_allocated(allocation))
    independent = tuple(reference_is_independent_set(instance.graph, b) for b in allocation.bundles)
    return ValidationReport(disjoint, independent, disjoint and all(independent))


def reference_is_maximal(instance: Instance, allocation: Allocation) -> bool:
    adj = neighbours(instance.graph)
    for g in frozenset(range(instance.m)) - reference_allocated(allocation):
        for bundle in allocation.bundles:
            if not (adj[g] & bundle):
                return False
    return True


# The constructors' bodies before they moved to integers, the references for
# the differential tests in test_core and test_graph_classes.

def reference_conflict_graph(m: int, edges) -> tuple:
    """``ConflictGraph``'s edges and adjacency, normalized edge by edge with
    ``min`` and ``max``."""
    if m < 0:
        raise ValueError("good count must be non-negative")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on good {u}")
        if not (0 <= u < m and 0 <= v < m):
            raise ValueError(f"edge ({u},{v}) out of range [0,{m})")
        normalized.add((min(u, v), max(u, v)))
    adj = [set() for _ in range(m)]
    for u, v in normalized:
        adj[u].add(v)
        adj[v].add(u)
    return frozenset(normalized), tuple(frozenset(s) for s in adj)


def reference_additive_check(values, m: int, mode: str) -> None:
    """``Additive.check``, comparing each ``Fraction`` value with 0."""
    values = tuple(as_fraction(v) for v in values)
    if len(values) != m:
        raise ValueError(f"additive vector has length {len(values)}, expected {m}")
    if any(v < 0 if mode == GOODS else v > 0 for v in values):
        raise ValueError(f"additive values must be {'non-negative' if mode == GOODS else 'non-positive'} in {mode} mode")


def reference_interval_set(intervals) -> tuple:
    """``IntervalSet``'s ``intervals`` and ``keys``, from sorting the
    ``(x, side, g)`` events on the ``Fraction`` endpoints (side 0 is a right
    endpoint, so rights rank first at ties)."""
    parsed = []
    for l, r in intervals:
        l, r = as_fraction(l), as_fraction(r)
        if not l < r:
            raise ValueError(f"interval [{l},{r}) is empty")
        parsed.append((l, r))
    events = sorted((x, side, g) for g, (l, r) in enumerate(parsed) for side, x in ((1, l), (0, r)))
    keys = [[None, None] for _ in parsed]
    for rank, (_x, side, g) in enumerate(events):
        keys[g][1 - side] = rank
    return tuple(parsed), tuple((l, r) for l, r in keys)


def reference_interval_check(intervals: IntervalSet, graph: ConflictGraph) -> None:
    """``IntervalSet.check`` as it was when ``edges`` was stored: the two
    rank tests of each edge of ``graph.edges``, in that set's order, then
    the overlapping pairs counted from the left ranks against
    ``len(graph.edges)``."""
    keys, m = intervals.keys, len(intervals.keys)
    if m != graph.m:
        raise ValueError(f"{m} intervals for {graph.m} goods")
    for u, v in graph.edges:
        (lu, ru), (lv, rv) = keys[u], keys[v]
        if not (lu < rv and lv < ru):
            raise ValueError(f"intervals do not induce the graph: edge ({u},{v}) joins disjoint intervals")
    if m * (m - 1) - sum(l for l, _ in keys) != len(graph.edges):
        raise ValueError("intervals do not induce the graph: some overlapping pair is not an edge")


class ReferenceTable:
    """Reference for ``Table``: the construction it replaced, a dict of one
    ``Fraction`` per mask, with both monotonicity flags from every subset
    against each one-good extension, as integers over the common
    denominator."""

    def __init__(self, m: int, entries):
        table = {int(mask): Fraction(v) for mask, v in entries.items()}
        if len(table) != 1 << m or set(table) != set(range(1 << m)):
            raise ValueError(f"table must cover all {1 << m} subsets of {m} goods")
        if table[0] != 0:
            raise ValueError("table must assign value 0 to the empty set")
        self.m = m
        self.entries = table
        den = math.lcm(*(v.denominator for v in table.values()))
        nums = [table[mask].numerator * (den // table[mask].denominator) for mask in range(1 << m)]
        up = down = False
        for g in range(m):
            bit = 1 << g
            steps = [nums[mask | bit] - nums[mask] for mask in range(1 << m) if not mask & bit]
            up = up or max(steps) > 0
            down = down or min(steps) < 0
        self.nondecreasing = not down
        self.nonincreasing = not up

    def value(self, subset):
        return self.entries[sum(1 << g for g in subset)]

    def min_drop(self, subset):
        mask = sum(1 << g for g in subset)
        return min((self.entries[mask & ~(1 << g)] for g in subset), default=Fraction(0))

    def max_drop(self, subset):
        mask = sum(1 << g for g in subset)
        return max((self.entries[mask & ~(1 << g)] for g in subset), default=Fraction(0))

    def to_json(self) -> dict:
        return {"type": "table", "entries": [[str(mask), str(self.entries[mask])] for mask in sorted(self.entries)]}

    def __eq__(self, other):
        return self.m == other.m and self.entries == other.entries


def chain_positions(graph: ConflictGraph, source) -> tuple:
    """p(t) and q(t) for each good t with a neighbour in ``source``: the
    first and last 1-based position in ``source`` of such a neighbour."""
    p, q = {}, {}
    for t in range(graph.m):
        hits = [i for i, u in enumerate(source, 1) if u in graph.adj[t]]
        if hits:
            p[t], q[t] = hits[0], hits[-1]
    return p, q


def reference_side_sets(graph: ConflictGraph, source) -> tuple:
    """X_1 and X_2 chosen eagerly by sorting: each the greedy independent
    set over the goods with a neighbour in ``source``, X_1 in (q, t) order
    and X_2 in (-p, -t) order."""
    p, q = chain_positions(graph, tuple(source))
    sides = []
    for order in (sorted(p, key=lambda t: (q[t], t)), sorted(p, key=lambda t: (-p[t], -t))):
        side = set()
        for t in order:
            if side.isdisjoint(graph.adj[t]):
                side.add(t)
        sides.append(frozenset(side))
    return tuple(sides)


def chain_side_sets(chain) -> tuple:
    """(X_1, X_2) of ``chain``, read from its walk's ends: X_1 is bundle 1
    of the last step, X_2 bundle 2 of step 0."""
    *_, last = chain.steps
    return last[0], chain.steps.start[1]


def reference_swap_ef1(instance: Instance) -> tuple:
    """The escalation loop over ``chain_ef1``: each round builds the whole
    chain as a walk, scans it, and on failure seeds the next maximal
    independent set with the more valuable side set."""
    model = instance.identical_model
    source = most_valuable_source(instance)
    iterations = []
    while True:
        ordered = tuple(sorted(source))
        outcome = chain_ef1(instance, ordered)
        value = evaluate(model, source)
        if outcome.found:
            iterations.append(SwapIteration(ordered, value, None))
            return outcome.allocation, tuple(iterations)
        x1, x2 = chain_side_sets(outcome.chain)
        chosen = 1 if evaluate(model, x1) >= evaluate(model, x2) else 2
        iterations.append(SwapIteration(ordered, value, chosen))
        source = complete_to_maximal_is(instance.graph, x1 if chosen == 1 else x2)


def eager_chain_steps(graph: ConflictGraph, source, chain) -> list:
    """Reference for ``build_chain``'s walk over ``source``: every step
    A^(i) built from its definition, bundle 1 = s_{i+1..k} +
    {t in X_1 : q(t) <= i} and bundle 2 = s_{1..i} + {t in X_2 : p(t) > i},
    with p and q from ``chain_positions`` and X_1, X_2 from ``chain``'s ends."""
    s = tuple(source)
    p, q = chain_positions(graph, s)
    x1, x2 = chain_side_sets(chain)
    return [
        Allocation(
            [
                frozenset(s[i:]) | {t for t in x1 if q[t] <= i},
                frozenset(s[:i]) | {t for t in x2 if p[t] > i},
            ]
        )
        for i in range(len(s) + 1)
    ]


def is_ordered_adjacent(first: Allocation, second: Allocation) -> bool:
    """At most one good leaves bundle 1 and at most one enters bundle 2."""
    if first.n != 2 or second.n != 2:
        raise ValueError("ordered adjacency is defined for 2-agent allocations")
    return len(first[0] - second[0]) <= 1 and len(second[1] - first[1]) <= 1


def eager_splice(prefix_order, tail_order, fixed, fixed_side):
    """Reference for the interval splice walk: step i's moving bundle is
    prefix_order[:i] + tail_order[i:], beside the fixed bundle."""
    steps = []
    for i in range(len(tail_order) + 1):
        moving = frozenset(prefix_order[:i]) | frozenset(tail_order[i:])
        steps.append(Allocation((fixed, moving) if fixed_side == 0 else (moving, fixed)))
    return steps


def interval_junctions(chains) -> tuple:
    """The sets (Z_1, Z_2, X'_2, X'_1) at the ends of ``interval_chains``'
    segments: the narrowing starts at (Z_1, Z_2), the core at (Z_1, X'_2)
    and the widening at (X'_1, Z_1)."""
    z1, z2 = chains.narrowing.start
    return z1, z2, chains.core.start[1], chains.widening.start[0]


def eager_interval_segments(instance: Instance, intervals: IntervalSet, junctions):
    """Reference for ``interval_chains``: the three segments built step by
    step from the junction sets (Z_1, Z_2, X'_2, X'_1), and their
    concatenation, which drops a core or widening step equal to the step
    before it but keeps repeats inside the narrowing segment."""
    by_right = lambda g: intervals.keys[g][1]
    by_left = lambda g: intervals.keys[g][0]
    z1, z2, x2, x1 = junctions
    narrowing = eager_splice(sorted(x2, key=by_left, reverse=True), sorted(z2, key=by_left, reverse=True), z1, 0)
    source = sorted(z1, key=by_left)
    core = eager_chain_steps(instance.graph, source, build_chain(instance, source, x1=x1, x2=x2))
    widening = eager_splice(sorted(x1, key=by_right), sorted(z2, key=by_right), z1, 1)[::-1]
    combined = list(narrowing)
    for step in core + widening:
        if step != combined[-1]:
            combined.append(step)
    return narrowing, core, widening, combined


def without_repeats(steps) -> list:
    """``steps`` with each step equal to the one before it dropped."""
    return [step for i, step in enumerate(steps) if i == 0 or step != steps[i - 1]]


def slice_greedy(intervals: IntervalSet, subset=None, c: int = 1, direction: str = "forward") -> tuple:
    """Reference for ``interval_scheduling_greedy``: the same scans with an
    explicit coverage list, ``cover[p]`` counting the chosen intervals over
    the gap between endpoint ranks p and p+1, raised along each accepted
    interval's whole span."""
    keys = intervals.keys
    goods = range(len(keys)) if subset is None else set(subset)
    if direction == "forward":
        order = sorted(goods, key=lambda g: keys[g][1])
    else:
        order = sorted(goods, key=lambda g: keys[g][0], reverse=True)
    cover = [0] * (2 * len(keys))
    chosen = []
    for g in order:
        lo, hi = keys[g]
        if max(cover[lo:hi]) < c:
            cover[lo:hi] = [k + 1 for k in cover[lo:hi]]
            chosen.append(g)
    chosen.sort(key=lambda g: keys[g][1])
    return tuple(chosen)


def reference_two_color_pick(intervals: IntervalSet, chosen) -> tuple:
    """Reference for ``graph_classes._two_color_pick``: the pick sorted by
    left rank, each interval put in the first color of the list of colors
    whose latest interval ends by its left endpoint."""
    last = [-1, -1]
    sides = ([], [])
    for g in sorted(chosen, key=lambda g: intervals.keys[g][0]):
        l, r = intervals.keys[g]
        free = [i for i in range(2) if last[i] <= l]
        if not free:
            raise RuntimeError("pick covers a point three times; not a c=2 solution")
        sides[free[0]].append(g)
        last[free[0]] = max(last[free[0]], r)
    return sides


def reference_interval_ef1(instance: Instance, intervals: IntervalSet) -> tuple:
    """Reference for ``interval_ef1``: Z from ``slice_greedy`` at c=2, split
    by ``reference_two_color_pick``, the side worth more by ``evaluate`` as
    Z_1, grown by every Z_2 interval it does not overlap; X'_1 and X'_2 the
    forward and reverse ``slice_greedy`` picks of the rest; the segments
    built by ``eager_interval_segments``; and the first step of their
    concatenation that ``is_ef1`` accepts. Returns that step (None if none
    is) and the junction sets (Z_1, Z_2, X'_2, X'_1)."""
    model = instance.identical_model
    z1, z2 = reference_two_color_pick(intervals, slice_greedy(intervals, c=2))
    if evaluate(model, z1) < evaluate(model, z2):
        z1, z2 = z2, z1
    z1 = frozenset(z1) | {g for g in z2 if not any(intervals.overlaps(g, h) for h in z1)}
    rest = frozenset(range(instance.m)) - z1
    x1, x2 = (frozenset(slice_greedy(intervals, rest, 1, direction)) for direction in ("forward", "reverse"))
    junctions = (z1, frozenset(z2) - z1, x2, x1)
    *_, combined = eager_interval_segments(instance, intervals, junctions)
    return next((step for step in combined if is_ef1(instance, step)), None), junctions


def sweep_check(intervals: IntervalSet, graph: ConflictGraph) -> None:
    """Reference for ``IntervalSet.check``: one ``overlaps`` call per edge,
    then the overlapping pairs counted by a sweep that keeps the set of open
    goods and adds its size at each left endpoint."""
    if len(intervals) != graph.m:
        raise ValueError(f"{len(intervals)} intervals for {graph.m} goods")
    for u, v in graph.edges:
        if not intervals.overlaps(u, v):
            raise ValueError(f"intervals do not induce the graph: edge ({u},{v}) joins disjoint intervals")
    owner = [None] * (2 * len(intervals))
    for g, (l, r) in enumerate(intervals.keys):
        owner[l] = owner[r] = g
    open_goods, pairs = set(), 0
    for rank, g in enumerate(owner):
        if rank == intervals.keys[g][1]:
            open_goods.remove(g)
        else:
            pairs += len(open_goods)
            open_goods.add(g)
    if pairs != len(graph.edges):
        raise ValueError("intervals do not induce the graph: some overlapping pair is not an edge")


def brute_max_schedule_size(intervals: IntervalSet, subset, c: int) -> int:
    """Exhaustive maximum feasible pick size. Uses the 1-D Helly property:
    a point is covered more than c times iff some c+1 intervals pairwise
    overlap."""
    goods = sorted(subset)
    overlap_mask = {g: 0 for g in goods}
    for g in goods:
        for h in goods:
            if g != h and intervals.overlaps(g, h):
                overlap_mask[g] |= 1 << h
    best = 0
    for pick in range(1 << len(goods)):
        members = [g for i, g in enumerate(goods) if pick & (1 << i)]
        mask = 0
        for g in members:
            mask |= 1 << g
        if _schedule_feasible(members, mask, overlap_mask, c):
            best = max(best, len(members))
    return best


def _schedule_feasible(members, mask, overlap_mask, c: int) -> bool:
    if c == 1:
        return all(overlap_mask[g] & mask == 0 for g in members)
    if c == 2:
        for g in members:
            common = overlap_mask[g] & mask
            for h in members:
                if h > g and (common >> h) & 1:
                    if overlap_mask[h] & common & ~(1 << g) & ~(1 << h):
                        return False
        return True
    raise ValueError("brute force supports c in {1, 2}")


def schedule_feasible(intervals: IntervalSet, members, c: int) -> bool:
    """Direct feasibility check of a pick by sweeping its endpoint events."""
    events = []
    for g in members:
        l, r = intervals.keys[g]
        events.append((l, 1))
        events.append((r, -1))
    events.sort()
    cur = 0
    for _point, delta in events:
        cur += delta
        if cur > c:
            return False
    return True


# The tree coloring's merge as it kept classes in a color -> vertices dict
# and ranked each child's classes with a sort, the reference for the
# differential test in test_treecolor.

def dict_color_subtree(tree: RootedTree, u: int, n: int, colored: dict):
    """Classes (color -> vertices) and root color of the subtree at ``u``,
    merged from its children's in ``colored``."""
    children = tree.children[u]
    if not children:
        return {1: [u]}, 1

    reports = []
    for child in children:
        classes, root_color = colored.pop(child)
        ranked = sorted(classes, key=lambda c: (-len(classes[c]), c))  # largest first, stable
        top = len(classes[ranked[0]])
        higher = sum(1 for c in ranked if len(classes[c]) == top)
        singular = root_color is not None and higher == 1
        reports.append((singular, classes, root_color, ranked, higher))

    reports.sort(key=lambda rep: not rep[0])  # singular subtrees first, stable
    color_root = sum(rep[0] for rep in reports) < n
    moves = []
    offset = 0
    for _singular, classes, root_color, ranked, higher in reports:
        perm = {c: (rank + offset) % n + 1 for rank, c in enumerate(ranked)}
        offset = (offset + higher) % n
        if color_root and root_color is not None and perm[root_color] == n:
            # non-singular child: another equally large class exists to trade with
            trade = min((c for c in ranked[:higher] if c != root_color), key=perm.__getitem__)
            perm[root_color], perm[trade] = perm[trade], n
        moves.append((classes, perm))

    # reuse the largest child's lists, so each vertex moves O(log V) times
    base, base_perm = max(moves, key=lambda move: sum(map(len, move[0].values())))
    merged = {base_perm[c]: vertices for c, vertices in base.items()}
    for classes, perm in moves:
        if classes is not base:
            for c, vertices in classes.items():
                merged.setdefault(perm[c], []).extend(vertices)
    if not color_root:
        return merged, None
    merged.setdefault(n, []).append(u)
    return merged, n


def dict_tree_colors(tree: RootedTree, n: int) -> tuple:
    """Per-vertex colors (None = uncolored) from ``dict_color_subtree``."""
    colored = {}
    for u in reversed(tree.order):
        colored[u] = dict_color_subtree(tree, u, n, colored)
    color_of = {v: c for c, vertices in colored[tree.root][0].items() for v in vertices}
    return tuple(color_of.get(v) for v in range(tree.graph.m))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
