"""Shared generators and independent brute-force oracles for the suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from conflictfair import (
    Additive,
    Allocation,
    ConflictGraph,
    Instance,
    IntervalSet,
    Table,
    build_chain,
    is_independent_set,
    is_maximal,
    swap_ef1,
    validate_allocation,
)


def swap_solver(instance: Instance) -> Allocation:
    """The swap solver's allocation, as ``cut_and_choose`` takes it."""
    return swap_ef1(instance)[0]


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


def random_wellformed_allocation(rng: random.Random, instance: Instance) -> Allocation:
    """Random wellformed (not necessarily maximal) allocation."""
    bundles = [set() for _ in range(instance.n)]
    for g in rng.sample(range(instance.m), instance.m):
        label = rng.randrange(instance.n + 1)
        if label and not (instance.graph.adj[g] & bundles[label - 1]):
            bundles[label - 1].add(g)
    return Allocation(bundles)


def random_maximal_allocation(rng: random.Random, instance: Instance) -> Allocation:
    """Random wellformed allocation greedily completed until maximal."""
    bundles = [set(b) for b in random_wellformed_allocation(rng, instance).bundles]
    assigned = set().union(*bundles) if bundles else set()
    while True:
        feasible = [
            (g, a)
            for g in range(instance.m)
            if g not in assigned
            for a in range(instance.n)
            if not (instance.graph.adj[g] & bundles[a])
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
    out = []
    for mask in range(1 << graph.m):
        subset = frozenset(g for g in range(graph.m) if mask & (1 << g))
        if not is_independent_set(graph, subset):
            continue
        if any(
            g not in subset and not (graph.adj[g] & subset) for g in range(graph.m)
        ):
            continue
        out.append(subset)
    return out


def backtracking_maximal_allocations(instance: Instance):
    """Independent recursive enumerator used to cross-check the oracle."""
    results = []
    bundles = [set() for _ in range(instance.n)]

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
                if not (instance.graph.adj[g] & bundle):
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


def eager_chain_steps(chain) -> list:
    """Reference for ``build_chain``'s walk: every step A^(i) built from its
    definition, bundle 1 = s_{i+1..k} + {t in X_1 : q(t) <= i} and
    bundle 2 = s_{1..i} + {t in X_2 : p(t) > i}."""
    s = chain.source
    return [
        Allocation(
            [
                frozenset(s[i:]) | {t for t in chain.x1 if chain.q[t] <= i},
                frozenset(s[:i]) | {t for t in chain.x2 if chain.p[t] > i},
            ]
        )
        for i in range(len(s) + 1)
    ]


def eager_splice(prefix_order, tail_order, fixed, fixed_side):
    """Reference for the interval splice walk: step i's moving bundle is
    prefix_order[:i] + tail_order[i:], beside the fixed bundle."""
    steps = []
    for i in range(len(tail_order) + 1):
        moving = frozenset(prefix_order[:i]) | frozenset(tail_order[i:])
        steps.append(Allocation((fixed, moving) if fixed_side == 0 else (moving, fixed)))
    return steps


def eager_interval_segments(instance: Instance, intervals: IntervalSet, chains):
    """Reference for ``interval_chains``: the three segments built step by
    step from the sets at the walks' junctions, and their concatenation,
    which drops a core or widening step equal to the step before it but
    keeps repeats inside the narrowing segment."""
    by_right = lambda g: intervals.keys[g][1]
    by_left = lambda g: intervals.keys[g][0]
    z1, z2 = chains.narrowing.start
    x2 = chains.core.start[1]
    x1 = chains.widening.start[0]
    narrowing = eager_splice(sorted(x2, key=by_left, reverse=True), sorted(z2, key=by_left, reverse=True), z1, 0)
    core = eager_chain_steps(build_chain(instance, sorted(z1, key=by_left), x1=x1, x2=x2))
    widening = eager_splice(sorted(x1, key=by_right), sorted(z2, key=by_right), z1, 1)[::-1]
    combined = list(narrowing)
    for step in core + widening:
        if step != combined[-1]:
            combined.append(step)
    return narrowing, core, widening, combined


def without_repeats(steps) -> list:
    """``steps`` with each step equal to the one before it dropped."""
    return [step for i, step in enumerate(steps) if i == 0 or step != steps[i - 1]]


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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
