"""Polynomial solvers for special graph classes: bipartite graphs, interval
graphs, and the m <= n+1 round-robin procedure."""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .core import (
    GOODS,
    Allocation,
    ConflictGraph,
    Instance,
    Rational,
    _grow_independent,
    _most_valuable,
    _over_common_denominator,
    as_fraction,
)
from .chain import InapplicableError, Walk, build_chain, chain_ef1, _require_two_agent_identical_goods


class IntervalSet:
    """Half-open intervals [l, r), one per good, with exact endpoints.

    Equal endpoints are allowed on input; the algorithms run on ``keys``,
    the ranks 0..2m-1 of the 2m endpoints, which keep the overlap graph
    exactly (at a tie, right endpoints rank before left ones, matching
    half-open semantics; remaining ties break by good index).

    The ranks come from integers: each endpoint x is scaled to its numerator
    over the endpoints' common denominator (positive, so the order holds),
    and the endpoints are sorted stably on 2x+1 for a left and 2x for a
    right endpoint, listed as good 0's left and right, then good 1's. No
    ``Fraction`` is compared; ``intervals`` keeps exact endpoints, ints as ints.

    The same sort gives ``by_left`` and ``by_right``, the goods in order of
    their left and of their right ranks. No two ranks tie, so each equals any
    sort on that rank, whatever its tie-breaks; the solver reads them.
    """

    __slots__ = ("intervals", "keys", "by_left", "by_right")

    def __init__(self, intervals: Iterable[Sequence[Rational]]):
        ends = []
        for l, r in intervals:
            l = l if type(l) is int else as_fraction(l)
            r = r if type(r) is int else as_fraction(r)
            if l.numerator * r.denominator >= r.numerator * l.denominator:
                raise ValueError(f"interval [{l},{r}) is empty")
            ends += l, r
        self.intervals = tuple(zip(ends[0::2], ends[1::2]))
        nums, _ = _over_common_denominator(ends)
        doubled = [2 * x for x in nums]
        doubled[0::2] = [x + 1 for x in doubled[0::2]]
        ranks = [0] * len(ends)
        order = sorted(range(len(ends)), key=doubled.__getitem__)
        for rank, end in enumerate(order):
            ranks[end] = rank
        self.keys = tuple(zip(ranks[0::2], ranks[1::2]))
        self.by_left = tuple(end >> 1 for end in order if not end & 1)
        self.by_right = tuple(end >> 1 for end in order if end & 1)

    def __len__(self):
        return len(self.intervals)

    def overlaps(self, i: int, j: int) -> bool:
        li, ri = self.keys[i]
        lj, rj = self.keys[j]
        return li < rj and lj < ri

    def induced_graph(self) -> ConflictGraph:
        """The overlap graph, from one sweep over the ranked endpoints: each
        interval overlaps every interval still open at its left endpoint."""
        owner = [None] * (2 * len(self.keys))
        for g, (l, r) in enumerate(self.keys):
            owner[l] = owner[r] = g
        open_goods, edges = set(), []
        for rank, g in enumerate(owner):
            if rank == self.keys[g][1]:
                open_goods.remove(g)
            else:
                edges.extend((g, h) for h in open_goods)
                open_goods.add(g)
        return ConflictGraph(len(self.keys), edges)

    def check(self, graph: ConflictGraph) -> None:
        """Raise ValueError unless these intervals induce ``graph``: one
        interval per good, every edge an overlap, and as many overlapping
        pairs as edges, so that the edges are exactly the overlaps.
        O(m + |E|); allocates no graph."""
        keys, m = self.keys, len(self.keys)
        if m != graph.m:
            raise ValueError(f"{m} intervals for {graph.m} goods")
        # u's list proves l_v < r_u for each neighbour v, and v's list l_u < r_v.
        lefts = [l for l, _ in keys]
        for (_, r), nbrs in zip(keys, graph.adj):
            for v in nbrs:
                if lefts[v] > r:
                    u, v = next((u, v) for u, v in graph.edges if not self.overlaps(u, v))
                    raise ValueError(f"intervals do not induce the graph: edge ({u},{v}) joins disjoint intervals")
        # The i-th left endpoint in rank order, at rank x, has i lefts and
        # x - i rights before it, so 2i - x intervals open: it overlaps that
        # many earlier-starting ones. Summed over i: m(m-1) - sum of lefts.
        if m * (m - 1) - sum(lefts) != sum(map(len, graph.adj)) // 2:
            raise ValueError("intervals do not induce the graph: some overlapping pair is not an edge")


def interval_scheduling_greedy(
    intervals: IntervalSet,
    subset: Optional[Iterable[int]] = None,
    c: int = 1,
    direction: str = "forward",
) -> tuple:
    """Maximum-size subset covering no point more than ``c`` times, in
    ascending order of right endpoint.

    Forward scans ``by_right``; reverse is the same scan on mirrored ranks
    (x -> 2m-1-x), that is ``by_left`` backwards, and sorts its pick back
    into right-endpoint order. Every interval chosen so far ends before the
    candidate [lo, hi), so ``reach[k]``, one past the last gap covered at
    least k+1 times, decides it: the candidate fits iff ``reach[c-1] <= lo``.
    One call costs O(m) plus O(c) per candidate.
    """
    if c < 1:
        raise ValueError("capacity must be at least 1")
    keys = intervals.keys
    m = len(keys)
    if direction == "forward":
        order, spans = intervals.by_right, keys
    elif direction == "reverse":
        order, spans = intervals.by_left[::-1], [(2 * m - 1 - r, 2 * m - 1 - l) for l, r in keys]
    else:
        raise ValueError("direction must be 'forward' or 'reverse'")
    if subset is not None:
        goods = set(subset)
        order = [g for g in order if g in goods]
        if len(order) < len(goods):
            outside = next(g for g in goods if g not in range(m))
            raise ValueError(f"good {outside} is outside [0,{m})")
    reach = [0] * c
    chosen = []
    for g in order:
        lo, hi = spans[g]
        if reach[-1] <= lo:
            for k in range(c - 1, 0, -1):
                if reach[k - 1] > lo:
                    reach[k] = reach[k - 1]
            reach[0] = hi
            chosen.append(g)
    if direction == "reverse":
        chosen.sort(key=lambda g: keys[g][1])
    return tuple(chosen)


class IntervalChains(NamedTuple):
    """The three chain segments of the interval solver and their gapless
    concatenation, all as walks whose steps are built on demand. No walk
    holds a step equal to the one before it."""

    narrowing: Walk  # (Z1, Z2) -> (Z1, X'2)
    core: Walk  # (Z1, X'2) -> (X'1, Z1), the maximal-IS chain
    widening: Walk  # (X'1, Z1) -> (Z2, Z1)
    combined: Walk


def _two_color_pick(intervals: IntervalSet, chosen) -> Tuple[list, list]:
    """Proper 2-coloring of a capacity-2-feasible pick, scanning ``by_left``
    for its members; each color class comes out in left-endpoint order. At
    each interval at most one color is blocked (a third overlapping interval
    would cover its left endpoint three times), so two colors always
    suffice; the first free one is taken. With no nested intervals this
    reproduces the odd/even alternation along the right-endpoint order.
    """
    keys, chosen = intervals.keys, set(chosen)
    last = [-1, -1]  # per color, the right-endpoint rank of its latest interval
    sides = ([], [])
    for g in intervals.by_left:
        if g in chosen:
            l, r = keys[g]
            color = 0 if last[0] <= l else 1
            if last[color] > l:
                raise RuntimeError("pick covers a point three times; not a c=2 solution")
            sides[color].append(g)
            last[color] = r
    return sides


def _splice_walk(prefix_order, tail_order, fixed: frozenset, fixed_side: int) -> Walk:
    """Allocations obtained by replacing ever-longer greedy prefixes of an
    optimal solution, per the prefix-splice argument: step i's moving
    bundle is prefix_order[:i] + tail_order[i:]. Both orders must list the
    same-size solutions in scan order. A good joins or leaves only when its
    count over the two parts crosses zero, and a step equal to the one
    before it is dropped."""
    count = dict.fromkeys(tail_order, 1)
    moves = []
    for joining, leaving in zip(prefix_order, tail_order):
        if joining == leaving:
            continue
        count[joining] = count.get(joining, 0) + 1
        count[leaving] -= 1
        ins = (joining,) if count[joining] == 1 else ()
        outs = (leaving,) if count[leaving] == 0 else ()
        if ins or outs:
            moves.append((outs, ins, (), ()) if fixed_side == 1 else ((), (), outs, ins))
    moving = frozenset(tail_order)
    return Walk((fixed, moving) if fixed_side == 0 else (moving, fixed), tuple(moves))


def interval_chains(instance: Instance, intervals: Optional[IntervalSet]) -> IntervalChains:
    """Build the interval solver's three chain segments and their
    concatenation as walks; no allocation is materialized. Without
    intervals, raises ``InapplicableError``."""
    model = _require_two_agent_identical_goods(instance)
    if intervals is None:
        raise InapplicableError("instance file has no intervals")
    intervals.check(instance.graph)

    # Every set below except ``z`` is independent, and disjoint half-open
    # intervals have the same left and right order, so each list is already
    # in the scan order its splice or chain needs.
    z = interval_scheduling_greedy(intervals, c=2)
    z1, z2 = _two_color_pick(intervals, z)
    if model._bundle(z1).value < model._bundle(z2).value:
        z1, z2 = z2, z1
    z1 = _grow_independent(instance.graph, z1, z2)
    z2 = [g for g in z2 if g not in z1]

    rest = frozenset(range(instance.m)) - z1
    x1 = interval_scheduling_greedy(intervals, rest, c=1, direction="forward")
    x2 = interval_scheduling_greedy(intervals, rest, c=1, direction="reverse")
    if not (len(x1) == len(x2) == len(z2)):
        raise RuntimeError("one-side greedy solutions must match |Z_2|; optimality violated")

    # Bundle 1 fixed at Z_1; bundle 2 morphs Z_2 -> X'_2 along the mirrored
    # (decreasing left endpoint) scan order.
    narrowing = _splice_walk(x2[::-1], z2[::-1], z1, fixed_side=0)
    core = build_chain(instance, [g for g in z if g in z1], x1=frozenset(x1), x2=frozenset(x2)).steps
    # Bundle 2 fixed at Z_1; bundle 1 morphs X'_1 -> Z_2 against the forward
    # (increasing right endpoint) scan order: the splice of X'_1 into Z_2
    # in that order, walked backwards, which is the splice of Z_2 into X'_1
    # in the reverse order.
    widening = _splice_walk(z2[::-1], x1[::-1], z1, fixed_side=1)
    return IntervalChains(narrowing, core, widening, narrowing.then(core.then(widening)))


def interval_ef1(instance: Instance, intervals: Optional[IntervalSet]) -> Allocation:
    """Maximal EF1 allocation for an interval graph via the concatenated
    gapless chain; some member is always EF1."""
    _, allocation = interval_chains(instance, intervals).combined.first_ef1(instance.identical_model)
    if allocation is None:
        raise RuntimeError("gapless chain contained no EF1 step; invariant violated")
    return allocation


def bipartition(graph: ConflictGraph) -> Tuple[frozenset, frozenset]:
    """2-color the graph by breadth-first search (isolated vertices go to
    side 0); raises ``InapplicableError`` if an odd cycle exists."""
    color = [None] * graph.m
    for root in range(graph.m):
        if color[root] is not None:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.adj[u]:
                if color[w] is None:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise InapplicableError("graph is not bipartite")
    side0 = frozenset(g for g in range(graph.m) if color[g] == 0)
    return side0, frozenset(range(graph.m)) - side0


def is_bipartite(graph: ConflictGraph) -> bool:
    try:
        bipartition(graph)
        return True
    except InapplicableError:
        return False


def bipartite_ef1(instance: Instance) -> Allocation:
    """Maximal EF1 allocation on a bipartite graph: run the chain with the
    heavier part (holding all isolated vertices) as the maximal set."""
    model = _require_two_agent_identical_goods(instance)
    graph = instance.graph
    isolated = frozenset(g for g in range(graph.m) if not graph.adj[g])
    side0, side1 = bipartition(graph)
    side0 -= isolated
    if model._bundle(side0).value < model._bundle(side1).value:
        side0, side1 = side1, side0
    outcome = chain_ef1(instance, sorted(side0 | isolated))
    if not outcome.found:
        raise RuntimeError("bipartite chain contained no EF1 step; invariant violated")
    return outcome.allocation


def round_robin_small(instance: Instance) -> Allocation:
    """Maximal EF1 allocation for m <= n+1. Goods: one round-robin cycle, then
    the leftover good goes to the first agent it fits. Chores: one each in
    index order, but with m = n+1 the first agent whose least-bad chore f has
    a non-neighbour y takes {f, y}; if none has, agent 1's f conflicts with
    every other chore and stays unassigned."""
    if instance.m > instance.n + 1:
        raise InapplicableError(f"round robin needs m <= n+1, got m={instance.m}, n={instance.n}")
    bundles = [set() for _ in range(instance.n)]
    if instance.mode != GOODS:
        rest = list(range(instance.m))
        if instance.m == instance.n + 1:
            for agent in range(instance.n):
                f = _most_valuable(instance.models[agent], rest)
                y = min(set(rest).difference(instance.graph.adj[f], (f,)), default=None)
                if y is not None:
                    bundles[agent] = {f, y}
                    rest.remove(y)
                    break
            else:
                f = _most_valuable(instance.models[0], rest)
            rest.remove(f)
        for bundle, chore in zip([b for b in bundles if not b], rest):
            bundle.add(chore)
        return Allocation(bundles)
    remaining = set(range(instance.m))
    for agent in range(min(instance.n, instance.m)):
        pick = _most_valuable(instance.models[agent], remaining)
        bundles[agent].add(pick)
        remaining.remove(pick)
    if remaining:
        leftover = remaining.pop()
        for agent in range(instance.n):
            if bundles[agent].isdisjoint(instance.graph.adj[leftover]):
                bundles[agent].add(leftover)
                break
    return Allocation(bundles)
