"""Negative instances and the independent-set reduction.

The reduction plants n mutually hostile copies of an IS instance next to a
constant-size base instance that has no maximal EF1 allocation: an agent
who falls behind on the base goods can catch up only by packing an
independent set of filler goods, each worth gamma/t, so EF1 becomes
achievable exactly when the IS instance has an independent set of size t.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple

from .core import (
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    Table,
    evaluate,
    is_independent_set,
    value_minus_one,
)
from .oracle import _gamma_and_allocation


def _three_agent_table() -> Table:
    value3 = {
        (1 << 1) | (1 << 6),
        (1 << 2) | (1 << 6),
        (1 << 4) | (1 << 6),
        (1 << 5) | (1 << 6),
    }
    entries = {}
    for mask in range(1 << 7):
        size = bin(mask).count("1")
        if size == 0:
            entries[mask] = 0
        elif size == 1:
            entries[mask] = 1 if mask in (1 << 0, 1 << 3) else 2
        elif mask in value3:
            entries[mask] = 3
        else:
            entries[mask] = 4
    return Table(7, entries)


def gen_counterexample(n: int) -> Instance:
    """Instance with identical valuations and no maximal EF1 allocation.

    n = 3: seven goods on K_{3,3} plus a degree-2 pendant, with a monotone
    table valuation. n >= 4: m = n+2 goods on K_{3,n-1} with additive values
    2 on the left triple and 3 on the right part.
    """
    if n < 3:
        raise ValueError("counterexamples exist only for n >= 3")
    if n == 3:
        edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)] + [(0, 6), (3, 6)]
        return Instance(ConflictGraph(7, edges), 3, _three_agent_table())
    m = n + 2
    edges = [(a, b) for a in (0, 1, 2) for b in range(3, m)]
    values = [2, 2, 2] + [3] * (n - 1)
    return Instance(ConflictGraph(m, edges), n, Additive(values))


class ISInstance:
    """Independent-set decision instance: graph H and target size t."""

    __slots__ = ("graph", "t")

    def __init__(self, graph: ConflictGraph, t: int):
        if not 1 <= t <= graph.m:
            raise ValueError(f"target size t={t} must lie in [1, {graph.m}]")
        self.graph = graph
        self.t = t

    def __repr__(self):
        return f"ISInstance(|V|={self.graph.m}, |E|={len(self.graph.edges)}, t={self.t})"


class GoodMap(NamedTuple):
    """Index ranges of the reduced instance: base goods first, then per
    copy i a block of x-goods followed by its y-goods: ``x[i][w]`` and
    ``y[i][w]`` are vertex w's goods in copy i."""

    base: range
    x: tuple
    y: tuple


class ReductionSpec(NamedTuple):
    """The reduction's parameters; ``gamma_allocation`` is the first base
    maximal allocation, in enumeration order, whose worst gap is gamma."""

    base: Instance
    is_instance: ISInstance
    gamma: Fraction
    lam: Fraction
    good_map: GoodMap
    gamma_allocation: Allocation


def build_reduction(base: Instance, is_instance: ISInstance) -> Tuple[Instance, ReductionSpec]:
    """Compose the base no-EF1 instance with n copies of the IS graph. The
    base must have identical goods valuations: gamma refuses any other."""
    # With identical monotone goods valuations, gamma <= 0 exactly when some
    # maximal allocation is EF1: a bundle's own term and an empty bundle's
    # term of the gap are never positive.
    gamma, gamma_allocation = _gamma_and_allocation(base)
    if gamma <= 0:
        raise ValueError("base instance admits a maximal EF1 allocation")
    lam = gamma / is_instance.t

    n, h, m_base = base.n, is_instance.graph.m, base.m
    # Copy i's x-goods, then its y-goods, in one block of 2h after the base.
    blocks = [range(m_base + 2 * h * i, m_base + 2 * h * (i + 1)) for i in range(n)]
    x_ranges, y_ranges = tuple(b[:h] for b in blocks), tuple(b[h:] for b in blocks)
    offset = m_base + 2 * h * n
    good_map = GoodMap(range(m_base), x_ranges, y_ranges)

    edges, is_edges = list(base.graph.edges), is_instance.graph.edges
    for x, y in zip(x_ranges, y_ranges):
        edges.extend((x[u], x[w]) for u, w in is_edges)
        edges.extend(zip(x, y))
    for i in range(n):
        for j in range(i + 1, n):
            edges.extend((a, b) for a in blocks[i] for b in blocks[j])
    graph = ConflictGraph(offset, edges)

    tail = [Fraction(0)] * offset
    for rng in x_ranges:
        for g in rng:
            tail[g] = lam
    base_model = base.identical_model
    if isinstance(base_model, Additive):
        model = Additive(list(base_model.values) + tail[m_base:])
    else:
        model = Composite(base_model, m_base, Additive(tail))
    instance = Instance(graph, n, model)
    return instance, ReductionSpec(base, is_instance, gamma, lam, good_map, gamma_allocation)


def _assemble(spec: ReductionSpec, base_bundles, picks: Iterable[Iterable[int]]) -> Allocation:
    """Attach copy i's x-goods for the picked vertices and the complementary
    y-goods to agent i's base bundle."""
    bundles = []
    for x, y, base_bundle, pick in zip(spec.good_map.x, spec.good_map.y, base_bundles, picks):
        pick = frozenset(pick)
        extra = {x[w] for w in pick} | {y[w] for w in range(len(y)) if w not in pick}
        bundles.append(frozenset(base_bundle) | extra)
    return Allocation(bundles)


def yes_certificate(spec: ReductionSpec, witness: Iterable[int]) -> Allocation:
    """Maximal EF1 allocation of the reduced instance from an independent
    set of size t in H."""
    witness = frozenset(witness)
    if len(witness) != spec.is_instance.t:
        raise ValueError(f"witness has size {len(witness)}, expected t={spec.is_instance.t}")
    if not is_independent_set(spec.is_instance.graph, witness):
        raise ValueError("witness is not an independent set of H")

    # Gamma's allocation, bundles reordered (stable) so agent 1 has the
    # largest one-removed value.
    model = spec.base.identical_model
    base_alloc = Allocation(sorted(spec.gamma_allocation.bundles, key=lambda b: -value_minus_one(model, b)))
    top = value_minus_one(model, base_alloc[0])
    ordered_witness = sorted(witness)
    picks = []
    for i in range(spec.base.n):
        gap = top - evaluate(model, base_alloc[i])
        c_i = max(0, math.ceil(gap / spec.lam))
        if c_i > spec.is_instance.t:
            raise RuntimeError("certificate needs more filler goods than the witness provides")
        picks.append(ordered_witness[:c_i])
    return _assemble(spec, base_alloc.bundles, picks)
