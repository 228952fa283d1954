"""Exact-arithmetic domain types and definitional checkers.

All values are :class:`fractions.Fraction`; there is no floating point
anywhere in this package, since every fairness test reduces to an exact
sign comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import gt, lt
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]

GOODS = "goods"
CHORES = "chores"

TABLE_MAX_GOODS = 20


def as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _over_common_denominator(values: Sequence[Fraction]) -> tuple:
    """The values' integer numerators over their least common denominator,
    and that denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class ConflictGraph:
    """Undirected graph over goods 0..m-1; an edge forbids both endpoints
    in one bundle."""

    __slots__ = ("m", "edges", "adj")

    def __init__(self, m: int, edges: Iterable[Sequence[int]] = ()):
        if m < 0:
            raise ValueError("good count must be non-negative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on good {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u},{v}) out of range [0,{m})")
            normalized.add((min(u, v), max(u, v)))
        self.m = m
        self.edges = frozenset(normalized)
        adj = [set() for _ in range(m)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)

    def __eq__(self, other):
        return (
            isinstance(other, ConflictGraph)
            and self.m == other.m
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.m, self.edges))

    def __repr__(self):
        return f"ConflictGraph(m={self.m}, edges={sorted(self.edges)})"


class ValuationModel:
    """Base for the valuation family; subclasses implement ``value``,
    ``check`` and ``to_json``, and may replace ``min_drop`` and ``max_drop``
    with exact closed forms."""

    def value(self, subset: frozenset) -> Fraction:
        raise NotImplementedError

    def min_drop(self, subset: frozenset) -> Fraction:
        """min over g in subset of v(subset - {g}); 0 for the empty set."""
        if not subset:
            return Fraction(0)
        return min(self.value(subset - {g}) for g in subset)

    def max_drop(self, subset: frozenset) -> Fraction:
        """max over g in subset of v(subset - {g}); 0 for the empty set."""
        if not subset:
            return Fraction(0)
        return max(self.value(subset - {g}) for g in subset)

    def _bundle(self, goods: Iterable[int] = ()) -> "_Bundle":
        """A running bundle over this model, holding ``goods``."""
        return _Bundle(self, goods)

    def check(self, m: int, mode: str) -> None:
        """Raise ValueError unless this is a valuation over ``m`` goods,
        monotone non-decreasing in goods mode and non-increasing in chores
        mode, with v({}) = 0."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """Instance-file form; rationals are strings."""
        raise NotImplementedError


class _Bundle:
    """A bundle that goods join and leave one at a time, with its value, its
    drops and the gain of one more good under one model. Values are exact
    and compare only with bundles of the same model. This default
    recomputes each from the goods through the model's definitional
    methods."""

    __slots__ = ("model", "goods")

    def __init__(self, model: ValuationModel, goods: Iterable[int]):
        self.model = model
        self.goods = set(goods)

    def add(self, g: int) -> None:
        self.goods.add(g)

    def remove(self, g: int) -> None:
        self.goods.remove(g)

    def __len__(self):
        return len(self.goods)

    @property
    def value(self):
        return self.model.value(frozenset(self.goods))

    @property
    def min_drop(self):
        return self.model.min_drop(frozenset(self.goods))

    @property
    def max_drop(self):
        return self.model.max_drop(frozenset(self.goods))

    def gain(self, g: int):
        return self.model.value(frozenset(self.goods | {g})) - self.value


class _AdditiveBundle:
    """Running integer sum of the members' numerators (over the model's
    ``den``). The largest and smallest member come from heaps built on
    first use; a removed good stays in a heap until it reaches the top."""

    __slots__ = ("nums", "goods", "value", "heaps")

    def __init__(self, nums: tuple, goods: Iterable[int]):
        self.nums = nums
        self.goods = set(goods)
        self.value = sum(nums[g] for g in self.goods)
        self.heaps = {}  # sign -> heap of (sign * numerator, good)

    def add(self, g: int) -> None:
        if g not in self.goods:
            x = self.nums[g]
            self.goods.add(g)
            self.value += x
            for sign, heap in self.heaps.items():
                heappush(heap, (sign * x, g))

    def remove(self, g: int) -> None:
        self.goods.remove(g)
        self.value -= self.nums[g]

    def __len__(self):
        return len(self.goods)

    def _top(self, sign: int) -> int:
        """The least of sign * numerator over the members."""
        heap = self.heaps.get(sign)
        if heap is None:
            heap = self.heaps[sign] = [(sign * self.nums[g], g) for g in self.goods]
            heapify(heap)
        while heap[0][1] not in self.goods:
            heappop(heap)
        return heap[0][0]

    @property
    def min_drop(self):
        return self.value + self._top(-1) if self.goods else 0

    @property
    def max_drop(self):
        return self.value - self._top(1) if self.goods else 0

    def gain(self, g: int):
        return 0 if g in self.goods else self.nums[g]


class _NegatedBundle:
    """The inner model's running bundle with its values negated, so its
    two drops trade places; goods join and leave the inner bundle itself."""

    __slots__ = ("inner", "add", "remove")

    def __init__(self, inner):
        self.inner, self.add, self.remove = inner, inner.add, inner.remove

    def __len__(self):
        return len(self.inner)

    @property
    def value(self):
        return -self.inner.value

    @property
    def min_drop(self):
        return -self.inner.max_drop

    @property
    def max_drop(self):
        return -self.inner.min_drop

    def gain(self, g: int):
        return -self.inner.gain(g)


@dataclass(frozen=True)
class Additive(ValuationModel):
    """v(S) = sum of fixed per-good values.

    ``values`` define the model (equality, hash, repr, file form); the sums
    run on ``nums``, the values' numerators over their common denominator
    ``den``, so a sum is exact integer arithmetic and one division.
    """

    values: tuple
    nums: tuple = field(compare=False, repr=False)
    den: int = field(compare=False, repr=False)

    def __init__(self, values: Iterable[Rational]):
        values = tuple(as_fraction(v) for v in values)
        nums, den = _over_common_denominator(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _numerators(self, subset: frozenset) -> list:
        nums = self.nums
        # Checked up front: a negative index would silently wrap.
        if subset and not (min(subset) >= 0 and max(subset) < len(nums)):
            bad = next(g for g in subset if not 0 <= g < len(nums))
            raise ValueError(f"good {bad} outside additive vector of length {len(nums)}")
        return [nums[g] for g in subset]

    def value(self, subset: frozenset) -> Fraction:
        return Fraction(sum(self._numerators(subset)), self.den)

    def min_drop(self, subset: frozenset) -> Fraction:
        """v(S) minus the largest value in S."""
        if not subset:
            return Fraction(0)
        picked = self._numerators(subset)
        return Fraction(sum(picked) - max(picked), self.den)

    def max_drop(self, subset: frozenset) -> Fraction:
        """v(S) minus the smallest value in S."""
        if not subset:
            return Fraction(0)
        picked = self._numerators(subset)
        return Fraction(sum(picked) - min(picked), self.den)

    def _bundle(self, goods: Iterable[int] = ()) -> _AdditiveBundle:
        return _AdditiveBundle(self.nums, goods)

    def check(self, m: int, mode: str) -> None:
        if len(self.values) != m:
            raise ValueError(f"additive vector has length {len(self.values)}, expected {m}")
        if any(v < 0 if mode == GOODS else v > 0 for v in self.values):
            raise ValueError(f"additive values must be {'non-negative' if mode == GOODS else 'non-positive'} in {mode} mode")

    def to_json(self) -> dict:
        return {"type": "additive", "values": [str(v) for v in self.values]}


@dataclass(frozen=True)
class Uniform(ValuationModel):
    """v(S) = |S|."""

    def value(self, subset: frozenset) -> Fraction:
        return Fraction(len(subset))

    def check(self, m: int, mode: str) -> None:
        if mode == CHORES:
            raise ValueError("uniform valuation is monotone non-decreasing; negate it for chores")

    def to_json(self) -> dict:
        return {"type": "uniform"}


class Table(ValuationModel):
    """Explicit oracle over all 2^m subsets, keyed by bitmask (bit g = good g).

    Values are integer numerators ``nums``, indexed by mask, over one
    denominator ``den`` (1 when all are ints), as in :class:`Additive`. The
    table must be total and assign the empty set value 0. Both monotonicity
    directions are scanned once, here, for ``check``, comparing slices of
    ``nums`` so that the pairs are compared in C, not one by one in Python.
    """

    __slots__ = ("m", "nums", "den", "nondecreasing", "nonincreasing")

    def __init__(self, m: int, entries: Mapping[int, Rational]):
        if m > TABLE_MAX_GOODS:
            raise ValueError(f"table valuations support at most {TABLE_MAX_GOODS} goods, got {m}")
        if m < 0:
            raise ValueError("good count must be non-negative")
        size = 1 << m
        if len(entries) != size or not all(map(entries.__contains__, range(size))):
            raise ValueError(f"table must cover all {size} subsets of {m} goods")
        values = list(map(entries.__getitem__, range(size)))
        if set(map(type, values)) == {int}:
            nums, den = tuple(values), 1
        else:
            nums, den = _over_common_denominator([as_fraction(v) for v in values])
        if nums[0] != 0:
            raise ValueError("table must assign value 0 to the empty set")
        self.m, self.nums, self.den = m, nums, den
        # The masks without bit g are j + k*2b with b = 2^g and j < b:
        # compare strided slices (one per j) while b is small and contiguous
        # blocks (one per k) once it is large, about 2 * 2^(m/2) pairs in all.
        up = down = False
        for g in range(m):
            b = 1 << g
            if 2 * b * b <= size:
                pairs = ((nums[j::2 * b], nums[j + b::2 * b]) for j in range(b))
            else:
                pairs = ((nums[k:k + b], nums[k + b:k + 2 * b]) for k in range(0, size, 2 * b))
            for lo, hi in pairs:
                up = up or any(map(lt, lo, hi))
                down = down or any(map(gt, lo, hi))
        self.nondecreasing = not down
        self.nonincreasing = not up

    @property
    def entries(self) -> dict:
        """Each mask's value, as a ``Fraction``."""
        den = self.den
        return {mask: Fraction(num, den) for mask, num in enumerate(self.nums)}

    def _mask(self, subset: frozenset) -> int:
        mask = 0
        for g in subset:
            mask |= 1 << g
        if mask >> self.m:
            raise ValueError(f"table model is missing subset mask {mask}")
        return mask

    def value(self, subset: frozenset) -> Fraction:
        return Fraction(self.nums[self._mask(subset)], self.den)

    # The table is total, so every sub-mask of a present mask is present.
    def min_drop(self, subset: frozenset) -> Fraction:
        if not subset:
            return Fraction(0)
        mask, nums = self._mask(subset), self.nums
        return Fraction(min(nums[mask & ~(1 << g)] for g in subset), self.den)

    def max_drop(self, subset: frozenset) -> Fraction:
        if not subset:
            return Fraction(0)
        mask, nums = self._mask(subset), self.nums
        return Fraction(max(nums[mask & ~(1 << g)] for g in subset), self.den)

    def check(self, m: int, mode: str) -> None:
        if self.m != m:
            raise ValueError(f"table is over {self.m} goods, expected {m}")
        if mode == GOODS and not self.nondecreasing:
            raise ValueError("table is not monotone non-decreasing")
        if mode == CHORES and not self.nonincreasing:
            raise ValueError("table is not monotone non-increasing")

    def to_json(self) -> dict:
        return {"type": "table", "entries": [[str(mask), str(v)] for mask, v in self.entries.items()]}

    def __eq__(self, other):
        return isinstance(other, Table) and (self.m, self.nums, self.den) == (other.m, other.nums, other.den)

    def __repr__(self):
        return f"Table(m={self.m})"


@dataclass(frozen=True)
class Negated(ValuationModel):
    """v(S) = -inner(S); maps goods models to chores models and back."""

    inner: ValuationModel

    def value(self, subset: frozenset) -> Fraction:
        return -self.inner.value(subset)

    def min_drop(self, subset: frozenset) -> Fraction:
        return -self.inner.max_drop(subset)

    def max_drop(self, subset: frozenset) -> Fraction:
        return -self.inner.min_drop(subset)

    def _bundle(self, goods: Iterable[int] = ()) -> _NegatedBundle:
        return _NegatedBundle(self.inner._bundle(goods))

    def check(self, m: int, mode: str) -> None:
        self.inner.check(m, CHORES if mode == GOODS else GOODS)

    def to_json(self) -> dict:
        return {"type": "negated", "inner": self.inner.to_json()}


@dataclass(frozen=True)
class Composite(ValuationModel):
    """v(S) = base(S intersected with goods 0..base_goods-1) + tail(S), the
    tail being additive over all goods.

    Embeds a model over a good prefix into a larger good universe; the
    hardness reduction builds it for non-additive bases, whose composed
    valuation ignores filler goods except for their additive tail.
    """

    base: ValuationModel
    base_goods: int
    tail: Additive

    def value(self, subset: frozenset) -> Fraction:
        return self.base.value(frozenset(g for g in subset if g < self.base_goods)) + self.tail.value(subset)

    def check(self, m: int, mode: str) -> None:
        if not 0 <= self.base_goods <= m:
            raise ValueError("composite base goods out of range")
        self.base.check(self.base_goods, mode)
        self.tail.check(m, mode)

    def to_json(self) -> dict:
        return {
            "type": "composite",
            "baseGoods": self.base_goods,
            "base": self.base.to_json(),
            "tail": self.tail.to_json()["values"],
        }


class Instance:
    """A fair-division instance: conflict graph, agents, valuations, mode.

    ``valuations`` is either a single model (identical for all agents) or a
    sequence of one model per agent.
    """

    __slots__ = ("graph", "n", "mode", "identical", "models")

    def __init__(
        self,
        graph: ConflictGraph,
        agents: int,
        valuations: Union[ValuationModel, Sequence[ValuationModel]],
        mode: str = GOODS,
    ):
        if agents < 1:
            raise ValueError("need at least one agent")
        if mode not in (GOODS, CHORES):
            raise ValueError(f"mode must be '{GOODS}' or '{CHORES}'")
        if isinstance(valuations, ValuationModel):
            identical = True
            models = (valuations,) * agents
        else:
            models = tuple(valuations)
            if len(models) != agents:
                raise ValueError(f"expected {agents} models, got {len(models)}")
            identical = all(v is models[0] or v == models[0] for v in models)
        for model in {id(v): v for v in models}.values():
            model.check(graph.m, mode)
        self.graph = graph
        self.n = agents
        self.mode = mode
        self.identical = identical
        self.models = models

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def identical_model(self) -> ValuationModel:
        if not self.identical:
            raise ValueError("instance does not have identical valuations")
        return self.models[0]

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.graph == other.graph
            and self.n == other.n
            and self.mode == other.mode
            and self.identical == other.identical
            and self.models == other.models
        )

    def __repr__(self):
        kind = "identical" if self.identical else "per-agent"
        return f"Instance(n={self.n}, m={self.m}, {kind}, mode={self.mode})"


def to_goods(instance: Instance) -> Instance:
    """Goods-mode twin of a chores instance, each model wrapped in
    ``Negated``; goods instances come back unchanged. For identical
    valuations an allocation is EF1 for chores under v exactly when it is
    EF1 for goods under -v, which is how the two-agent solvers handle
    chores."""
    if instance.mode == GOODS:
        return instance
    models = Negated(instance.identical_model) if instance.identical else [Negated(v) for v in instance.models]
    return Instance(instance.graph, instance.n, models, GOODS)


class Allocation:
    """Ordered list of n disjoint bundles; some goods may stay unassigned."""

    __slots__ = ("bundles",)

    def __init__(self, bundles: Iterable[Iterable[int]]):
        self.bundles = tuple(frozenset(b) for b in bundles)

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def allocated(self) -> frozenset:
        out = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def unallocated(self, m: int) -> frozenset:
        return frozenset(range(m)) - self.allocated

    def __getitem__(self, i: int) -> frozenset:
        return self.bundles[i]

    def __iter__(self):
        return iter(self.bundles)

    def __eq__(self, other):
        return isinstance(other, Allocation) and self.bundles == other.bundles

    def __hash__(self):
        return hash(self.bundles)

    def __repr__(self):
        return "Allocation(%s)" % ", ".join("{%s}" % ",".join(map(str, sorted(b))) for b in self.bundles)


@dataclass(frozen=True)
class ValidationReport:
    disjoint: bool
    independent: tuple
    wellformed: bool


def evaluate(model: ValuationModel, subset: Iterable[int]) -> Fraction:
    """Exact value of ``subset`` under ``model``."""
    return model.value(frozenset(subset))


def _most_valuable(model: ValuationModel, goods: Iterable[int]) -> int:
    """The good of ``goods`` worth most on its own, lowest index among
    equals."""
    gain = model._bundle().gain
    return max(goods, key=lambda g: (gain(g), -g))


def value_minus_one(model: ValuationModel, subset: Iterable[int]) -> Fraction:
    """min over g in subset of v(subset - {g}); 0 for the empty set."""
    return model.min_drop(frozenset(subset))


def is_independent_set(graph: ConflictGraph, subset: Iterable[int]) -> bool:
    """True iff no edge has both endpoints in ``subset``."""
    s = set(subset)
    for g in s:
        if graph.adj[g] & s:
            return False
    return True


def validate_allocation(instance: Instance, allocation: Allocation) -> ValidationReport:
    """Check disjointness and per-bundle independence."""
    if allocation.n != instance.n:
        raise ValueError(f"allocation has {allocation.n} bundles, instance has {instance.n} agents")
    m = instance.m
    for b in allocation.bundles:
        for g in b:
            if not 0 <= g < m:
                raise ValueError(f"bundle references good {g} outside [0,{m})")
    total = sum(len(b) for b in allocation.bundles)
    disjoint = total == len(allocation.allocated)
    independent = tuple(is_independent_set(instance.graph, b) for b in allocation.bundles)
    return ValidationReport(disjoint, independent, disjoint and all(independent))


def is_maximal(instance: Instance, allocation: Allocation) -> bool:
    """True iff every unallocated good is adjacent to some good in every
    bundle, so no agent could feasibly receive it."""
    adj = instance.graph.adj
    for g in allocation.unallocated(instance.m):
        for bundle in allocation.bundles:
            if not (adj[g] & bundle):
                return False
    return True


def is_ef1(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to one good (goods mode) or one chore (chores mode),
    under each agent's own valuation."""
    bundles = allocation.bundles
    if instance.mode == GOODS:
        for i in range(instance.n):
            model = instance.models[i]
            own = model.value(bundles[i])
            for j in range(instance.n):
                if i == j or not bundles[j]:
                    continue
                if own < value_minus_one(model, bundles[j]):
                    return False
        return True
    for i in range(instance.n):
        model = instance.models[i]
        mine = bundles[i]
        if not mine:
            continue
        best_after_removal = model.max_drop(mine)
        for j in range(instance.n):
            if i == j:
                continue
            if best_after_removal < model.value(bundles[j]):
                return False
    return True


def is_ordered_adjacent(first: Allocation, second: Allocation) -> bool:
    """At most one good leaves bundle 1 and at most one enters bundle 2."""
    if first.n != 2 or second.n != 2:
        raise ValueError("ordered adjacency is defined for 2-agent allocations")
    return len(first[0] - second[0]) <= 1 and len(second[1] - first[1]) <= 1


def complete_to_maximal_is(graph: ConflictGraph, seed: Iterable[int]) -> frozenset:
    """Grow ``seed`` into a maximal independent set, scanning candidate goods
    in ascending index."""
    seed = set(seed)
    if not is_independent_set(graph, seed):
        raise ValueError("seed is not an independent set")
    return _grow_independent(graph, seed, range(graph.m))


def _grow_independent(graph: ConflictGraph, chosen: Iterable[int], candidates: Iterable[int]) -> frozenset:
    """``chosen`` plus each candidate, in order, that has no neighbour in
    the set so far; ``chosen`` must be independent."""
    adj = graph.adj
    result = set(chosen)
    for g in candidates:
        if not adj[g] & result:
            result.add(g)
    return frozenset(result)
