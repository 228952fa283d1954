"""Exact-arithmetic domain types and definitional checkers.

Values are taken as ints or :class:`fractions.Fraction`, kept as integer
numerators over one denominator per model, and handed out as ``Fraction``;
there is no floating point anywhere in this package, since every fairness
test reduces to an exact sign comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import neg
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Union

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


# The most bits a common denominator may have. The lcm of m distinct primes
# has about m times their bits, so without a bound the numerators scaled
# over it would take memory quadratic in m; within it, each numerator holds
# at most this many bits more than its value's own.
DENOMINATOR_BITS = 1024


def _over_common_denominator(values: Sequence[Rational]) -> tuple:
    """The values' integer numerators over their least common denominator,
    and that denominator; ints and Fractions alike. Raises ValueError once
    the denominator passes ``DENOMINATOR_BITS`` bits."""
    den = 1
    for d in {v.denominator for v in values}:
        den = math.lcm(den, d)
        if den.bit_length() > DENOMINATOR_BITS:
            raise ValueError(f"common denominator of the values exceeds {DENOMINATOR_BITS} bits")
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class _ByFields:
    """Equality within one class, hash and ``Name(field=value, ...)`` repr,
    all read from the attributes named in ``_fields``. ``ConflictGraph``,
    the valuation models, ``Instance``, ``Allocation`` and ``chain.Walk``
    compare and hash through it; ``ConflictGraph``, ``Table``, ``Instance``
    and ``Allocation`` keep their own repr."""

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class ConflictGraph(_ByFields):
    """Undirected graph over goods 0..m-1; an edge forbids both endpoints
    in one bundle. ``adj`` is the graph: ``adj[g]`` is a tuple of g's
    neighbours, each once, in no fixed order, so callers test disjointness
    from their own set: ``s.isdisjoint(adj[g])``. ``edges``, each edge once
    as (u, v) with u < v, is built from ``adj`` on each access in O(m + |E|),
    so loops should read ``adj``."""

    __slots__ = ("m", "adj")
    _fields = ("m", "edges")

    def __init__(self, m: int, edges: Iterable[Sequence[int]] = ()):
        if m < 0:
            raise ValueError("good count must be non-negative")
        adj = [set() for _ in range(m)]
        for u, v in edges:
            if u < v:
                if u < 0 or v >= m:
                    raise ValueError(f"edge ({u},{v}) out of range [0,{m})")
            elif v < u:
                if v < 0 or u >= m:
                    raise ValueError(f"edge ({u},{v}) out of range [0,{m})")
            else:
                raise ValueError(f"self-loop on good {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.m = m
        self.adj = tuple(map(tuple, adj))

    @property
    def edges(self) -> frozenset:
        return frozenset((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

    def __repr__(self):
        return f"ConflictGraph(m={self.m}, edges={sorted(self.edges)})"


class ValuationModel(_ByFields):
    """Base for the valuation family. A subclass gives its denominator
    ``den``, ``check``, ``to_json``, its one evaluator, ``_bundle``, and
    its negation, ``_negation``; ``value`` on a frozenset reads a bundle
    built from it. ``_fields`` names the defining attributes."""

    def _bundle(self, goods: Iterable[int] = ()):
        """A running bundle holding ``goods``, which goods join and leave one
        at a time (``add``, ``remove``); its ``goods`` is the set of members.
        Its ``value``, ``min_drop`` (the least v(S - {g}) over the
        members g, 0 for no members) and ``gain(g)`` are integers over
        ``den``. The largest v(S - {g}) is minus the ``min_drop`` of
        ``_negation``'s bundle. A good outside the model is a ValueError."""
        raise NotImplementedError

    @cached_property
    def _negation(self) -> "ValuationModel":
        """-v in closed form, over the same ``den``; built on first use and
        kept on the model."""
        raise NotImplementedError

    def value(self, subset: frozenset) -> Fraction:
        return Fraction(self._bundle(subset).value, self.den)

    def check(self, m: int, mode: str) -> None:
        """Raise ValueError unless this is a valuation over ``m`` goods,
        monotone non-decreasing in goods mode and non-increasing in chores
        mode, with v({}) = 0."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """Instance-file form; rationals are strings."""
        raise NotImplementedError


class _AdditiveBundle:
    """Running integer sum of the members' numerators (over the model's
    ``den``). The largest member comes from a heap built on the first
    ``min_drop``; a removed good stays in it until it reaches the top."""

    __slots__ = ("nums", "goods", "value", "heap")

    def __init__(self, nums: tuple, goods: Iterable[int]):
        self.nums = nums
        self.goods = goods = set(goods)
        # A good past the end raises IndexError; a negative one would wrap.
        try:
            self.value = sum(map(nums.__getitem__, goods))
            if goods and min(goods) < 0:
                raise IndexError
        except IndexError:
            bad = next(g for g in goods if not 0 <= g < len(nums))
            raise ValueError(f"good {bad} outside additive vector of length {len(nums)}") from None
        self.heap = None  # (-numerator, good) per member, once built

    def add(self, g: int) -> None:
        if g not in self.goods:
            x = self.nums[g]
            self.goods.add(g)
            self.value += x
            if self.heap is not None:
                heappush(self.heap, (-x, g))

    def remove(self, g: int) -> None:
        self.goods.remove(g)
        self.value -= self.nums[g]

    @property
    def min_drop(self):
        if not self.goods:
            return 0
        heap = self.heap
        if heap is None:
            heap = self.heap = [(-self.nums[g], g) for g in self.goods]
            heapify(heap)
        while heap[0][1] not in self.goods:
            heappop(heap)
        return self.value + heap[0][0]

    def gain(self, g: int):
        return 0 if g in self.goods else self.nums[g]


class _TableBundle:
    """The members and their mask: the value is one lookup, and each drop
    one sub-mask lookup per member (the table is total, so every sub-mask
    of a present mask is present)."""

    __slots__ = ("nums", "goods", "mask")

    def __init__(self, table: "Table", goods: Iterable[int]):
        self.nums, self.goods, mask = table.nums, set(goods), 0
        for g in self.goods:
            mask |= 1 << g
        if mask >> table.m:
            raise ValueError(f"table model is missing subset mask {mask}")
        self.mask = mask

    def add(self, g: int) -> None:
        self.goods.add(g)
        self.mask |= 1 << g

    def remove(self, g: int) -> None:
        self.goods.remove(g)
        self.mask &= ~(1 << g)

    @property
    def value(self):
        return self.nums[self.mask]

    @property
    def min_drop(self):
        mask, nums = self.mask, self.nums
        return min([nums[mask & ~(1 << g)] for g in self.goods], default=0)

    def gain(self, g: int):
        return self.nums[self.mask | 1 << g] - self.nums[self.mask]


class _CompositeBundle:
    """The base model's running bundle over the members below ``base_goods``
    and the tail's over all of them, each scaled to the composite's ``den``.
    ``min_drop`` takes every member out and back in, O(|S|) bundle updates."""

    __slots__ = ("base", "tail", "goods", "base_goods", "base_scale", "tail_scale")

    def __init__(self, model: "Composite", goods: Iterable[int]):
        goods = set(goods)
        self.base_goods = model.base_goods
        self.base = model.base._bundle(g for g in goods if g < model.base_goods)
        self.tail = model.tail._bundle(goods)
        self.goods = self.tail.goods
        self.base_scale, self.tail_scale = model.den // model.base.den, model.den // model.tail.den

    def add(self, g: int) -> None:
        if g < self.base_goods:
            self.base.add(g)
        self.tail.add(g)

    def remove(self, g: int) -> None:
        if g < self.base_goods:
            self.base.remove(g)
        self.tail.remove(g)

    @property
    def value(self):
        return self.base.value * self.base_scale + self.tail.value * self.tail_scale

    @property
    def min_drop(self):
        drops = []
        for g in list(self.goods):
            self.remove(g)
            drops.append(self.value)
            self.add(g)
        return min(drops, default=0)

    def gain(self, g: int):
        base = self.base.gain(g) * self.base_scale if g < self.base_goods else 0
        return base + self.tail.gain(g) * self.tail_scale


class Additive(ValuationModel):
    """v(S) = sum of fixed per-good values.

    ``values`` define the model (equality, hash, repr, file form); the sums
    run on ``nums``, the values' numerators over their common denominator
    ``den``, so a sum is exact integer arithmetic and one division.
    """

    _fields = ("values",)

    def __init__(self, values: Iterable[Rational]):
        self.values = tuple(as_fraction(v) for v in values)
        self.nums, self.den = _over_common_denominator(self.values)

    def _bundle(self, goods: Iterable[int] = ()) -> _AdditiveBundle:
        return _AdditiveBundle(self.nums, goods)

    @cached_property
    def _negation(self) -> "Additive":
        return Additive(map(neg, self.values))

    def check(self, m: int, mode: str) -> None:
        if len(self.values) != m:
            raise ValueError(f"additive vector has length {len(self.values)}, expected {m}")
        # den > 0, so each numerator has its value's sign.
        if self.nums and (min(self.nums) < 0 if mode == GOODS else max(self.nums) > 0):
            raise ValueError(f"additive values must be {'non-negative' if mode == GOODS else 'non-positive'} in {mode} mode")

    def to_json(self) -> dict:
        return {"type": "additive", "values": [str(v) for v in self.values]}


def _monotone_flags(m: int, nums: Sequence[int]) -> tuple:
    """(non-decreasing, non-increasing) for the integer values ``nums`` of
    a table over m goods, indexed by mask, with ``nums[0] == 0``: sign
    tests, then one word-parallel pass per good, as :class:`Table` shows."""
    try:
        packed = bytes(nums)
        small = packed.isascii()  # every value in [0, 128): one byte per field
    except ValueError:  # a value outside [0, 256)
        small = False
    if small:
        if packed.count(0) == len(packed):
            return True, True
        rising, width = True, 1
    else:
        low, high = min(nums), max(nums)
        if low < 0 < high:
            return False, False
        rising = high > 0  # not all 0, or the values would fit in bytes
        values, top = (nums, high) if rising else (map(neg, nums), -low)
        if top.bit_length() > 64:  # pack ranks, below 2^m, so a field stays at most 9 bytes wide
            distinct = sorted(set(nums), reverse=not rising)
            values, top = map(dict(zip(distinct, range(len(distinct)))).__getitem__, nums), len(distinct) - 1
        width = top.bit_length() // 8 + 1  # every value below 2^(8 * width - 1)
        packed = b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
    bits = 8 * width
    fields = int.from_bytes(packed, "little")
    guards = int.from_bytes((bytes(width - 1) + b"\x80") * len(nums), "little")
    lift = guards - fields  # field j is 2^(w-1) - f[j], in [1, 2^(w-1)]
    clear = guards >> (bits << m - 1)  # the guards of the fields without bit m-1
    for g in reversed(range(m)):
        shift = bits << g
        if (((fields >> shift) + lift) & clear) != clear:
            return False, False
        clear ^= clear << (shift >> 1)  # now the fields without bit g-1
    return rising, not rising


class Table(ValuationModel):
    """Explicit oracle over all 2^m subsets, keyed by bitmask (bit g = good g).

    ``entries`` maps each mask to its value, or is a list of the values
    indexed by mask, read as it is. Values are kept as integer numerators
    ``nums``, indexed by mask, over one denominator ``den`` (1 when all are
    ints), as in :class:`Additive`. The table must be total and assign the
    empty set value 0.

    Both monotonicity flags, which ``check`` reads, are found once, here,
    over all m * 2^(m-1) covering pairs, by :func:`_monotone_flags`. Since
    v(empty set) = 0, a table with a negative and a positive value is
    monotone in neither direction, and one whose values are all >= 0 (all
    <= 0) is non-increasing (non-decreasing) only when every value is 0.
    The one direction left is tested word-parallel: the values, negated
    for a non-positive table, are packed in mask order into one int P of
    w-bit fields f[j], each below 2^(w-1). Values wider than 64 bits are
    packed as their ranks among the distinct values instead (in reverse
    order for a non-positive table): ranks keep every comparison and are
    below 2^m, so P takes at most 9 bytes per mask whatever the values'
    size. With H holding bit w-1 of every field, each field of
    E = (P >> b*w) + H - P is
    f[j+b] - f[j] + 2^(w-1) (f[j+b] = 0 past the top), which lies in
    [1, 2^w); so no field borrows from the next, and bit w-1 of field j is
    set exactly when f[j+b] >= f[j]. The values rise along good g, b = 2^g,
    when ``E & G == G`` for G, H restricted to the fields j without bit g.
    """

    __slots__ = ("m", "nums", "den", "nondecreasing", "nonincreasing")
    _fields = ("m", "nums", "den")

    def __init__(self, m: int, entries: Union[Mapping[int, Rational], List[Rational]]):
        if m > TABLE_MAX_GOODS:
            raise ValueError(f"table valuations support at most {TABLE_MAX_GOODS} goods, got {m}")
        if m < 0:
            raise ValueError("good count must be non-negative")
        size = 1 << m
        try:  # with size entries, a missing mask means some key is out of range
            if len(entries) != size:
                raise KeyError
            values = entries if type(entries) is list else list(map(entries.__getitem__, range(size)))
        except KeyError:
            raise ValueError(f"table must cover all {size} subsets of {m} goods") from None
        if list(map(type, values)).count(int) == size:  # cheaper than a set of the types
            nums, den = tuple(values), 1
        else:
            exact = {int, Fraction} >= set(map(type, values))
            nums, den = _over_common_denominator(values if exact else [as_fraction(v) for v in values])
        if nums[0] != 0:
            raise ValueError("table must assign value 0 to the empty set")
        self.m, self.nums, self.den = m, nums, den
        self.nondecreasing, self.nonincreasing = _monotone_flags(m, nums)

    @property
    def entries(self) -> dict:
        """Each mask's value, as a ``Fraction``."""
        den = self.den
        return {mask: Fraction(num, den) for mask, num in enumerate(self.nums)}

    def _bundle(self, goods: Iterable[int] = ()) -> _TableBundle:
        return _TableBundle(self, goods)

    @cached_property
    def _negation(self) -> "Table":
        """The negated numerators over the same ``den``; negating swaps the
        two monotonicity flags, so nothing is scanned again."""
        table = Table.__new__(Table)
        table.m, table.nums, table.den = self.m, tuple(map(neg, self.nums)), self.den
        table.nondecreasing, table.nonincreasing = self.nonincreasing, self.nondecreasing
        return table

    def check(self, m: int, mode: str) -> None:
        if self.m != m:
            raise ValueError(f"table is over {self.m} goods, expected {m}")
        if mode == GOODS and not self.nondecreasing:
            raise ValueError("table is not monotone non-decreasing")
        if mode == CHORES and not self.nonincreasing:
            raise ValueError("table is not monotone non-increasing")

    def to_json(self) -> dict:
        values = self.nums if self.den == 1 else self.entries.values()
        return {"type": "table", "entries": [[str(mask), str(v)] for mask, v in enumerate(values)]}

    def __repr__(self):
        return f"Table(m={self.m})"


class Negated(ValuationModel):
    """v(S) = -inner(S); maps goods models to chores models and back. It
    reads its inner model's closed-form negation, and its own negation is
    the inner model. Instance files and callers build it; ``to_goods``
    does not."""

    _fields = ("inner",)

    def __init__(self, inner: ValuationModel):
        self.inner = inner

    @property
    def den(self) -> int:
        return self.inner.den

    def _bundle(self, goods: Iterable[int] = ()):
        return self.inner._negation._bundle(goods)

    @cached_property
    def _negation(self) -> ValuationModel:
        return self.inner

    def check(self, m: int, mode: str) -> None:
        self.inner.check(m, CHORES if mode == GOODS else GOODS)

    def to_json(self) -> dict:
        return {"type": "negated", "inner": self.inner.to_json()}


class Composite(ValuationModel):
    """v(S) = base(S intersected with goods 0..base_goods-1) + tail(S), the
    tail being additive over all goods; ``den`` is the lcm of the parts'.

    Embeds a model over a good prefix into a larger good universe; the
    hardness reduction builds it for non-additive bases, whose composed
    valuation ignores filler goods except for their additive tail.
    """

    _fields = ("base", "base_goods", "tail")

    def __init__(self, base: ValuationModel, base_goods: int, tail: Additive):
        self.base, self.base_goods, self.tail = base, base_goods, tail
        self.den = math.lcm(base.den, tail.den)

    def _bundle(self, goods: Iterable[int] = ()) -> _CompositeBundle:
        return _CompositeBundle(self, goods)

    @cached_property
    def _negation(self) -> "Composite":
        return Composite(self.base._negation, self.base_goods, self.tail._negation)

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


class Instance(_ByFields):
    """A fair-division instance: conflict graph, agents, valuations, mode.

    ``valuations`` is either a single model (identical for all agents) or a
    sequence of one model per agent.
    """

    __slots__ = _fields = ("graph", "n", "mode", "identical", "models")

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

    def __repr__(self):
        kind = "identical" if self.identical else "per-agent"
        return f"Instance(n={self.n}, m={self.m}, {kind}, mode={self.mode})"


def to_goods(instance: Instance) -> Instance:
    """Goods-mode twin of a chores instance, each model replaced by its
    closed-form negation ``_negation``; goods instances come back
    unchanged. For identical valuations an allocation is EF1 for chores
    under v exactly when it is EF1 for goods under -v, which is how the
    two-agent solvers handle chores."""
    if instance.mode == GOODS:
        return instance
    models = instance.identical_model._negation if instance.identical else [v._negation for v in instance.models]
    return Instance(instance.graph, instance.n, models, GOODS)


class Allocation(_ByFields):
    """Ordered list of n disjoint bundles; some goods may stay unassigned."""

    __slots__ = _fields = ("bundles",)

    def __init__(self, bundles: Iterable[Iterable[int]]):
        self.bundles = tuple(map(frozenset, bundles))

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def allocated(self) -> frozenset:
        return frozenset().union(*self.bundles)

    def unallocated(self, m: int) -> frozenset:
        return frozenset(range(m)) - self.allocated

    def __getitem__(self, i: int) -> frozenset:
        return self.bundles[i]

    def __iter__(self):
        return iter(self.bundles)

    def __repr__(self):
        return "Allocation(%s)" % ", ".join("{%s}" % ",".join(map(str, sorted(b))) for b in self.bundles)


class ValidationReport(NamedTuple):
    disjoint: bool
    independent: tuple
    wellformed: bool


def evaluate(model: ValuationModel, subset: Iterable[int]) -> Fraction:
    """Exact value of ``subset`` under ``model``."""
    return model.value(frozenset(subset))


def _most_valuable(model: ValuationModel, goods: Iterable[int]) -> int:
    """The good of ``goods`` worth most on its own, lowest index among
    equals: ``max`` keeps the first of equal maxima."""
    return max(sorted(goods), key=model._bundle().gain)


def value_minus_one(model: ValuationModel, subset: Iterable[int]) -> Fraction:
    """min over g in subset of v(subset - {g}); 0 for the empty set."""
    return Fraction(model._bundle(subset).min_drop, model.den)


def is_independent_set(graph: ConflictGraph, subset: Iterable[int]) -> bool:
    """True iff no edge has both endpoints in ``subset``."""
    s = subset if isinstance(subset, (set, frozenset)) else set(subset)
    adj = graph.adj
    for g in s:
        if not s.isdisjoint(adj[g]):
            return False
    return True


def _require_one_bundle_per_agent(instance: Instance, allocation: Allocation) -> None:
    if allocation.n != instance.n:
        raise ValueError(f"allocation has {allocation.n} bundles, instance has {instance.n} agents")


def validate_allocation(instance: Instance, allocation: Allocation) -> ValidationReport:
    """Check disjointness and per-bundle independence."""
    _require_one_bundle_per_agent(instance, allocation)
    m, bundles, graph = instance.m, allocation.bundles, instance.graph
    for b in bundles:
        if b and not (min(b) >= 0 and max(b) < m):
            bad = next(g for g in b if not 0 <= g < m)
            raise ValueError(f"bundle references good {bad} outside [0,{m})")
    disjoint = sum(map(len, bundles)) == len(allocation.allocated)
    independent = tuple([is_independent_set(graph, b) for b in bundles])
    return ValidationReport(disjoint, independent, disjoint and all(independent))


def is_maximal(instance: Instance, allocation: Allocation) -> bool:
    """True iff every unallocated good is adjacent to some good in every
    bundle, so no agent could feasibly receive it."""
    _require_one_bundle_per_agent(instance, allocation)
    adj, bundles = instance.graph.adj, allocation.bundles
    for g in allocation.unallocated(instance.m):
        for bundle in bundles:
            if bundle.isdisjoint(adj[g]):
                return False
    return True


def is_ef1(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to one good (goods mode) or one chore (chores mode),
    under each agent's own valuation. Each model builds one running bundle
    per allocation bundle, and the comparisons run in its integer units.
    Chores are read through the negation u = -v: the largest v(A_i - {c})
    is minus u's ``min_drop`` of A_i, so agent i passes when that drop is
    at most u(A_j) for every other j."""
    _require_one_bundle_per_agent(instance, allocation)
    bundles, goods, n = allocation.bundles, instance.mode == GOODS, instance.n
    seen = {}  # id(model) -> (values, drops) of the bundles under it, or under its negation for chores
    for i, model in enumerate(instance.models):
        if id(model) not in seen:
            runs = [(model if goods else model._negation)._bundle(b) for b in bundles]
            seen[id(model)] = [r.value for r in runs], [r.min_drop for r in runs]
        values, drops = seen[id(model)]
        if goods:
            if any(values[i] < drops[j] for j in range(n) if j != i and bundles[j]):
                return False
        elif bundles[i] and any(values[j] < drops[i] for j in range(n) if j != i):
            return False
    return True


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
        if result.isdisjoint(adj[g]):
            result.add(g)
    return frozenset(result)
