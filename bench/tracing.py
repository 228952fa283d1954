"""Traced-run plumbing: spans recorded around the calls into each layer.

The wrappers live here, not in the package. :func:`install` replaces each
traced function at every module attribute it is bound to (``is_ef1``, for
one, is imported by value into ``chain``, ``graph_classes``, ``oracle`` and
``cli``) and each traced method on its class; :func:`uninstall` puts every
original back. The untraced run installs nothing.

Spans are kept in memory in flat arrays (name id, start, end, parent index)
and written out once the run ends. A layer is the module part of a span
name; its self time is the spans' duration minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "conflictfair"
LAYERS = ("serialization", "core", "chain", "swap", "graph_classes", "oracle", "hardness", "treecolor", "cli")

# Module-level functions wrapped per layer: each layer's public entry points,
# leaving out helpers cheap and hot enough that a span would cost more than
# the call (``as_fraction``, ``rational_from_str``, ``IntervalSet.overlaps``).
FUNCTIONS = {
    "serialization": ("load_json", "instance_from_json", "allocation_from_json", "graph_from_json", "dump_json"),
    "core": ("evaluate", "value_minus_one", "is_independent_set", "validate_allocation", "is_maximal", "is_ef1",
             "complete_to_maximal_is"),
    "chain": ("build_chain", "chain_ef1", "cut_and_choose"),
    "swap": ("swap_ef1",),
    "graph_classes": ("interval_scheduling_greedy", "interval_chains", "interval_ef1", "bipartition", "is_bipartite",
                      "bipartite_ef1", "round_robin_small"),
    "oracle": ("enumerate_maximal_allocations", "exists_maximal_ef1", "count_maximal_allocations", "compute_gamma"),
    "hardness": ("gen_counterexample", "build_reduction", "yes_certificate"),
    "treecolor": ("equitable_tree_coloring", "coloring_violations"),
    "cli": ("main", "cmd_solve", "cmd_check", "cmd_oracle", "cmd_color_tree"),
}

# (layer, class, method) wrapped on the class itself.
METHODS = (
    ("core", "ConflictGraph", "__init__"),
    ("core", "Instance", "__init__"),
    ("graph_classes", "IntervalSet", "__init__"),
    ("graph_classes", "IntervalSet", "induced_graph"),
    ("treecolor", "RootedTree", "from_edges"),
)

VALUE_SPAN = "core.value"


class Tracer:
    """In-memory span store plus counters derived from traced results."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = []
        self.counters = Counter()
        self.value_depth = 0
        self.last_interval_chains = None

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def spans(self):
        """(name, start, end, parent) per span, in opening order."""
        names = self.names
        return [
            (names[n], s, e, p) for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
        ]

    def mark(self) -> int:
        return len(self.starts)

    def write(self, path) -> None:
        """Columnar JSON dump of every span recorded."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_ids.tolist(),
                    "start": self.starts.tolist(),
                    "end": self.ends.tolist(),
                    "parent": self.parents.tolist(),
                },
                handle,
            )


def aggregate(spans) -> dict:
    """Per span name: call count, inclusive time of the calls not nested in
    a call of the same name, and self time.

    Parents always precede their children, and the children of one span
    are sequential sub-intervals of it, so a span's covered time is the sum
    of its children's durations.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stats["total_s"] += end - start
    return out


def layer_self_times(stats: dict) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        out[name.split(".", 1)[0]] += s["self_s"]
    return out


# --- wrappers --------------------------------------------------------------


def _wrap_call(tracer, name, fn, after=None):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, result)
        return result

    return traced


def _wrap_value(tracer, fn):
    """Span only the outermost valuation call: ``Negated`` and the
    composite models call their inner models' ``value``."""
    name_id = tracer.intern(VALUE_SPAN)

    @functools.wraps(fn)
    def traced(self, subset):
        if tracer.value_depth:
            return fn(self, subset)
        tracer.value_depth += 1
        index = tracer.open(name_id)
        try:
            return fn(self, subset)
        finally:
            tracer.close(index)
            tracer.value_depth -= 1

    return traced


def _labeling_rank(allocation, radix: int, m: int) -> int:
    """Mixed-radix index of an allocation in the oracle's sweep order
    (good 0 most significant; label 0 = unassigned, a+1 = agent a)."""
    labels = [0] * m
    for agent, bundle in enumerate(allocation.bundles):
        for g in bundle:
            labels[g] = agent + 1
    rank = 0
    for label in labels:
        rank = rank * radix + label
    return rank


def _wrap_enumerator(tracer, name, fn):
    """Time each step of the maximal-allocation generator as a span and
    count the labelings it visited: all (n+1)^m when it ran out, else up to
    the last allocation it yielded."""
    name_id = tracer.intern(name)

    def steps(gen, instance):
        radix, m = instance.n + 1, instance.m
        last, exhausted = None, False
        try:
            while True:
                index = tracer.open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    exhausted = True
                    return
                finally:
                    tracer.close(index)
                tracer.counters["oracle.maximal_yielded"] += 1
                last = item
                yield item
        finally:
            gen.close()
            if exhausted:
                tracer.counters["oracle.labelings"] += radix**m
            elif last is not None:
                tracer.counters["oracle.labelings"] += _labeling_rank(last, radix, m) + 1

    @functools.wraps(fn)
    def traced(instance, *args, **kwargs):
        return steps(fn(instance, *args, **kwargs), instance)

    return traced


def _after_chain_ef1(tracer, outcome):
    scanned = outcome.step_index + 1 if outcome.found else len(outcome.chain.steps)
    tracer.counters["chain.steps_scanned"] += scanned


def _after_build_chain(tracer, chain):
    tracer.counters["chain.steps_built"] += len(chain.steps)


def _after_swap(tracer, result):
    rounds = len(result[1])
    tracer.counters["swap.rounds"] += rounds
    tracer.counters["swap.failed_chains"] += rounds - 1


def _after_interval_chains(tracer, chains):
    tracer.counters["graph_classes.combined_steps"] += len(chains.combined)
    tracer.last_interval_chains = chains


def _after_interval_ef1(tracer, allocation):
    # The solver returns the first EF1 step of the chains it just built.
    scanned = tracer.last_interval_chains.combined.index(allocation) + 1
    tracer.counters["graph_classes.steps_scanned"] += scanned


AFTER = {
    "chain.build_chain": _after_build_chain,
    "chain.chain_ef1": _after_chain_ef1,
    "swap.swap_ef1": _after_swap,
    "graph_classes.interval_chains": _after_interval_chains,
    "graph_classes.interval_ef1": _after_interval_ef1,
}


def package_modules() -> list:
    """The imported package and its submodules."""
    return [mod for name, mod in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def install(tracer: Tracer) -> list:
    """Install the wrappers on the package in ``sys.modules``; return the
    (owner, attribute, original) records that :func:`uninstall` restores."""
    modules = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in package_modules()}
    replacement = {}
    for layer, names in FUNCTIONS.items():
        for attr in names:
            fn = getattr(modules[layer], attr)
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replacement[id(fn)] = (fn, _wrap_enumerator(tracer, name, fn))
            else:
                replacement[id(fn)] = (fn, _wrap_call(tracer, name, fn, AFTER.get(name)))

    records = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                records.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    core = modules["core"]
    for cls in vars(core).values():
        if inspect.isclass(cls) and issubclass(cls, core.ValuationModel) and "value" in vars(cls):
            records.append((cls, "value", vars(cls)["value"]))
            setattr(cls, "value", _wrap_value(tracer, vars(cls)["value"]))
    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[attr]
        name = f"{layer}.{cls_name}.{attr}"
        if isinstance(original, classmethod):
            wrapper = classmethod(_wrap_call(tracer, name, original.__func__))
        else:
            wrapper = _wrap_call(tracer, name, original)
        records.append((cls, attr, original))
        setattr(cls, attr, wrapper)
    return records


def uninstall(records: list) -> None:
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)


# --- per-layer metrics -----------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counters: Counter, traced_wall_s: float, overhead_frac: float,
                  labelings_per_s: float) -> dict:
    """The per-layer metrics, each as (value, unit), from the aggregated
    spans of the traced set-up plus one traced pass."""

    def total(*names):
        return sum(stats.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(stats.get(n, {}).get("calls", 0) for n in names)

    parse = ("serialization.load_json", "serialization.instance_from_json",
             "serialization.allocation_from_json", "serialization.graph_from_json")
    out = {
        "serialization.parse_s": (total(*parse), "s"),
        "serialization.parse_calls": (calls(*parse[1:]), "count"),
        "core.instance_init_s": (total("core.Instance.__init__"), "s"),
        "core.value_calls": (calls(VALUE_SPAN), "count"),
        "core.value_s": (total(VALUE_SPAN), "s"),
        "core.value_minus_one_calls": (calls("core.value_minus_one"), "count"),
        "core.is_ef1_calls": (calls("core.is_ef1"), "count"),
        "core.is_ef1_s": (total("core.is_ef1"), "s"),
        "core.complete_to_maximal_is_s": (total("core.complete_to_maximal_is"), "s"),
        "chain.build_chain_calls": (calls("chain.build_chain"), "count"),
        "chain.build_chain_s": (total("chain.build_chain"), "s"),
        "chain.chain_ef1_s": (total("chain.chain_ef1"), "s"),
        "chain.steps_built": (counters["chain.steps_built"], "count"),
        "chain.steps_scanned": (counters["chain.steps_scanned"], "count"),
        "chain.scan_useful_ratio": (_ratio(counters["chain.steps_scanned"], counters["chain.steps_built"]), "ratio"),
        "chain.cut_and_choose_calls": (calls("chain.cut_and_choose"), "count"),
        "swap.swap_ef1_s": (total("swap.swap_ef1"), "s"),
        "swap.rounds": (counters["swap.rounds"], "count"),
        "swap.failed_chains": (counters["swap.failed_chains"], "count"),
        "graph_classes.induced_graph_s": (total("graph_classes.IntervalSet.induced_graph"), "s"),
        "graph_classes.induced_graph_calls": (calls("graph_classes.IntervalSet.induced_graph"), "count"),
        "graph_classes.greedy_s": (total("graph_classes.interval_scheduling_greedy"), "s"),
        "graph_classes.greedy_calls": (calls("graph_classes.interval_scheduling_greedy"), "count"),
        "graph_classes.interval_chains_s": (total("graph_classes.interval_chains"), "s"),
        "graph_classes.interval_ef1_s": (total("graph_classes.interval_ef1"), "s"),
        "graph_classes.combined_steps": (counters["graph_classes.combined_steps"], "count"),
        "graph_classes.steps_scanned": (counters["graph_classes.steps_scanned"], "count"),
        "graph_classes.bipartition_s": (total("graph_classes.bipartition"), "s"),
        "graph_classes.round_robin_s": (total("graph_classes.round_robin_small"), "s"),
        "oracle.labelings": (counters["oracle.labelings"], "count"),
        "oracle.maximal_yielded": (counters["oracle.maximal_yielded"], "count"),
        "oracle.yield_ratio": (_ratio(counters["oracle.maximal_yielded"], counters["oracle.labelings"]), "ratio"),
        "oracle.enumerate_s": (total("oracle.enumerate_maximal_allocations"), "s"),
        "oracle.exists_s": (total("oracle.exists_maximal_ef1"), "s"),
        "oracle.count_s": (total("oracle.count_maximal_allocations"), "s"),
        "oracle.gamma_s": (total("oracle.compute_gamma"), "s"),
        "oracle.labelings_per_s": (labelings_per_s, "1/s"),
        "hardness.gen_counterexample_s": (total("hardness.gen_counterexample"), "s"),
        "hardness.build_reduction_s": (total("hardness.build_reduction"), "s"),
        "treecolor.coloring_s": (total("treecolor.equitable_tree_coloring"), "s"),
        "cli.solve_s": (total("cli.cmd_solve"), "s"),
        "cli.solve_calls": (calls("cli.cmd_solve"), "count"),
        "cli.check_s": (total("cli.cmd_check"), "s"),
        "cli.check_calls": (calls("cli.cmd_check"), "count"),
        "cli.color_tree_s": (total("cli.cmd_color_tree"), "s"),
        "cli.color_tree_calls": (calls("cli.cmd_color_tree"), "count"),
    }
    for layer, seconds in layer_self_times(stats).items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
