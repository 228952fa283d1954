"""The traced benchmark run (``bench/run.py --trace 1``) wraps package
functions and methods by name and reads fields of their results; a rename
here breaks it without failing any other test of the package. Its hooks
also count chain steps through ``len`` and ``index`` on the lazy walks."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import random

import pytest

from conflictfair import Instance, build_chain, chain_ef1, interval_chains, interval_ef1, swap_ef1
from conftest import random_additive, random_graph, random_intervals

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # Loaded from its path and not registered in sys.modules.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"conflictfair.{name}")


def test_traced_functions_resolve(tracing):
    for name, attrs in tracing.FUNCTIONS.items():
        for attr in attrs:
            assert callable(getattr(layer(name), attr, None)), f"{name}.{attr}"


def test_traced_methods_resolve(tracing):
    for name, cls_name, attr in tracing.METHODS:
        cls = getattr(layer(name), cls_name, None)
        assert cls is not None and attr in vars(cls), f"{name}.{cls_name}.{attr}"


def test_enumerator_is_a_generator_function():
    # tracing picks the wrapper that counts labelings by this test
    assert inspect.isgeneratorfunction(layer("oracle").enumerate_maximal_allocations)


def test_fields_read_after_traced_calls():
    fields = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert {"steps"} <= fields(layer("chain").Chain)
    assert {"step_index", "chain"} <= fields(layer("chain").ChainOutcome)
    assert {"combined"} <= fields(layer("graph_classes").IntervalChains)



def test_after_hooks_count_what_the_results_hold(tracing):
    # The hooks read results lazily (len, index); their counters must equal
    # the same counts over the materialized steps.
    assert set(tracing.AFTER) == {"swap.swap_ef1", "chain.build_chain", "chain.chain_ef1",
                                  "graph_classes.interval_chains", "graph_classes.interval_ef1"}
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randint(3, 12)
        tracer = tracing.Tracer()
        instance = Instance(random_graph(rng, m, 0.3), 2, random_additive(rng, m))
        allocation, rounds = swap_ef1(instance)
        tracing.AFTER["swap.swap_ef1"](tracer, (allocation, rounds))
        assert tracer.counters["swap.rounds"] == len(rounds)
        assert tracer.counters["swap.failed_chains"] == len(rounds) - 1
        chain = build_chain(instance, rounds[-1].source)
        tracing.AFTER["chain.build_chain"](tracer, chain)
        assert tracer.counters["chain.steps_built"] == len(list(chain.steps))
        outcome = chain_ef1(instance, rounds[-1].source)
        tracing.AFTER["chain.chain_ef1"](tracer, outcome)
        steps = list(outcome.chain.steps)
        assert tracer.counters["chain.steps_scanned"] == (steps.index(outcome.allocation) + 1 if outcome.found else len(steps))

        intervals = random_intervals(rng, m, span=10)
        instance = Instance(intervals.induced_graph(), 2, random_additive(rng, m))
        chains = interval_chains(instance, intervals)
        tracing.AFTER["graph_classes.interval_chains"](tracer, chains)
        combined = list(chains.combined)
        assert tracer.counters["graph_classes.combined_steps"] == len(combined)
        allocation = interval_ef1(instance, intervals)
        tracing.AFTER["graph_classes.interval_ef1"](tracer, allocation)
        assert tracer.counters["graph_classes.steps_scanned"] == combined.index(allocation) + 1
