"""The traced benchmark run (``bench/run.py --trace 1``) wraps package
functions and methods by name and reads fields of their results; a rename
here breaks it without failing any other test of the package. Its hooks
also count chain steps through ``len`` and ``index`` on the lazy walks."""

import importlib
import importlib.util
import inspect
import json
import pathlib
import random

import pytest

from conflictfair import (Instance, build_chain, chain_ef1, gen_counterexample, interval_chains, interval_ef1, is_ef1,
                          swap_ef1)
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


def test_traced_cli_functions_are_called_through_the_module(tracing, tmp_path, monkeypatch, capsys):
    # install() rebinds the module attributes, so each traced CLI function
    # must be looked up there on every call, also after a first call.
    cli = layer("cli")
    instance, allocation, tree = tmp_path / "instance.json", str(tmp_path / "alloc.json"), tmp_path / "tree.json"
    instance.write_text(json.dumps({"agents": 2, "goods": 3, "edges": [[0, 1], [1, 2]],
                                    "valuations": {"identical": {"type": "additive", "values": ["5", "0", "5"]}}}))
    tree.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]]}))
    argv = {
        "solve": ["solve", str(instance), "--out", allocation],
        "check": ["check", str(instance), allocation],
        "oracle": ["oracle", str(instance)],
        "color-tree": ["color-tree", str(tree), "--n", "2"],
    }
    assert cli.main(argv["solve"]) == 0
    for name in tracing.FUNCTIONS["cli"]:
        calls = []
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
        command = "solve" if name == "main" else name.removeprefix("cmd_").replace("_", "-")
        assert cli.main(argv[command]) == 0, name
        assert calls, f"cli.{name} was not reached through the module attribute"
        monkeypatch.undo()


def test_traced_methods_resolve(tracing):
    for name, cls_name, attr in tracing.METHODS:
        cls = getattr(layer(name), cls_name, None)
        assert cls is not None and attr in vars(cls), f"{name}.{cls_name}.{attr}"


def test_enumerator_is_a_generator_function():
    # tracing picks the wrapper that counts labelings by this test
    assert inspect.isgeneratorfunction(layer("oracle").enumerate_maximal_allocations)


def test_fields_read_after_traced_calls():
    fields = lambda cls: set(cls._fields)
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


def test_enumerator_wrapper_sees_the_symmetric_searches(tracing, monkeypatch):
    # exists and gamma reach the enumerator through the module attribute
    # that the tracer rebinds, so its counters cover their searches too; the
    # labelings counter is the sweep rank of the last yield, which the
    # symmetric search leaves as the full search has it.
    oracle = layer("oracle")
    seen = []
    original = oracle.enumerate_maximal_allocations
    monkeypatch.setattr(oracle, "enumerate_maximal_allocations",
                        lambda *args, **kwargs: seen.append(kwargs) or original(*args, **kwargs))
    oracle.exists_maximal_ef1(gen_counterexample(3))
    oracle.compute_gamma(gen_counterexample(4))
    assert seen == [{"symmetric": True}, {"symmetric": True}]
    monkeypatch.undo()

    rng = random.Random(8)
    witnessed = Instance(random_graph(rng, 6, 0.4), 2, random_additive(rng, 6))
    cases = [(gen_counterexample(4), oracle.exists_maximal_ef1), (gen_counterexample(3), oracle.compute_gamma),
             (witnessed, oracle.exists_maximal_ef1)]
    for instance, call in cases:
        tracer = tracing.Tracer()
        records = tracing.install(tracer)
        try:
            witness = getattr(call(instance), "witness", None)
        finally:
            tracing.uninstall(records)
        # The full search's first EF1 leaf, or its whole sweep.
        full = list(original(instance))
        if call is oracle.exists_maximal_ef1:
            assert witness == next((a for a in full if is_ef1(instance, a)), None)
        radix, m = instance.n + 1, instance.m
        symmetric = list(original(instance, symmetric=True))
        assert tracer.counters["oracle.maximal_yielded"] == (symmetric.index(witness) + 1 if witness else len(symmetric))
        assert tracer.counters["oracle.labelings"] == (tracing._labeling_rank(witness, radix, m) + 1 if witness else radix**m)
    assert witness is not None


def test_interval_chains_runs_the_greedy_three_times(monkeypatch):
    # graph_classes.greedy_calls counts the calls through the module
    # attribute: one capacity-2 pick and the two one-side scans per solve.
    graph_classes = layer("graph_classes")
    calls = []
    original = graph_classes.interval_scheduling_greedy
    monkeypatch.setattr(graph_classes, "interval_scheduling_greedy",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    rng = random.Random(13)
    for solves in range(1, 21):
        m = rng.randint(1, 14)
        intervals = random_intervals(rng, m, span=rng.randint(2, 16))
        interval_chains(Instance(intervals.induced_graph(), 2, random_additive(rng, m)), intervals)
        assert len(calls) == 3 * solves


def test_traced_interval_solves_count_what_the_walks_hold(tracing):
    # Under install(), interval_ef1 must still reach interval_chains and the
    # greedy through the module attributes the tracer rebinds; the after
    # hooks build the whole combined walk, and the published metrics must
    # equal the same counts over the materialized steps of an untraced solve.
    graph_classes = layer("graph_classes")
    rng = random.Random(21)
    cases = []
    for _ in range(20):
        m = rng.randint(1, 16)
        intervals = random_intervals(rng, m, span=rng.randint(4, 24))
        cases.append((Instance(intervals.induced_graph(), 2, random_additive(rng, m)), intervals))
    tracer = tracing.Tracer()
    records = tracing.install(tracer)
    try:
        traced = [graph_classes.interval_ef1(instance, intervals) for instance, intervals in cases]
    finally:
        tracing.uninstall(records)
    built = scanned = 0
    for (instance, intervals), allocation in zip(cases, traced):
        combined = list(interval_chains(instance, intervals).combined)
        assert allocation == interval_ef1(instance, intervals)
        built += len(combined)
        scanned += combined.index(allocation) + 1
    stats = tracing.aggregate(tracer.spans())
    metrics = tracing.layer_metrics(stats, tracer.counters, 0.0, 0.0, 0.0)
    assert metrics["graph_classes.combined_steps"] == (built, "count")
    assert metrics["graph_classes.steps_scanned"] == (scanned, "count")
    assert metrics["graph_classes.greedy_calls"] == (3 * len(cases), "count")
    assert stats["graph_classes.interval_ef1"]["calls"] == stats["graph_classes.interval_chains"]["calls"] == len(cases)
