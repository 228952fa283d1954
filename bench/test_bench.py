"""Tests of the benchmark's own arithmetic and trace plumbing.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import inspect
import json
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def cf():
    return run.load_package()


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1, 50, 0), (12, 50, 6), (20, 50, 10), (39, 50, 19), (40, 75, 10), (100, 90, 10), (199, 90, 19),
     (200, 95, 10), (1000, 99, 10), (10000, 99.9, 10)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    p, value, count = run.tail_percentile(samples)
    assert (p, count) == (percentile, beyond)
    assert sum(1 for s in samples if s > value) == count


def test_tail_percentile_uses_nearest_rank():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0, 10)


# --- sampling and the timed loop -------------------------------------------


def test_grid_draws_once_from_every_cell():
    rows, cols = 4, 3
    cells = run.workloads.grid(run.random.Random(1), rows, cols, (10, 50), (0.0, 3.0))
    hit = sorted((int((a - 10) // 10), int(b)) for a, b in cells)
    assert hit == [(i, j) for i in range(rows) for j in range(cols)]


def test_untimed_ops_run_in_the_gate_only():
    calls = []

    def op(label, timed):
        return run.workloads.Op(label, lambda: calls.append(label) or 1, lambda out: None, lambda out: out,
                                timed=timed)

    runner = run.Runner([op("timed", True), op("untimed", False)])
    runner.gate()
    runner.passes(run.time.perf_counter() + 0.05)
    assert calls.count("untimed") == 1 and calls.count("timed") > 1
    # one slot, timed once per pass
    assert len(runner.reference_samples[0]) == calls.count("timed") - 1
    metrics, samples = run.end_to_end(runner, [0.5], [run.REFERENCE_NOMINAL_S])
    assert samples["ops_per_s"]["samples"] == 1


# --- self-time arithmetic --------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("swap.f", 0.0, 10.0, -1),
        ("chain.g", 1.0, 4.0, 0),
        ("core.h", 2.0, 3.5, 1),
        ("chain.g", 5.0, 6.0, 0),
        ("swap.f", 11.0, 12.0, -1),
    ]
    stats = tracing.aggregate(spans)
    assert stats["swap.f"] == {"calls": 2, "total_s": 11.0, "self_s": 7.0}
    assert stats["chain.g"] == {"calls": 2, "total_s": 4.0, "self_s": 2.5}
    assert stats["core.h"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}
    layers = tracing.layer_self_times(stats)
    assert layers == {**dict.fromkeys(tracing.LAYERS, 0.0), "swap": 7.0, "chain": 2.5, "core": 1.5}
    # Self times partition the root spans' durations.
    assert sum(layers.values()) == 11.0


def test_total_counts_only_outermost_call_of_a_name():
    spans = [
        ("serialization.parse", 0.0, 4.0, -1),
        ("serialization.parse", 1.0, 3.0, 0),
        ("core.x", 1.5, 2.0, 1),
        ("serialization.parse", 2.5, 2.75, 1),
    ]
    stats = tracing.aggregate(spans)
    assert stats["serialization.parse"]["calls"] == 3
    assert stats["serialization.parse"]["total_s"] == 4.0
    assert stats["serialization.parse"]["self_s"] == pytest.approx(3.5)
    assert tracing.layer_self_times(stats)["serialization"] == pytest.approx(3.5)


# --- wrapper installation and removal --------------------------------------


def _bindings(cf):
    """Every module attribute and class attribute of the package, by identity."""
    out = {}
    for mod in tracing.package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("conflictfair"):
                for cattr, cvalue in vars(value).items():
                    out[(value.__module__, value.__qualname__, cattr)] = cvalue
    return out


def test_wrappers_cover_every_binding_and_are_removed(cf):
    before = _bindings(cf)
    tracer = tracing.Tracer()
    records = tracing.install(tracer)
    try:
        is_ef1 = before[("conflictfair.core", "is_ef1")]
        for mod_name in ("core", "chain", "graph_classes", "oracle", "cli"):
            assert sys.modules[f"conflictfair.{mod_name}"].is_ef1 is not is_ef1
        assert cf.is_ef1 is not is_ef1
        # No attribute still holds an original the tracer wraps.
        originals = [original for _, _, original in records]
        for key, value in _bindings(cf).items():
            assert not any(value is original for original in originals), key

        instance = cf.Instance(cf.ConflictGraph(4, [(0, 1), (1, 2), (2, 3)]), 2, cf.Negated(cf.Additive([-1, -3, -1, -3])))
        cf.swap_ef1(instance)
    finally:
        tracing.uninstall(records)

    after = _bindings(cf)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    stats = tracing.aggregate(tracer.spans())
    assert stats["swap.swap_ef1"]["calls"] == 1
    assert stats["core.Instance.__init__"]["calls"] == 1
    # Negated.value calls Additive.value: one span per outermost call only.
    spans = tracer.spans()
    assert stats[tracing.VALUE_SPAN]["calls"] > 0
    assert not any(name == spans[parent][0] == tracing.VALUE_SPAN for name, _, _, parent in spans if parent >= 0)
    assert tracer.counters["swap.rounds"] >= 1
    assert tracer.counters["chain.steps_scanned"] <= tracer.counters["chain.steps_built"]


def test_enumerator_counts_labelings(cf):
    tracer = tracing.Tracer()
    records = tracing.install(tracer)
    try:
        counterexample = cf.gen_counterexample(4)
        count = cf.count_maximal_allocations(counterexample)
        full = 5 ** counterexample.m
        assert tracer.counters["oracle.labelings"] == full
        assert tracer.counters["oracle.maximal_yielded"] == count
        two = cf.Instance(cf.ConflictGraph(3, [(0, 1)]), 2, cf.Additive([1, 1, 1]))
        cf.exists_maximal_ef1(two)
    finally:
        tracing.uninstall(records)
    visited = tracer.counters["oracle.labelings"] - full
    assert 1 <= visited <= 3**3


# --- the declared metrics match the emitted ones ---------------------------


def test_benchmark_json_matches_emitted_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = tracing.layer_metrics({}, tracing.Counter(), 1.0, 0.0, 0.0)
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in declared["per_layer"])
    runner = run.Runner([run.workloads.Op(f"op{i}", None, None, None) for i in range(2)])
    runner.samples, runner.attempted = [[0.001], [0.002]], 2
    runner.reference_samples[0].append(run.REFERENCE_NOMINAL_S)
    e2e, samples = run.end_to_end(runner, [0.5], [run.REFERENCE_NOMINAL_S])
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert set(e2e) < set(samples)
    assert all(m["unit"] == e2e[m["name"]][1] for m in declared["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(run.workloads.WORKLOADS)


def test_traced_run_end_to_end(capsys):
    assert run.main(["--workload", "oracle-files", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert metrics["cli.solve_calls"]["value"] > 0
    assert metrics["serialization.parse_calls"]["value"] > 0
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum <= metrics["trace.wall_s"]["value"]
    assert info["digest"] and info["seed"] == 3
