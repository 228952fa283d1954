"""conflictfair benchmark: one seeded workload, closed loop, one caller.

Usage (from the repository root):

    python3 bench/run.py --workload chain-additive --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. One operation starts after the previous one returns. The
first pass over the workload's inputs is the correctness gate: every result
goes through the definitional checkers, outside the timed region. Later
passes must reproduce the first pass's results exactly. Passes repeat until
``--seconds`` have gone by, and each input's latency is its fastest pass.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced pass
(see ``tracing.py``). The line before it records the seed, the environment,
the output digest and the sample count behind each metric. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
# A shared host's speed drifts by 10-20% over minutes, longer than a run, so
# even a run's fastest pass depends on when the run was made. A fixed loop
# that uses the standard library only, not the package, is timed at this
# many evenly spaced points of every pass; its fastest time measures the
# host's speed in the same spells as the operations' fastest times.
REFERENCE_SLOTS = 32
# The reference loop's fastest time on a quiet 2-core Intel Xeon host under
# CPython 3.11. The calibrated rate is the rate a host of that speed shows.
REFERENCE_NOMINAL_S = 0.0003
# Reference loop runs just before and just after each set-up. A set-up is
# one long call, timed at the host's speed of the moment, so it is
# calibrated by the median of these runs rather than by the run's fastest.
SETUP_REFERENCE_RUNS = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(samples):
    """Highest percentile of TAIL_PERCENTILES with at least TAIL_BEYOND
    samples above its nearest-rank value: (percentile, value, samples beyond).
    Falls back to the median when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    if best is None:
        rank = max(1, math.ceil(n / 2))
        best = (50, ordered[rank - 1], n - rank)
    return best


def reference_loop():
    """Fixed work of the kinds the package does most: rational arithmetic
    and hashing small frozensets."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 120):
        total += Fraction(i % 13 + 1, i % 7 + 1)
        seen[frozenset((i % 17, i % 11, i % 5))] = total
    return len(seen), total


def reference_times(count) -> list:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def load_package():
    """Import (or re-import) the package from the checkout's ``src``."""
    for mod in tracing.package_modules():
        del sys.modules[mod.__name__]
    cf = importlib.import_module(tracing.PACKAGE)
    for sub in ("serialization", "cli"):
        importlib.import_module(f"{tracing.PACKAGE}.{sub}")
    if Path(cf.__file__).resolve().parent != SRC / tracing.PACKAGE:
        raise BenchmarkError(f"imported {cf.__file__}, not the package under {SRC}")
    return cf


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs a workload's operations and keeps each input's latencies."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = [None] * len(ops)
        self.problems = {}
        self.samples = [[] for _ in ops]
        self.reference_samples = [[] for _ in range(REFERENCE_SLOTS)]
        self.attempted = 0
        self.failed = 0

    def _fail(self, i, problem) -> None:
        self.failed += 1
        self.problems.setdefault(self.ops[i].label, problem)

    def gate(self) -> None:
        """First pass: time each operation, then check its result."""
        for i, op in enumerate(self.ops):
            self.attempted += 1
            try:
                start = time.perf_counter()
                out = op.call()
                elapsed = time.perf_counter() - start
                problem = op.check(out)
                self.reference[i] = op.summary(out)
            except Exception as exc:  # a raising operation is a failed one
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None:
                self.samples[i].append(elapsed)
            else:
                self._fail(i, problem)

    def repeat(self, i):
        """Run operation ``i`` again; its result must equal the gate's.
        Returns the latency, or None if the operation failed."""
        op = self.ops[i]
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = op.call()
            elapsed = time.perf_counter() - start
            same = op.label not in self.problems and op.summary(out) == self.reference[i]
        except Exception as exc:
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None
        if not same:
            self._fail(i, "result differs from the first pass")
            return None
        return elapsed

    def passes(self, deadline, between=None) -> None:
        """Repeat passes over the timed inputs until the deadline, with the
        reference loop after every input that starts a slot."""
        timed = [i for i, op in enumerate(self.ops) if op.timed]
        starts = sorted({timed[j * len(timed) // REFERENCE_SLOTS] for j in range(REFERENCE_SLOTS)}) if timed else []
        slots = {i: slot for slot, i in enumerate(starts)}
        while time.perf_counter() < deadline:
            for i in timed:
                if time.perf_counter() >= deadline:
                    break
                elapsed = self.repeat(i)
                if elapsed is not None:
                    self.samples[i].append(elapsed)
                if i in slots:
                    start = time.perf_counter()
                    reference_loop()
                    self.reference_samples[slots[i]].append(time.perf_counter() - start)
            if between is not None:
                between()

    def best(self) -> list:
        """Each input's fastest latency. The host's speed swings by up to
        2x within seconds; the minimum over passes spread across the run
        removes most of that."""
        return [min(s) if s else None for s in self.samples]

    def reference_best(self):
        """The reference loop's fastest time: the median over slots of each
        slot's fastest sample, like the operations' fastest times taken over
        the same passes. None if no pass reached a slot."""
        best = [min(s) for s in self.reference_samples if s]
        return statistics.median(best) if best else None

    def digest(self) -> str:
        return hashlib.sha256(repr(self.reference).encode()).hexdigest()


def end_to_end(runner, setup_times, setup_references):
    """The gated end-to-end metrics, each as (value, unit), and a record of
    the samples behind each, which also carries the recorded-only ones.
    ``setup_references`` holds the reference loop's median time around
    each set-up."""
    latencies = [t for op, t in zip(runner.ops, runner.best()) if op.timed and t is not None]
    if not latencies:
        raise BenchmarkError("every operation failed")
    reference = runner.reference_best()
    if reference is None:
        raise BenchmarkError("the run ended before the reference loop was timed")
    percentile, tail, beyond = tail_percentile(latencies)
    ops_per_s = len(latencies) / sum(latencies)
    setups = [t * REFERENCE_NOMINAL_S / r for t, r in zip(setup_times, setup_references)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "calibrated_ops_per_s": (ops_per_s * reference / REFERENCE_NOMINAL_S, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    per_input = "each input's fastest pass"
    samples = {
        "setup_s": {"samples": len(setups), "statistic": "median of set-up time * nominal / reference around it",
                    "reference_runs": 2 * SETUP_REFERENCE_RUNS},
        "calibrated_ops_per_s": {"samples": len(latencies), "statistic": "ops_per_s * reference_ms / nominal",
                                 "nominal_ms": REFERENCE_NOMINAL_S * 1e3, "of": per_input},
        "peak_rss_mb": {"samples": 1, "statistic": "max resident set of the process"},
        # Recorded, not gated: the uncalibrated rate moves with the host's
        # speed, and which inputs sit at the median and in the tail changes
        # from seed to seed, so these move by more than any bound a gate
        # could use (see README.md).
        "ops_per_s": {"value": ops_per_s, "samples": len(latencies), "statistic": "inputs / sum", "of": per_input},
        "setup_uncalibrated_s": {"value": statistics.median(setup_times), "samples": len(setup_times),
                                 "statistic": "median"},
        "reference_ms": {"value": reference * 1e3, "samples": sum(map(len, runner.reference_samples)),
                         "statistic": "median over slots of each slot's fastest"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "samples": len(latencies), "percentile": 50,
                      "of": per_input},
        "op_tail_ms": {"value": tail * 1e3, "samples": len(latencies), "percentile": percentile,
                       "beyond": beyond, "of": per_input},
        "failed_frac": {"value": runner.failed / runner.attempted, "samples": runner.attempted},
    }
    return metrics, samples


def traced(runner, build, raw, cf, deadline, out_dir, tag):
    """A traced set-up, then one pass that runs each operation untraced and
    traced back to back, then untraced passes until the deadline.

    The wrappers go on the package modules in ``sys.modules``, which must be
    the package ``cf`` the operations were built with.
    """
    tracer = tracing.Tracer()

    def under_trace(fn):
        records = tracing.install(tracer)
        try:
            start = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - start
        finally:
            tracing.uninstall(records)

    _, traced_wall = under_trace(lambda: build(cf, raw))
    setup_spans = tracer.mark()
    pairs = []
    for i in range(len(runner.ops)):
        plain = runner.repeat(i)
        if plain is not None:
            runner.samples[i].append(plain)
        latency, wall = under_trace(lambda: runner.repeat(i))
        traced_wall += wall
        if plain is not None and latency is not None:
            pairs.append((latency, plain))
    runner.passes(deadline)

    spans = tracer.spans()
    stats = tracing.aggregate(spans)
    self_sum = sum(s["self_s"] for s in stats.values())
    if self_sum > traced_wall:
        raise BenchmarkError(f"layer self times {self_sum} s exceed traced wall time {traced_wall} s")
    overhead = sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1 if pairs else 0.0
    swept = [(op.full_sweep, t) for op, t in zip(runner.ops, runner.best()) if op.full_sweep and t]
    labelings_per_s = sum(n for n, _ in swept) / sum(t for _, t in swept) if swept else 0.0

    metrics = tracing.layer_metrics(stats, tracer.counters, traced_wall, overhead, labelings_per_s)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{tag}.json")
    info = {"spans": len(spans), "setup_spans": setup_spans, "layer_self_sum_s": self_sum,
            "overhead_pairs": len(pairs), "labelings_per_s_inputs": len(swept)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / tracing.PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / tracing.PACKAGE}")
    sys.path.insert(0, str(SRC))
    generate, build = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = ROOT / ".bench_work" / tag
    workdir.mkdir(parents=True)
    home = os.getcwd()
    try:
        os.chdir(workdir)  # the cli workload names its files relative to here
        raw = generate(random.Random(f"{args.workload}:{args.seed}"))
        setup_times, setup_references = [], []

        def set_up():
            gc.collect()  # each set-up starts from the same collector state
            around = reference_times(SETUP_REFERENCE_RUNS)
            start = time.perf_counter()
            cf = load_package()
            ops = build(cf, raw)
            setup_times.append(time.perf_counter() - start)
            setup_references.append(statistics.median(around + reference_times(SETUP_REFERENCE_RUNS)))
            return cf, ops

        cf, ops = set_up()
        # The inputs live for the whole run: keep the collector from
        # rescanning them, so that a collection costs what the operation's
        # own garbage costs.
        gc.collect()
        gc.freeze()

        runner = Runner(ops)
        deadline = time.perf_counter() + args.seconds
        runner.gate()
        if args.trace:
            metrics, extra = traced(runner, build, raw, cf, deadline, ROOT / ".bench_out", tag)
            samples = {"per_layer": "traced set-up plus one traced pass", **extra}
        else:
            # Set-up repeats between passes, spread evenly over the run, so
            # that the set-ups sample the host's speed over the whole run
            # rather than at its start.
            start = time.perf_counter()

            def between():
                if len(setup_times) < 1 + (SETUP_REPEATS - 1) * (time.perf_counter() - start) / args.seconds:
                    set_up()

            runner.passes(deadline, between=between)
            while len(setup_times) < SETUP_REPEATS:
                set_up()
            metrics, samples = end_to_end(runner, setup_times, setup_references)
    finally:
        gc.unfreeze()
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    counts = [len(s) for op, s in zip(runner.ops, runner.samples) if op.timed] or [0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": len(runner.ops),
        "samples_per_input": [min(counts), max(counts)],
        "digest": runner.digest(),
        "problems": runner.problems,
        "samples": samples,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
