"""Seeded workloads for the conflictfair benchmark.

There are two workloads, each made of two parts: ``chain-additive`` runs the
swap part and the interval part, ``oracle-files`` the oracle part and the
CLI part. Each part has two halves:

* ``generate(rng)`` makes the raw inputs (plain lists, ints and Fractions,
  and for the CLI part JSON files in the working directory) from the
  seeded generator. It touches nothing in the package and is not timed.
* ``build(cf, raw)`` turns the raw inputs into program inputs through the
  package's public constructors and returns the operation list. Its time,
  together with the package import, is the workload's set-up time.

An :class:`Op` is one solver, oracle or CLI call on one input. ``call``
resolves every package function through module attributes at call time, so
the traced run sees the wrappers installed on those attributes. ``check``
runs the definitional checkers on a result outside the timed region and
returns a problem description or ``None``; ``summary`` reduces a result to
plain data for the output digest and for comparing repeated runs. An op
with ``timed`` false runs in the gate pass and the traced pass only: it is
checked, but not repeated and not counted in the end-to-end metrics.

Sizes are drawn from continuous ranges by stratified sampling: every input
gets its own stratum of each range (for two ranges, its own cell of a grid
over both), so two seeds cover the ranges alike and the per-run figures move
little from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    summary: Callable[[Any], Any]
    # (n+1)^m when the call always sweeps every labeling, else 0.
    full_sweep: int = 0
    timed: bool = True


def stratified(rng, count: int, lo: float, hi: float) -> list:
    """One uniform draw from each of ``count`` equal strata of [lo, hi),
    in random order."""
    draws = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def grid(rng, rows: int, cols: int, first: tuple, second: tuple) -> list:
    """One uniform draw from each cell of a ``rows`` x ``cols`` grid over
    ``first`` x ``second``, in random order. Unlike two independent
    stratified draws, every seed pairs the two ranges' strata alike."""
    (a_lo, a_hi), (b_lo, b_hi) = first, second
    cells = [
        (a_lo + (a_hi - a_lo) * (i + rng.random()) / rows, b_lo + (b_hi - b_lo) * (j + rng.random()) / cols)
        for i in range(rows)
        for j in range(cols)
    ]
    rng.shuffle(cells)
    return cells


def balanced(rng, count: int, choices) -> list:
    """``count`` picks cycling through ``choices``, in random order."""
    picks = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def random_edges(rng, m: int, count: int) -> list:
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    return sorted(rng.sample(pairs, min(count, len(pairs))))


def random_values(rng, m: int) -> list:
    return [Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(m)]


def monotone_table(rng, m: int, step: int) -> dict:
    """Monotone non-decreasing set function over bitmasks with v({}) = 0."""
    entries = {0: Fraction(0)}
    for mask in sorted(range(1, 1 << m), key=lambda x: bin(x).count("1")):
        best = max(entries[mask & ~(1 << g)] for g in range(m) if mask >> g & 1)
        entries[mask] = best + rng.randint(0, step)
    return entries


def overlap_edges(intervals) -> list:
    """Pairs of half-open intervals that intersect."""
    return [
        (i, j)
        for i, (li, ri) in enumerate(intervals)
        for j in range(i + 1, len(intervals))
        if li < intervals[j][1] and intervals[j][0] < ri
    ]


def bundles_of(allocation) -> tuple:
    return tuple(tuple(sorted(b)) for b in allocation.bundles)


def allocation_problem(cf, instance, allocation) -> Optional[str]:
    """The definitional checks every produced allocation must pass."""
    if not cf.core.validate_allocation(instance, allocation).wellformed:
        return "allocation is not well formed"
    if not cf.core.is_maximal(instance, allocation):
        return "allocation is not maximal"
    if not cf.core.is_ef1(instance, allocation):
        return "allocation is not EF1"
    return None


# --- swap part (chain-additive) --------------------------------------------

# A grid of 20 sizes x 20 average degrees. Sizes stay small so that a pass
# over the workload takes one to two seconds and each input is sampled a few
# dozen times in a run, in the host's fast and slow spells alike.
SWAP_GRID = (20, 20)
SWAP_SIZES = (20, 41)
SWAP_DEGREES = (2, 8)


def generate_swap(rng):
    cells = grid(rng, *SWAP_GRID, SWAP_SIZES, SWAP_DEGREES)
    kinds = balanced(rng, len(cells), ("goods", "chores"))
    raw = []
    for (size, degree), kind in zip(cells, kinds):
        m = int(size)
        edges = random_edges(rng, m, round(degree * m / 2))
        raw.append((m, edges, random_values(rng, m), kind))
    return raw


def build_swap(cf, raw):
    ops = []
    for i, (m, edges, values, kind) in enumerate(raw):
        graph = cf.ConflictGraph(m, edges)
        if kind == "goods":
            instance = cf.Instance(graph, 2, cf.Additive(values))
            checked = (instance,)
        else:
            chores = cf.Instance(graph, 2, cf.Additive([-v for v in values]), cf.CHORES)
            instance = cf.Instance(graph, 2, cf.Negated(chores.identical_model), cf.GOODS)
            checked = (instance, chores)
        ops.append(Op(
            f"swap[{i}] m={m} {kind}",
            lambda inst=instance: cf.swap.swap_ef1(inst),
            lambda out, checked=checked: next(
                (p for inst in checked if (p := allocation_problem(cf, inst, out[0]))), None
            ),
            lambda out: (bundles_of(out[0]), len(out[1])),
        ))
    return ops


# --- interval part (chain-additive) ----------------------------------------

# A grid of 15 sizes x 12 mean point coverages.
INTERVAL_GRID = (15, 12)
INTERVAL_SIZES = (24, 49)
INTERVAL_LOADS = (3.0, 10.0)


def generate_interval(rng):
    raw = []
    for size, load in grid(rng, *INTERVAL_GRID, INTERVAL_SIZES, INTERVAL_LOADS):
        m = int(size)
        span = 10 * m
        mean = load * span / m  # mean point coverage is about `load`
        intervals = []
        for _ in range(m):
            length = rng.uniform(0.2, 1.0) if rng.random() < 0.7 else rng.uniform(1.0, 2.9)
            length = max(1, round(length * mean))
            left = rng.randint(0, span)
            intervals.append((left, left + length))
        raw.append((m, intervals, overlap_edges(intervals), random_values(rng, m)))
    return raw


def build_interval(cf, raw):
    ops = []
    for i, (m, intervals, edges, values) in enumerate(raw):
        instance = cf.Instance(cf.ConflictGraph(m, edges), 2, cf.Additive(values))
        interval_set = cf.IntervalSet(intervals)
        ops.append(Op(
            f"interval[{i}] m={m}",
            lambda inst=instance, ivs=interval_set: cf.graph_classes.interval_ef1(inst, ivs),
            lambda out, inst=instance: allocation_problem(cf, inst, out),
            bundles_of,
        ))
    return ops


# --- oracle part (oracle-files) --------------------------------------------

# Pinned at the seed commit: counts of maximal allocations of the n-agent
# counterexamples, none of which is EF1, and gamma of the 3- and 4-agent ones.
COUNTEREXAMPLE_COUNTS = {3: 102, 4: 420, 5: 7100}
COUNTEREXAMPLE_GAMMA = {3: Fraction(1), 4: Fraction(1)}
ORACLE_SHAPES = [(n, m, kind) for n in (2, 3) for m in (6, 7, 8) for kind in ("additive", "table")]
ORACLE_REPEATS = 3
# The 5-agent counterexample's sweeps take about two seconds: they are
# checked in the gate pass but not repeated, so that a pass stays short.
UNTIMED_COUNTEREXAMPLES = (5,)
REDUCTION_GRAPH_SIZE = 4


def generate_oracle(rng):
    shapes = ORACLE_SHAPES * ORACLE_REPEATS
    densities = stratified(rng, len(shapes), 0.15, 0.6)
    small = []
    for (n, m, kind), density in zip(shapes, densities):
        pairs = m * (m - 1) // 2
        edges = random_edges(rng, m, round(density * pairs))
        agents = 1 if n == 2 else n  # n = 2 is identical, n = 3 per agent
        if kind == "additive":
            models = [[rng.randint(0, 9) for _ in range(m)] for _ in range(agents)]
        else:
            models = [monotone_table(rng, m, 3) for _ in range(agents)]
        small.append((n, m, kind, edges, models))
    h = REDUCTION_GRAPH_SIZE
    is_edges = random_edges(rng, h, rng.randint(1, h * (h - 1) // 2 - 1))
    independent = [
        [v for v in range(h) if mask >> v & 1]
        for mask in range(1 << h)
        if not any(mask >> u & 1 and mask >> v & 1 for u, v in is_edges)
    ]
    witness = max(independent, key=len)
    return small, (h, is_edges, witness)


def build_oracle(cf, raw):
    small, (h, is_edges, witness) = raw
    counterexamples = {n: cf.hardness.gen_counterexample(n) for n in COUNTEREXAMPLE_COUNTS}
    is_instance = cf.hardness.ISInstance(cf.ConflictGraph(h, is_edges), len(witness))
    oracle = cf.oracle
    ops = []

    for n, instance in counterexamples.items():
        sweep = (n + 1) ** instance.m
        ops.append(Op(
            f"exists cx{n}",
            lambda inst=instance: oracle.exists_maximal_ef1(inst),
            lambda out: "counterexample has a maximal EF1 allocation" if out.exists else None,
            lambda out: (out.exists, out.witness and bundles_of(out.witness)),
            sweep,
            n not in UNTIMED_COUNTEREXAMPLES,
        ))
        ops.append(Op(
            f"count cx{n}",
            lambda inst=instance: oracle.count_maximal_allocations(inst),
            lambda out, want=COUNTEREXAMPLE_COUNTS[n]: None if out == want else f"count {out} != {want}",
            lambda out: out,
            sweep,
            n not in UNTIMED_COUNTEREXAMPLES,
        ))
    for n, want in COUNTEREXAMPLE_GAMMA.items():
        instance = counterexamples[n]
        ops.append(Op(
            f"gamma cx{n}",
            lambda inst=instance: oracle.compute_gamma(inst),
            lambda out, want=want: None if out == want else f"gamma {out} != {want}",
            str,
            (n + 1) ** instance.m,
        ))

    def reduction_problem(out):
        reduced, spec = out
        if spec.gamma != COUNTEREXAMPLE_GAMMA[3] or spec.lam != spec.gamma / len(witness):
            return f"reduction has gamma {spec.gamma}, lambda {spec.lam}"
        return allocation_problem(cf, reduced, cf.hardness.yes_certificate(spec, witness))

    ops.append(Op(
        "reduction cx3",
        lambda: cf.hardness.build_reduction(counterexamples[3], is_instance),
        reduction_problem,
        lambda out: (out[0].m, len(out[0].graph.edges), str(out[1].gamma), str(out[1].lam)),
    ))

    for i, (n, m, kind, edges, models) in enumerate(small):
        graph = cf.ConflictGraph(m, edges)
        built = [cf.Additive(spec) if kind == "additive" else cf.Table(m, spec) for spec in models]
        instance = cf.Instance(graph, n, built[0] if n == 2 else built)
        sweep = (n + 1) ** m

        def exists_problem(out, inst=instance):
            if inst.n == 2 and not out.exists:
                return "two-agent identical instance has no maximal EF1 allocation"
            return allocation_problem(cf, inst, out.witness) if out.exists else None

        ops.append(Op(
            f"exists small[{i}] n={n} m={m} {kind}",
            lambda inst=instance: oracle.exists_maximal_ef1(inst),
            exists_problem,
            lambda out: (out.exists, out.witness and bundles_of(out.witness)),
        ))
        ops.append(Op(
            f"count small[{i}] n={n} m={m} {kind}",
            lambda inst=instance: oracle.count_maximal_allocations(inst),
            lambda out: None if out >= 1 else "no maximal allocation counted",
            lambda out: out,
            sweep,
        ))
    return ops


# --- CLI part (oracle-files) -----------------------------------------------

# Table files have m in 8..12; counts that are multiples of five give every
# seed the same number of files of each size.
CLI_TABLE_GOODS = 10
CLI_TABLE_CHORES = 5
CLI_DISTINCT = 5
CLI_ROUND_ROBIN = 8
CLI_INTERVAL = 8
CLI_TREES = 8


def _table_json(entries) -> dict:
    return {"type": "table", "entries": [[str(k), str(v)] for k, v in sorted(entries.items())]}


def _additive_json(values) -> dict:
    return {"type": "additive", "values": [str(v) for v in values]}


def _instance_json(n, m, edges, valuations, mode="goods", intervals=None) -> dict:
    data = {"agents": n, "goods": m, "edges": [list(e) for e in edges], "mode": mode, "valuations": valuations}
    if intervals is not None:
        data["intervals"] = [[str(l), str(r)] for l, r in intervals]
    return data


def generate_cli(rng):
    """Write the instance and tree files into the working directory;
    return (instance files, trees)."""
    files = []

    def table_graph(size):
        m = int(size)
        return m, random_edges(rng, m, round(rng.uniform(0.15, 0.45) * m * (m - 1) / 2))

    for i, size in enumerate(stratified(rng, CLI_TABLE_GOODS, 8, 13)):
        m, edges = table_graph(size)
        identical = {"identical": _table_json(monotone_table(rng, m, 4))}
        files.append((f"table_goods_{i}.json", _instance_json(2, m, edges, identical)))
    for i, size in enumerate(stratified(rng, CLI_TABLE_CHORES, 8, 13)):
        m, edges = table_graph(size)
        identical = {"identical": {"type": "negated", "inner": _table_json(monotone_table(rng, m, 4))}}
        files.append((f"table_chores_{i}.json", _instance_json(2, m, edges, identical, mode="chores")))
    for i, size in enumerate(stratified(rng, CLI_DISTINCT, 8, 13)):
        m, edges = table_graph(size)
        per_agent = [_table_json(monotone_table(rng, m, 4)), _additive_json(random_values(rng, m))]
        files.append((f"distinct_{i}.json", _instance_json(2, m, edges, {"perAgent": per_agent})))
    for i in range(CLI_ROUND_ROBIN):
        n = rng.randint(3, 6)
        m = n + 1
        edges = random_edges(rng, m, rng.randint(1, m))
        per_agent = [_additive_json(random_values(rng, m)) for _ in range(n)]
        files.append((f"round_robin_{i}.json", _instance_json(n, m, edges, {"perAgent": per_agent})))
    for i, size in enumerate(stratified(rng, CLI_INTERVAL, 20, 41)):
        m = int(size)
        intervals = []
        for _ in range(m):
            left = rng.randint(0, 4 * m)
            intervals.append((left, left + rng.randint(1, 12)))
        identical = {"identical": _additive_json(random_values(rng, m))}
        files.append((f"interval_{i}.json", _instance_json(2, m, overlap_edges(intervals), identical, intervals=intervals)))

    trees = []
    for i, vertices in enumerate(stratified(rng, CLI_TREES, 900, 1100)):
        v = int(vertices)
        edges = [(rng.randrange(w), w) for w in range(1, v)]
        trees.append((f"tree_{i}.json", {"vertices": v, "edges": [list(e) for e in edges]}, rng.randint(2, 5)))

    for name, data in files + [(name, data) for name, data, _ in trees]:
        with open(name, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    return [name for name, _ in files], [(name, colors) for name, _, colors in trees]


def run_cli(cf, argv) -> tuple:
    """In-process ``conflictfair`` call: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cf.cli.main(argv)
    return code, out.getvalue()


def _lines(stdout: str) -> dict:
    return dict(line.split(":", 1) for line in stdout.splitlines() if ":" in line)


def _expect(code, stdout, want: dict) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    lines = _lines(stdout)
    wrong = [k for k, v in want.items() if lines.get(k) != v]
    return f"unexpected {', '.join(wrong)} in output" if wrong else None


def build_cli(cf, raw):
    names, trees = raw
    ser = cf.serialization
    ops = []
    for name in names:
        instance, _ = ser.instance_from_json(ser.load_json(name))
        out_name = name.replace(".json", ".alloc.json")

        def solve_problem(out, inst=instance):
            problem = _expect(*out, {"found": "true", "maximal": "true", "ef1": "true"})
            if problem:
                return problem
            bundles = json.loads(_lines(out[1])["bundles"])
            return allocation_problem(cf, inst, cf.Allocation(bundles))

        ops.append(Op(
            f"solve {name}",
            lambda argv=["solve", name, "--algorithm", "auto", "--out", out_name]: run_cli(cf, argv),
            solve_problem,
            lambda out: out,
        ))
        ops.append(Op(
            f"check {name}",
            lambda argv=["check", name, out_name]: run_cli(cf, argv),
            lambda out: _expect(*out, {"wellformed": "true", "maximal": "true", "ef1": "true"}),
            lambda out: out,
        ))
    for name, colors in trees:
        graph = ser.graph_from_json(ser.load_json(name))

        def coloring_problem(out, graph=graph, colors=colors):
            if out[0] != 0:
                return f"exit code {out[0]}"
            printed = json.loads(_lines(out[1])["colors"])
            problems = cf.treecolor.coloring_violations(graph, [c or None for c in printed], colors)
            return "; ".join(problems) or None

        ops.append(Op(
            f"color-tree {name} n={colors}",
            lambda argv=["color-tree", name, "--n", str(colors)]: run_cli(cf, argv),
            coloring_problem,
            lambda out: out,
        ))
    return ops


# --- workloads -------------------------------------------------------------


def combine(*parts):
    """A workload running each (generate, build) part in turn."""

    def generate(rng):
        return [gen(rng) for gen, _ in parts]

    def build(cf, raw):
        return [op for (_, part_build), part_raw in zip(parts, raw) for op in part_build(cf, part_raw)]

    return generate, build


WORKLOADS = {
    "chain-additive": combine((generate_swap, build_swap), (generate_interval, build_interval)),
    "oracle-files": combine((generate_oracle, build_oracle), (generate_cli, build_cli)),
}
