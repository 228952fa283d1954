"""Command-line interface: solve, check, oracle, gen, color-tree.

Exit codes: 0 success (all reported checks true), 1 failed check or no
allocation found, 2 inapplicable algorithm, invalid parameters or an
unwritable output path, 3 parse error, 4 no applicable algorithm (n = 1, or
n >= 3, with m > n+1), 5 enumeration budget exceeded, 6 reduction
precondition failure, 7 a solver's internal invariant failed.

``main`` maps the exceptions a command raises to codes by one table,
``EXIT_CODES``; a command handles a plain ``ValueError`` itself only where
it means something specific to that one call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from .core import is_ef1, is_maximal, validate_allocation
from .solver import ALGORITHMS, InapplicableError, NoAlgorithmError, solve
from .oracle import BudgetExceededError, EnumerationBudget, compute_gamma, count_maximal_allocations, exists_maximal_ef1
from .oracle import require_gamma_applies
from .hardness import ISInstance, build_reduction, gen_counterexample
from .treecolor import RootedTree, equitable_tree_coloring
from . import serialization as ser

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INAPPLICABLE = 2
EXIT_PARSE = 3
EXIT_NO_ALGORITHM = 4
EXIT_BUDGET = 5
EXIT_REDUCTION_PRECONDITION = 6
EXIT_INVARIANT = 7

# Checked in order by isinstance; a RuntimeError is EXIT_INVARIANT. Reads
# raise ParseError, so an OSError comes from writing an output file.
EXIT_CODES = {
    ser.ParseError: EXIT_PARSE,
    NoAlgorithmError: EXIT_NO_ALGORITHM,
    InapplicableError: EXIT_INAPPLICABLE,
    BudgetExceededError: EXIT_BUDGET,
    OSError: EXIT_INAPPLICABLE,
}


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _fail(code: int, message: str) -> int:
    print(f"error:{message}", file=sys.stderr)
    return code


def _certificate(instance, allocation) -> dict:
    return {"maximal": is_maximal(instance, allocation), "ef1": is_ef1(instance, allocation)}


def cmd_solve(args) -> int:
    instance, intervals = ser.instance_from_json(ser.load_json(args.instance))
    solution = solve(instance, args.algorithm, intervals)
    print(f"algorithm:{solution.algorithm}")
    allocation = solution.allocation
    if allocation is None:
        print("found:false")
        return EXIT_FAILED_CHECK

    report = validate_allocation(instance, allocation)
    certificate = _certificate(instance, allocation)
    print("found:true")
    print(f"bundles:{[sorted(b) for b in allocation.bundles]}")
    print(f"maximal:{_bool(certificate['maximal'])}")
    print(f"ef1:{_bool(certificate['ef1'])}")
    if args.out:
        ser.dump_json(args.out, ser.allocation_to_json(allocation, certificate))
        print(f"out:{args.out}")
    ok = report.wellformed and certificate["maximal"] and certificate["ef1"]
    return EXIT_OK if ok else EXIT_FAILED_CHECK


def cmd_check(args) -> int:
    instance, _ = ser.instance_from_json(ser.load_json(args.instance))
    allocation, _ = ser.allocation_from_json(ser.load_json(args.allocation))
    try:
        report = validate_allocation(instance, allocation)
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    certificate = _certificate(instance, allocation)
    print(f"wellformed:{_bool(report.wellformed)}")
    print(f"maximal:{_bool(certificate['maximal'])}")
    print(f"ef1:{_bool(certificate['ef1'])}")
    ok = report.wellformed and certificate["maximal"] and certificate["ef1"]
    return EXIT_OK if ok else EXIT_FAILED_CHECK


def cmd_oracle(args) -> int:
    start = time.monotonic()
    if args.wall_clock is not None and math.isnan(args.wall_clock):
        return _fail(EXIT_INAPPLICABLE, "--wall-clock must be a number of seconds, not nan")

    def budget() -> EnumerationBudget:
        """--wall-clock bounds the whole command: each search gets the time left."""
        left = None if args.wall_clock is None else args.wall_clock - (time.monotonic() - start)
        return EnumerationBudget(max_assignments=args.max_assignments, wall_clock_seconds=left)

    instance, _ = ser.instance_from_json(ser.load_json(args.instance))
    if args.gamma:
        require_gamma_applies(instance)  # exit 2 before any search
    result = exists_maximal_ef1(instance, budget())
    print(f"exists:{_bool(result.exists)}")
    if args.witness:
        if result.exists:
            certificate = _certificate(instance, result.witness)
            ser.dump_json(args.witness, ser.allocation_to_json(result.witness, certificate))
            print(f"witness:{args.witness}")
        else:
            print("witness:none")
    if args.count:
        print(f"count:{count_maximal_allocations(instance, budget())}")
    if args.gamma:
        print(f"gamma:{compute_gamma(instance, budget())}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "counterexample":
        if args.n is None or not 3 <= args.n <= ser.SIZE_LIMIT:
            return _fail(EXIT_INAPPLICABLE, f"counterexample needs 3 <= --n <= {ser.SIZE_LIMIT}")
        instance = gen_counterexample(args.n)
        ser.dump_json(args.out, ser.instance_to_json(instance))
        print(f"goods:{instance.m}")
        print(f"edges:{len(instance.graph.edges)}")
        print(f"out:{args.out}")
        return EXIT_OK

    if args.base is None or args.graph is None or args.t is None:
        return _fail(EXIT_INAPPLICABLE, "reduction needs --base, --graph and --t")
    base, _ = ser.instance_from_json(ser.load_json(args.base))
    h = ser.graph_from_json(ser.load_json(args.graph))
    if not 1 <= args.t <= h.m:
        return _fail(EXIT_INAPPLICABLE, f"need 1 <= t <= |V_H| = {h.m}")
    is_instance = ISInstance(h, args.t)
    try:
        instance, spec = build_reduction(base, is_instance)
    except ValueError as exc:
        return _fail(EXIT_REDUCTION_PRECONDITION, str(exc))
    ser.dump_json(args.out, ser.instance_to_json(instance))
    spec_path = args.spec or args.out + ".spec.json"
    sidecar = {
        "gamma": str(spec.gamma),
        "lambda": str(spec.lam),
        "t": spec.is_instance.t,
        "goods": instance.m,
        "goodMap": {
            "base": [spec.good_map.base.start, spec.good_map.base.stop],
            "x": [[r.start, r.stop] for r in spec.good_map.x],
            "y": [[r.start, r.stop] for r in spec.good_map.y],
        },
    }
    try:
        ser.dump_json(spec_path, sidecar)
    except OSError:
        os.remove(args.out)  # no reduced instance without its sidecar
        raise
    print(f"goods:{instance.m}")
    print(f"edges:{len(instance.graph.edges)}")
    print(f"gamma:{spec.gamma}")
    print(f"lambda:{spec.lam}")
    print(f"out:{args.out}")
    print(f"spec:{spec_path}")
    return EXIT_OK


def cmd_color_tree(args) -> int:
    graph = ser.graph_from_json(ser.load_json(args.tree))
    try:
        tree = RootedTree(graph)
    except ValueError as exc:
        return _fail(EXIT_INAPPLICABLE, f"input graph is not a tree: {exc}")
    if not 1 <= args.n <= ser.SIZE_LIMIT:
        return _fail(EXIT_INAPPLICABLE, f"need 1 <= --n <= {ser.SIZE_LIMIT}")
    coloring = equitable_tree_coloring(tree, args.n)
    colors = [c if c is not None else 0 for c in coloring.colors]
    print(f"colors:{colors}")
    print(f"classSizes:{list(coloring.class_sizes)}")
    if args.out:
        ser.dump_json(args.out, {"colors": colors, "classSizes": list(coloring.class_sizes)})
        print(f"out:{args.out}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(ser.to_dot(graph, coloring.classes(), name="tree"))
        print(f"dot:{args.dot}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="conflictfair",
        description="Maximal EF1 allocation under graph conflict constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a maximal EF1 allocation")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--algorithm",
        choices=["auto", *ALGORITHMS],
        default="auto",
    )
    solve.add_argument("--out", help="write the allocation JSON here")

    check = sub.add_parser("check", help="validate an allocation against an instance")
    check.add_argument("instance")
    check.add_argument("allocation")

    oracle = sub.add_parser("oracle", help="brute-force existence of a maximal EF1 allocation")
    oracle.add_argument("instance")
    oracle.add_argument("--witness", help="write a witness allocation here if one exists")
    oracle.add_argument("--count", action="store_true", help="also count maximal allocations")
    oracle.add_argument("--gamma", action="store_true", help="also report the reduction parameter gamma")
    oracle.add_argument("--max-assignments", type=int, default=EnumerationBudget().max_assignments)
    oracle.add_argument(
        "--wall-clock",
        type=float,
        default=None,
        help="seconds for the whole command; each search gets the time left (exit 5 when spent; nan is refused)",
    )

    gen = sub.add_parser("gen", help="generate counterexample or reduction instances")
    gen.add_argument("kind", choices=["counterexample", "reduction"])
    gen.add_argument("out", help="output instance JSON file")
    gen.add_argument("--n", type=int, help="agent count for the counterexample")
    gen.add_argument("--base", help="base instance file for the reduction")
    gen.add_argument("--graph", help="independent-set graph file for the reduction")
    gen.add_argument("--t", type=int, help="independent-set target size")
    gen.add_argument("--spec", help="reduction sidecar path (default: OUT.spec.json)")

    color = sub.add_parser("color-tree", help="maximal equitable n-coloring of a tree")
    color.add_argument("tree", help="graph JSON file that must be a tree")
    color.add_argument("--n", type=int, required=True)
    color.add_argument("--out", help="write the coloring JSON here")
    color.add_argument("--dot", help="write a Graphviz rendering here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up by name on each call, so that a wrapper bound to the module
    # attribute (as the traced benchmark binds one) is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except tuple(EXIT_CODES) as exc:
        return _fail(next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), str(exc))
    except RuntimeError as exc:
        return _fail(EXIT_INVARIANT, f"internal invariant failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
