"""Fuzzing the CLI's file inputs: every generated or mutated instance and
allocation file ends in an exit code from the README table, never in an
escaped exception or an internal-invariant failure (exit 7), and every
allocation that ``solve`` reports as found is maximal and EF1."""

import contextlib
import copy
import io
import json

from hypothesis import example, given, settings, strategies as st

from conflictfair import cli, serialization
from conflictfair.solver import ALGORITHMS

EXPECTED_EXIT_CODES = range(7)  # the README table without 7, which marks a solver bug

RATIONALS = st.sampled_from(["0", "1", "2", "3", "1/2", "7/3"])
JUNK = st.sampled_from(["x", "-1", "1/0", "goods", 1.5, 2.0, True, None, [], {}, -1, 0, 7, 10**6, [0, 1], [[0]]])

# Four reproducers: nesting deeper than the JSON decoder's recursion limit;
# m = n+1 chores with per-agent valuations, where agents that each take
# their worst remaining chore leave the one holding two chores envious; a
# model nested 983 levels deep, which parsed at the top of a fresh
# interpreter and then overflowed the stack while solving; and an output
# path in a missing directory, which escaped as a FileNotFoundError.
DEEP_NESTING = "[" * 5000 + "]" * 5000
DEEP_MODEL = (
    '{"agents": 2, "goods": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "mode": "chores", "valuations": {"identical": '
    + '{"type": "negated", "inner": ' * 983
    + '{"type": "additive", "values": ["1", "2", "3", "4", "5"]}'
    + "}" * 984
)
# Pairs of negated models wrapped around a model: a few drawn depths straddle
# the nesting limit.
NEGATED_PAIRS = st.sampled_from([0] * 6 + [serialization._MODEL_NESTING_LIMIT // 2 + k for k in (-1, 0, 1)])
CHORES_PER_AGENT = json.dumps(
    {
        "agents": 2,
        "goods": 3,
        "edges": [[0, 2]],
        "mode": "chores",
        "valuations": {
            "perAgent": [
                {"type": "additive", "values": ["-2", "-2", "-1"]},
                {"type": "additive", "values": ["-1", "-2", "-2"]},
            ]
        },
    }
)


@st.composite
def goods_models(draw, m, depth=1):
    """A monotone non-decreasing model over m goods, in its file form."""
    kind = draw(st.sampled_from(["additive", "uniform", "table"] + (["composite"] if depth else [])))
    if kind == "additive":
        return {"type": "additive", "values": draw(st.lists(RATIONALS, min_size=m, max_size=m))}
    if kind == "uniform":
        return {"type": "uniform"}
    if kind == "table":
        weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        bonus = draw(st.integers(0, 2))  # the same for every non-empty set, so still monotone
        entries = [
            [str(mask), str(sum(w for g, w in enumerate(weights) if mask >> g & 1) + (bonus if mask else 0))]
            for mask in range(1 << m)
        ]
        return {"type": "table", "entries": entries}
    base_goods = draw(st.integers(0, m))
    return {
        "type": "composite",
        "baseGoods": base_goods,
        "base": draw(goods_models(base_goods, depth - 1)),
        "tail": draw(st.lists(RATIONALS, min_size=m, max_size=m)),
    }


@st.composite
def instance_documents(draw):
    """Well-formed instances: every model type, both modes, identical or
    per-agent valuations, and an edge list or an interval list."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["goods", "chores"]))

    def model():
        inner = draw(goods_models(m))
        for _ in range(2 * draw(NEGATED_PAIRS)):
            inner = {"type": "negated", "inner": inner}
        return {"type": "negated", "inner": inner} if mode == "chores" else inner

    valuations = {"identical": model()} if draw(st.booleans()) else {"perAgent": [model() for _ in range(n)]}
    doc = {"agents": n, "goods": m, "mode": mode, "valuations": valuations}
    if draw(st.booleans()):
        starts = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
        spans = [(l, l + draw(st.integers(1, 4))) for l in starts]
        doc["intervals"] = [[str(l), str(r)] for l, r in spans]
        doc["edges"] = [
            [g, h] for g in range(m) for h in range(g + 1, m) if spans[g][0] < spans[h][1] and spans[h][0] < spans[g][1]
        ]
    else:
        pairs = [[g, h] for g in range(m) for h in range(g + 1, m)]
        doc["edges"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    return doc


def _slots(node):
    """Every (container, key) pair in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@st.composite
def mutated(draw, documents):
    """A document with up to three mutations: a value of the wrong type or
    out of range, a removed key or list item, or an extra one."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        # copies, so that no list or object appears twice or changes a constant
        value = copy.deepcopy(draw(st.one_of(JUNK, st.just(container[key]))))
        if action == "replace":
            container[key] = value
        elif action == "remove":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, value)
        else:
            container[draw(st.sampled_from(["extra", "edges", "intervals", "mode"]))] = value
    return json.dumps(doc)


allocation_documents = st.integers(0, 4).flatmap(
    lambda n: st.fixed_dictionaries({"bundles": st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=n, max_size=n)})
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXPECTED_EXIT_CODES, (argv, code, err.getvalue())
    return code, dict(line.split(":", 1) for line in out.getvalue().splitlines())


@settings(max_examples=150, deadline=None)
@given(
    instance=mutated(instance_documents()),
    allocation=mutated(allocation_documents),
    unwritable=st.sampled_from([False] * 4 + [True]),
)
@example(instance=DEEP_NESTING, allocation='{"bundles": []}', unwritable=False)
@example(instance=CHORES_PER_AGENT, allocation='{"bundles": [[0], [1, 2]]}', unwritable=False)
@example(instance=DEEP_MODEL, allocation='{"bundles": []}', unwritable=False)
@example(instance=CHORES_PER_AGENT, allocation='{"bundles": []}', unwritable=True)
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, instance, allocation, unwritable):
    directory = tmp_path_factory.mktemp("fuzz")
    instance_path, allocation_path = str(directory / "instance.json"), str(directory / "allocation.json")
    # with ``unwritable``, --out and --witness point into a directory that is not there
    output_directory = directory / "missing" if unwritable else directory
    solved_path, witness_path = str(output_directory / "solved.json"), str(output_directory / "witness.json")
    (directory / "instance.json").write_text(instance)
    (directory / "allocation.json").write_text(allocation)
    for algorithm in ("auto", *ALGORITHMS):
        _, report = _run(["solve", instance_path, "--algorithm", algorithm, "--out", solved_path])
        if report.get("found") == "true":
            assert report["maximal"] == "true" and report["ef1"] == "true", (algorithm, report)
            if not unwritable:
                assert _run(["check", instance_path, solved_path])[0] == 0
    _run(["check", instance_path, allocation_path])
    _run(["oracle", instance_path, "--count", "--gamma", "--max-assignments", "2000", "--witness", witness_path])
