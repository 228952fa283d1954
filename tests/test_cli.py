"""Command-line surface: file formats, dispatch, exit codes, DOT export."""

import json
import pathlib
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conflictfair import (
    Additive,
    Allocation,
    ConflictGraph,
    Instance,
    Negated,
    RootedTree,
    coloring_violations,
    equitable_tree_coloring,
    gen_counterexample,
    is_ef1,
    is_maximal,
    swap_ef1,
)
from conflictfair import cli, serialization, treecolor
from conflictfair.cli import main
from conflictfair.core import DENOMINATOR_BITS
from conflictfair.serialization import (
    SIZE_LIMIT,
    ParseError,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    rational_from_str,
    to_dot,
)
from conflictfair.graph_classes import IntervalSet

from conftest import one_pair_violation, random_graph, random_intervals, random_monotone_table, random_tree_edges


HUGE_DENOMINATOR = f"1/{2 ** DENOMINATOR_BITS}"
DENOMINATOR_MESSAGE = f"common denominator of the values exceeds {DENOMINATOR_BITS} bits"


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def path_instance(tmp_path):
    return write(
        tmp_path,
        "path.json",
        {
            "agents": 2,
            "goods": 3,
            "edges": [[0, 1], [1, 2]],
            "mode": "goods",
            "valuations": {"identical": {"type": "additive", "values": ["5", "0", "5"]}},
        },
    )


def negated_document(depth, values=("5", "0", "5")):
    """An instance on a path whose additive model sits inside ``depth``
    negated models, in the mode that keeps the model valid."""
    model = {"type": "additive", "values": list(values)}
    for _ in range(depth):
        model = {"type": "negated", "inner": model}
    edges = [[g, g + 1] for g in range(len(values) - 1)]
    mode = "chores" if depth % 2 else "goods"
    return {"agents": 2, "goods": len(values), "edges": edges, "mode": mode, "valuations": {"identical": model}}


def alternating_document(depth, mode, values=("5", "0", "5", "1", "2")):
    """An instance on a path in ``mode`` whose additive model sits inside
    ``depth`` models, negated and composite in turn from the outside in,
    each composite over all goods with a tail of 1 (or -1) per good."""
    modes = [mode]  # the mode each level must be valid in, outermost first
    for level in range(depth):
        negated = level % 2 == 0
        modes.append({"goods": "chores", "chores": "goods"}[modes[-1]] if negated else modes[-1])
    sign = lambda level: "" if modes[level] == "goods" else "-"
    model = {"type": "additive", "values": [sign(depth) + v for v in values]}
    for level in reversed(range(depth)):
        if level % 2 == 0:
            model = {"type": "negated", "inner": model}
        else:
            model = {"type": "composite", "baseGoods": len(values), "base": model, "tail": [sign(level) + "1"] * len(values)}
    edges = [[g, g + 1] for g in range(len(values) - 1)]
    return {"agents": 2, "goods": len(values), "edges": edges, "mode": mode, "valuations": {"identical": model}}


def one_good_table(entries):
    """A change to ``path_instance``: one good, whose table has ``entries``."""
    return {"goods": 1, "edges": [], "valuations": {"identical": {"type": "table", "entries": entries}}}


def report_lines(capsys):
    return dict(
        line.split(":", 1) for line in capsys.readouterr().out.strip().splitlines()
    )


class TestSolve:
    def test_swap_on_path(self, tmp_path, capsys):
        out = str(tmp_path / "alloc.json")
        code = main(["solve", path_instance(tmp_path), "--algorithm", "swap", "--out", out])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["bundles"] == "[[2], [0]]"
        assert lines["maximal"] == "true" and lines["ef1"] == "true"
        saved = json.loads(pathlib.Path(out).read_text())
        assert saved["bundles"] == [[2], [0]]
        assert saved["certificate"] == {"maximal": True, "ef1": True}

    def test_two_agent_algorithms_reject_three_agents(self, tmp_path, capsys):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        for algorithm in ("swap", "chain", "bipartite", "interval"):
            assert main(["solve", cx, "--algorithm", algorithm]) == 2

    def test_roundrobin_path(self, tmp_path, capsys):
        instance = write(
            tmp_path,
            "rr.json",
            {
                "agents": 3,
                "goods": 4,
                "edges": [[0, 1], [1, 2], [2, 3]],
                "mode": "goods",
                "valuations": {
                    "identical": {"type": "additive", "values": ["4", "3", "2", "1"]}
                },
            },
        )
        code = main(["solve", instance, "--algorithm", "roundrobin"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["bundles"] == "[[0, 3], [1], [2]]"

    def test_auto_prefers_roundrobin_then_specialized(self, tmp_path, capsys):
        code = main(["solve", path_instance(tmp_path)])
        lines = report_lines(capsys)
        assert code == 0 and lines["algorithm"] == "roundrobin"

    def test_auto_uses_interval_when_present(self, tmp_path, capsys):
        iv = IntervalSet([(0, 2), (1, 3), (2, 4), (3, 5)])
        instance = Instance(iv.induced_graph(), 2, Additive([1] * 4))
        path = write(tmp_path, "iv.json", instance_to_json(instance, iv))
        code = main(["solve", path])
        lines = report_lines(capsys)
        assert code == 0 and lines["algorithm"] == "interval"

    def test_interval_file_builds_one_graph(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(6)
        iv = random_intervals(rng, 40, span=30)
        graph = iv.induced_graph()
        values = [[rng.randint(0, 9) for _ in range(40)] for _ in range(2)]
        built = []
        original = ConflictGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ConflictGraph, "__init__", counted)
        for valuations in (Additive(values[0]), [Additive(v) for v in values]):
            path = write(tmp_path, "iv.json", instance_to_json(Instance(graph, 2, valuations), iv))
            built.clear()
            assert main(["solve", path]) == 0
            assert report_lines(capsys)["algorithm"] == "interval"
            assert len(built) == 1

    def test_interval_endpoints_scale_freely(self, tmp_path, capsys):
        # Endpoints in thirds and the same endpoints times 3, as integers,
        # give the same output, through the parse's integer ranks.
        rng = random.Random(31)
        for trial in range(12):
            m = rng.randint(4, 24)
            lefts = [rng.randint(-30, 30) for _ in range(m)]
            scaled = [(l, l + rng.randint(1, 12)) for l in lefts]
            iv = IntervalSet(scaled)
            valuations = Additive([rng.randint(0, 9) for _ in range(m)])
            data = instance_to_json(Instance(iv.induced_graph(), 2, valuations, "goods"), iv)
            outputs = []
            for ends in (scaled, [(Fraction(l, 3), Fraction(r, 3)) for l, r in scaled]):
                data["intervals"] = [[str(l), str(r)] for l, r in ends]
                assert main(["solve", write(tmp_path, "iv.json", data)]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] and "algorithm:interval" in outputs[0], trial

    def test_auto_fails_for_large_three_agent_instance(self, tmp_path, capsys):
        instance = Instance(ConflictGraph(6), 3, Additive([1] * 6))
        path = write(tmp_path, "big3.json", instance_to_json(instance))
        assert main(["solve", path]) == 4

    @pytest.mark.parametrize("mode", ["goods", "chores"])
    def test_auto_fails_for_per_agent_three_agent_instance(self, tmp_path, capsys, mode):
        models = [Additive([agent + g + 1 for g in range(6)]) for agent in range(3)]
        if mode == "chores":
            models = [Negated(v) for v in models]
        path = write(tmp_path, "per3.json", instance_to_json(Instance(ConflictGraph(6), 3, models, mode)))
        assert main(["solve", path]) == 4
        assert capsys.readouterr().err == "error:no algorithm applies to 3 agents on 6 goods\n"

    def test_auto_fails_for_one_agent_on_more_than_two_goods(self, tmp_path, capsys):
        path = write(tmp_path, "one.json", instance_to_json(Instance(ConflictGraph(4), 1, Additive([1] * 4))))
        assert main(["solve", path]) == 4
        assert capsys.readouterr().err == "error:no algorithm applies to 1 agents on 4 goods\n"
        assert main(["oracle", path]) == 0
        assert report_lines(capsys)["exists"] == "true"

    @pytest.mark.parametrize("mode", ["goods", "chores"])
    @pytest.mark.parametrize("g", [0, 5])
    def test_table_with_one_violated_pair_is_rejected(self, tmp_path, capsys, mode, g):
        # The pair (j, j + 2^g) with j = 30 or 31 is the table's only
        # violation; a chores table is written with its own negative entries.
        sign = 1 if mode == "goods" else -1
        values = [sign * v for v in one_pair_violation(6, g, 31 & ~(1 << g))]
        table = {"type": "table", "entries": [[str(mask), str(v)] for mask, v in enumerate(values)]}
        edges = [[u, u + 1] for u in range(5)]
        path = write(tmp_path, "table.json", {"agents": 2, "goods": 6, "edges": edges, "mode": mode, "valuations": {"identical": table}})
        alloc = write(tmp_path, "a.json", {"bundles": [[0], [1]]})
        message = "table is not monotone " + ("non-decreasing" if mode == "goods" else "non-increasing")
        for argv in (["solve", path], ["check", path, alloc]):
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error:malformed instance file: {message}\n", argv

    def test_chores_identical_swap(self, tmp_path, capsys):
        data = {
            "agents": 2,
            "goods": 3,
            "edges": [[0, 1], [1, 2]],
            "mode": "chores",
            "valuations": {
                "identical": {"type": "additive", "values": ["-5", "0", "-5"]}
            },
        }
        path = write(tmp_path, "chores.json", data)
        code = main(["solve", path, "--algorithm", "swap"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["maximal"] == "true" and lines["ef1"] == "true"

    def test_per_agent_cut_and_choose(self, tmp_path, capsys):
        data = {
            "agents": 2,
            "goods": 4,
            "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "mode": "goods",
            "valuations": {
                "perAgent": [
                    {"type": "additive", "values": ["1", "3", "1", "3"]},
                    {"type": "additive", "values": ["3", "1", "3", "1"]},
                ]
            },
        }
        path = write(tmp_path, "two.json", data)
        code = main(["solve", path, "--algorithm", "swap"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["bundles"] == "[[3], [1]]"

    def test_chain_algorithm_success(self, tmp_path, capsys):
        code = main(["solve", path_instance(tmp_path), "--algorithm", "chain"])
        lines = report_lines(capsys)
        assert code == 0 and lines["bundles"] == "[[2], [0]]"

    def test_chain_algorithm_may_fail_where_swap_escalates(self, tmp_path, capsys):
        # the first chain of each instance has no EF1 step; the escalating
        # solver needs a second maximal set
        identical = {
            "agents": 2,
            "goods": 5,
            "edges": [[0, 1], [0, 4], [1, 2], [2, 3]],
            "mode": "goods",
            "valuations": {
                "identical": {"type": "additive", "values": ["7", "6", "1", "6", "3"]}
            },
        }
        # distinct valuations: cut-and-choose has no bundles to choose from
        distinct = {
            "agents": 2,
            "goods": 4,
            "edges": [[0, 2], [1, 2], [2, 3]],
            "mode": "goods",
            "valuations": {
                "perAgent": [
                    {"type": "additive", "values": ["5", "6", "7", "7"]},
                    {"type": "additive", "values": ["7", "1", "3", "0"]},
                ]
            },
        }
        out = tmp_path / "alloc.json"
        for data in (identical, distinct):
            path = write(tmp_path, "hard.json", data)
            code = main(["solve", path, "--algorithm", "chain", "--out", str(out)])
            lines = report_lines(capsys)
            assert code == 1 and lines == {"algorithm": "chain", "found": "false"}
            assert not out.exists()
            assert main(["solve", path, "--algorithm", "swap"]) == 0
            assert report_lines(capsys)["found"] == "true"

    def test_json_integers_are_rationals(self, tmp_path, capsys):
        # Every rational field, and the table masks, as JSON integers
        # solves as the same fields written as strings do.
        def outputs(number):
            models = [
                {"type": "additive", "values": [number(5), number(0), number(5)]},
                {"type": "table", "entries": [[number(mask), number(bin(mask).count("1"))] for mask in range(8)]},
                {"type": "composite", "baseGoods": 3, "base": {"type": "uniform"}, "tail": [number(1)] * 3},
            ]
            printed = []
            for model in models:
                data = json.loads(pathlib.Path(path_instance(tmp_path)).read_text())
                data["valuations"] = {"identical": model}
                data["intervals"] = [[number(left), number(left + 2)] for left in range(3)]
                assert main(["solve", write(tmp_path, "numbers.json", data)]) == 0
                printed.append(capsys.readouterr().out)
            return printed

        assert outputs(int) == outputs(str)

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw, message in [
            (b"{not json", "cannot read"),
            (b"[" * 5000 + b"]" * 5000, "cannot read"),
            (b"\xff\xfe{}", "cannot read"),  # not UTF-8
            (b'{"agents": ' + b"1" * 5000 + b"}", "cannot read"),  # past the int digit limit
            (b"[1, 2]", "instance file must be a JSON object"),
        ]:
            bad.write_bytes(raw)
            assert main(["solve", str(bad)]) == 3
            assert capsys.readouterr().err.startswith("error:" + message), raw[:10]
        table = [[True if mask == 1 else str(mask), "0"] for mask in range(8)]
        composite = {"type": "composite", "baseGoods": 1.5, "base": {"type": "uniform"}, "tail": ["0"] * 3}
        too_deep = {"type": "uniform"}
        for _ in range(serialization._MODEL_NESTING_LIMIT + 1):
            too_deep = {"type": "composite", "baseGoods": 3, "base": too_deep, "tail": ["0"] * 3}
        for change, message in [
            ({"agents": 2.9}, "agents must be an integer"),
            ({"agents": True}, "agents must be an integer"),
            ({"goods": 3.0}, "goods must be an integer"),
            ({"agents": SIZE_LIMIT + 1}, f"agents must be at most {SIZE_LIMIT}"),
            ({"goods": SIZE_LIMIT + 1}, f"goods must be at most {SIZE_LIMIT}"),
            ({"edges": [[True, 2]]}, "edge endpoint must be an integer"),
            ({"edges": [[0, 1.0]]}, "edge endpoint must be an integer"),
            ({"edges": {"0": 1}}, "edges must be an array, got dict"),
            ({"edges": [[0, 1, 2]]}, "edge must hold 2 items, got 3"),
            ({"valuations": {"perAgent": {"a": 1}}}, "perAgent must be an array, got dict"),
            ({"valuations": {"identical": {"type": "additive", "values": ["5", "0"]}}}, "additive vector has length 2, expected 3"),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": -1, "base": {"type": "table", "entries": []}, "tail": ["0"] * 3}}},
                "good count must be non-negative",
            ),
            ({"valuations": {"identical": {"type": "table", "entries": table}}}, "table mask must be an integer"),
            ({"valuations": {"identical": composite}}, "baseGoods must be an integer"),
            # the overlap graph of these intervals has no edges
            ({"intervals": [["0", "2"], ["3", "4"], ["5", "6"]]}, "edge (0,1) joins disjoint intervals"),
            # two overlaps, as many as edges, but (0,2) where the edge is (1,2)
            ({"intervals": [["0", "4"], ["1", "2"], ["3", "5"]]}, "edge (1,2) joins disjoint intervals"),
            # two intervals for three goods
            ({"intervals": [["0", "2"], ["1", "3"]]}, "2 intervals for 3 goods"),
            (
                {"valuations": {"identical": {"type": "table", "entries": [[str(k), "1"] for k in range(8)]}}},
                "table must assign value 0 to the empty set",
            ),
            (
                {"valuations": {"identical": {"type": "table", "entries": [["1", "1"]] + [[str(k), "1"] for k in range(8)]}}},
                "duplicate table entry for mask 1",
            ),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": 4, "base": {"type": "uniform"}, "tail": ["0"] * 3}}},
                "composite base goods out of range",
            ),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": -1, "base": {"type": "additive", "values": ["1"]}, "tail": ["0"] * 3}}},
                "composite base goods out of range",
            ),
            # A base past SIZE_LIMIT goods builds no vector of that length.
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": 10**12, "base": {"type": "uniform"}, "tail": ["0"] * 3}}},
                "composite base goods out of range",
            ),
            ({"mode": "chores", "valuations": {"identical": {"type": "uniform"}}}, "additive values must be non-positive in chores mode"),
            ({"agents": 0}, "need at least one agent"),
            ({"valuations": {}}, "valuations must contain 'identical' or 'perAgent'"),
            # Not an object: a string would pass the key test by substring, and
            # Python's own error text for each differs between versions.
            ({"valuations": "identical"}, "valuations must be an object, got str"),
            ({"valuations": ["identical"]}, "valuations must be an object, got list"),
            ({"valuations": 5}, "valuations must be an object, got int"),
            ({"valuations": None}, "valuations must be an object, got NoneType"),
            ({"valuations": {"identical": too_deep}}, "models nest more than"),
            (negated_document(serialization._MODEL_NESTING_LIMIT + 1), "models nest more than"),
            (
                {"valuations": {"identical": {"type": "table", "entries": [[str(k), "0"] for k in range(7)]}}},
                "table must cover all 8 subsets of 3 goods",
            ),
            (one_good_table([["0", "0"], ["1", "1", "2"]]), "table entry must hold 2 items, got 3"),
            ({"intervals": [["0", "2", "9"], ["1", "3"], ["2", "4"]]}, "interval must hold 2 items, got 3"),
            # Each of the rest was solved before arrays and exact rationals
            # were required: a string or an object unpacked item by item,
            # a float read through its decimal form.
            (one_good_table({"00": "1", "11": "2"}), "table entries must be an array, got dict"),
            (one_good_table(["00", "11"]), "table entry must be an array, got str"),
            ({"valuations": {"identical": {"type": "additive", "values": "505"}}}, "additive values must be an array, got str"),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": 3, "base": {"type": "uniform"}, "tail": "000"}}},
                "composite tail must be an array, got str",
            ),
            ({"intervals": ["02", "13", "24"]}, "interval must be an array, got str"),
            ({"intervals": {"02": 0, "13": 1, "24": 2}}, "intervals must be an array, got dict"),
            ({"valuations": {"identical": {"type": "additive", "values": ["5", 1.5, "5"]}}}, "bad rational 1.5"),
            ({"valuations": {"identical": {"type": "additive", "values": ["5", 0.0, "5"]}}}, "bad rational 0.0"),
            (one_good_table([["0", "0"], ["1", 1.5]]), "bad rational 1.5"),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": 3, "base": {"type": "uniform"}, "tail": [0, 0.5, 0]}}},
                "bad rational 0.5",
            ),
            ({"intervals": [[0, 2.0], ["1", "3"], ["2", "4"]]}, "bad rational 2.0"),
            # The first bad edge in input order, past good ones.
            ({"edges": [[0, 1], [1, 2], [0, "2"], [5]]}, "edge endpoint must be an integer, got '2'"),
            ({"edges": [[0, 1], [1], [True, 0]]}, "edge must hold 2 items, got 1"),
            # Common denominators past the bound, in each model that scales
            # its values and in the intervals.
            ({"valuations": {"identical": {"type": "additive", "values": ["0", HUGE_DENOMINATOR, "1/3"]}}}, DENOMINATOR_MESSAGE),
            (one_good_table([["0", "0"], ["1", HUGE_DENOMINATOR]]), DENOMINATOR_MESSAGE),
            (
                {"valuations": {"identical": {"type": "composite", "baseGoods": 1, "base": {"type": "uniform"}, "tail": ["0", "0", HUGE_DENOMINATOR]}}},
                DENOMINATOR_MESSAGE,
            ),
            ({"intervals": [["0", "2"], ["1", "3"], ["2", f"{4 * 2 ** DENOMINATOR_BITS + 1}/{2 ** DENOMINATOR_BITS}"]]}, DENOMINATOR_MESSAGE),
            ({"edges": [[0, 0]]}, "self-loop on good 0"),
            ({"edges": [[0, 5]]}, "edge (0,5) out of range [0,3)"),
            ({"goods": -1}, "good count must be non-negative"),
            ({"mode": "both"}, "mode must be 'goods' or 'chores'"),
            ({"valuations": {"perAgent": [{"type": "uniform"}]}}, "expected 2 models, got 1"),
        ]:
            data = json.loads(pathlib.Path(path_instance(tmp_path)).read_text())
            data.update(change)
            path = write(tmp_path, "bad.json", data)
            for algorithm in ("auto", "interval"):
                assert main(["solve", path, "--algorithm", algorithm]) == 3, (change, algorithm)
                err = capsys.readouterr().err
                assert err.startswith("error:") and message in err, (change, algorithm, err)

    def test_integer_past_the_digit_limit_names_the_limit(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        bad.write_bytes(b'{"agents": ' + b"1" * 5000 + b"}")
        assert main(["solve", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"an integer of more than {sys.get_int_max_str_digits()} digits" in err
        assert "sys.set_int_max_str_digits" not in err

    def test_decimal_exponents_are_bounded(self, tmp_path, capsys):
        # 10**e costs time and memory growing faster than e, so an exponent
        # past the int digit limit is refused before any power is taken.
        limit = sys.get_int_max_str_digits()
        for value in ("1e1000000", "1e-1000000", f"1e{limit + 1}", f"3E-{limit + 1}"):
            data = json.loads(pathlib.Path(path_instance(tmp_path)).read_text())
            data["valuations"] = {"identical": {"type": "additive", "values": ["5", value, "5"]}}
            assert main(["solve", write(tmp_path, "exponent.json", data)]) == 3, value
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"exponent is more than {limit} in magnitude" in err, value
        printed = []
        for value in ("1e3", "1000"):
            data = json.loads(pathlib.Path(path_instance(tmp_path)).read_text())
            data["valuations"] = {"identical": {"type": "additive", "values": ["5", value, "5"]}}
            assert main(["solve", write(tmp_path, "exponent.json", data)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert rational_from_str("1e3") == 1000 and rational_from_str(f"1e-{limit}") == Fraction(1, 10**limit)
        # With the digit limit switched off, no exponent is refused.
        sys.set_int_max_str_digits(0)
        try:
            assert rational_from_str(f"1e{limit + 1}") == 10 ** (limit + 1)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_model_nesting_limit(self, tmp_path, capsys, monkeypatch):
        limit = serialization._MODEL_NESTING_LIMIT
        assert main(["solve", write(tmp_path, "deep.json", negated_document(limit))]) == 0
        assert report_lines(capsys)["ef1"] == "true"
        # negated and composite in turn: each composite's negation is built
        # from its base's, one level per composite
        for mode in ("goods", "chores"):
            path = write(tmp_path, "alternating.json", alternating_document(limit, mode))
            assert main(["solve", path]) == 0, mode
            assert report_lines(capsys)["ef1"] == "true", mode
            assert main(["oracle", path]) == 0, mode
            capsys.readouterr()
        # Without the bound, 983 levels on a 5-good path parsed at the top of
        # a fresh interpreter and then overflowed the stack while solving
        # (exit 7). The document is handed over already decoded, since the
        # JSON decoder's own limit, lower under pytest, depends on the stack.
        for depth in (limit + 1, 983):
            document = negated_document(depth, "12345")
            monkeypatch.setattr(serialization, "load_json", lambda path: document)
            assert main(["solve", "nested.json"]) == 3, depth
            assert capsys.readouterr().err == f"error:models nest more than {limit} levels deep\n", depth

    def test_model_recursion_is_parse_error(self, tmp_path, capsys, monkeypatch):
        # a model nested just below the JSON decoder's limit overflows while
        # it is built; where that depth lies depends on the stack in use
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(serialization, "model_from_json", too_deep)
        assert main(["solve", path_instance(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_invariant_failure_exits_7(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("chain contained no EF1 step")

        monkeypatch.setattr(cli, "solve", broken)
        assert main(["solve", path_instance(tmp_path)]) == 7
        assert capsys.readouterr().err.startswith("error:")
        monkeypatch.setattr(treecolor, "coloring_violations", lambda *args: ["vertex 0 has color 3 outside 1..2"])
        tree = write(tmp_path, "t.json", {"vertices": 2, "edges": [[0, 1]]})
        assert main(["color-tree", tree, "--n", "2"]) == 7
        assert capsys.readouterr().err.startswith("error:")


class TestDispatch:
    """One parser per process; each call looks its command up by name."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_reach_wrapped_commands(self, tmp_path, capsys, monkeypatch):
        path, out = path_instance(tmp_path), str(tmp_path / "alloc.json")
        assert main(["solve", path, "--out", out]) == 0
        calls = []
        for name in ("cmd_solve", "cmd_check"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda args, name=name, original=original: calls.append(name) or original(args))
        assert main(["solve", path, "--out", out]) == 0
        assert main(["check", path, out]) == 0
        assert main(["solve", path]) == 0
        assert calls == ["cmd_solve", "cmd_check", "cmd_solve"]

    def test_repeated_calls_print_what_the_first_printed(self, tmp_path, capsys):
        path, out = path_instance(tmp_path), str(tmp_path / "alloc.json")
        tree = write(tmp_path, "tree.json", {"vertices": 4, "edges": [[0, 1], [1, 2], [1, 3]]})
        calls = [
            ["solve", path, "--algorithm", "swap", "--out", out],
            ["check", path, out],
            ["oracle", path, "--count", "--gamma"],
            ["solve", path],
            ["color-tree", tree, "--n", "2"],
            ["oracle", path],
            ["color-tree", tree, "--n", "3", "--out", str(tmp_path / "colors.json")],
        ]
        first = []
        for argv in calls:
            assert main(argv) == 0
            first.append(capsys.readouterr().out)
        for i in reversed(range(len(calls))):
            assert main(calls[i]) == 0
            assert capsys.readouterr().out == first[i], calls[i]


class TestCheck:
    def test_counterexample_allocation_fails_ef1(self, tmp_path, capsys):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        alloc = write(tmp_path, "a.json", {"bundles": [[4, 6], [5], [3]]})
        code = main(["check", cx, alloc])
        lines = report_lines(capsys)
        assert code == 1
        assert lines["wellformed"] == "true"
        assert lines["maximal"] == "true"
        assert lines["ef1"] == "false"

    def test_all_empty_allocation(self, tmp_path, capsys):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        alloc = write(tmp_path, "a.json", {"bundles": [[], [], []]})
        code = main(["check", cx, alloc])
        lines = report_lines(capsys)
        assert code == 1
        assert lines["ef1"] == "true" and lines["maximal"] == "false"

    def test_valid_complete_allocation(self, tmp_path, capsys):
        inst = write(
            tmp_path,
            "k2.json",
            {
                "agents": 2,
                "goods": 2,
                "edges": [[0, 1]],
                "mode": "goods",
                "valuations": {"identical": {"type": "uniform"}},
            },
        )
        alloc = write(tmp_path, "a.json", {"bundles": [[0], [1]]})
        assert main(["check", inst, alloc]) == 0

    def test_out_of_range_good_is_parse_failure(self, tmp_path):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        for good in (9, True, 1.0, "1"):
            alloc = write(tmp_path, "a.json", {"bundles": [[good], [], []]})
            assert main(["check", cx, alloc]) == 3, good

    @pytest.mark.parametrize(
        "bundles, message",
        [
            ({"0": [4], "1": [5], "2": [3]}, "bundles must be an array, got dict"),
            ([[4], "5", [3]], "bundle must be an array, got str"),
            ([[4, 4], [5], [3]], "bundle lists good 4 twice"),
        ],
    )
    def test_malformed_bundles_are_parse_failures(self, tmp_path, capsys, bundles, message):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        assert main(["check", cx, write(tmp_path, "a.json", {"bundles": bundles})]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_a_repeat_in_the_largest_bundle_is_found_in_one_pass(self, tmp_path, capsys):
        # SIZE_LIMIT goods and a bundle that repeats its last one: a search
        # quadratic in the bundle would take about a minute here
        inst = write(tmp_path, "big.json", {"agents": 2, "goods": 100_000, "edges": [],
                                            "valuations": {"identical": {"type": "uniform"}}})
        alloc = write(tmp_path, "a.json", {"bundles": [[*range(100_000), 99_999], []]})
        start = time.perf_counter()
        assert main(["check", inst, alloc]) == 3
        assert time.perf_counter() - start < 1
        assert "bundle lists good 99999 twice" in capsys.readouterr().err


class TestOracleCommand:
    def test_counterexample_has_none(self, tmp_path, capsys):
        cx = write(tmp_path, "cx.json", instance_to_json(gen_counterexample(3)))
        code = main(["oracle", cx])
        assert code == 0
        assert report_lines(capsys)["exists"] == "false"
        witness = tmp_path / "w.json"
        assert main(["oracle", cx, "--witness", str(witness)]) == 0
        assert report_lines(capsys) == {"exists": "false", "witness": "none"}
        assert not witness.exists()

    def test_gamma_flag(self, tmp_path, capsys):
        cx = write(tmp_path, "cx4.json", instance_to_json(gen_counterexample(4)))
        code = main(["oracle", cx, "--gamma"])
        lines = report_lines(capsys)
        assert code == 0 and lines["gamma"] == "1"

    @pytest.mark.parametrize("flags", [[], ["--count"], ["--gamma"], ["--witness", "w.json", "--count", "--gamma"]])
    @pytest.mark.parametrize("limit, code", [("0", 5), ("-5", 5), ("nan", 2)])
    def test_no_time_left_stops_a_short_search(self, tmp_path, capsys, monkeypatch, flags, limit, code):
        # Three goods: the whole search is a few nodes, far fewer than the
        # 1024 between two later checks of the clock. A NaN limit is refused
        # as an invalid parameter before the file is read.
        monkeypatch.chdir(tmp_path)
        inst = write(tmp_path, "three.json", instance_to_json(Instance(ConflictGraph(3, [(0, 1)]), 2, Additive([1] * 3))))
        assert main(["oracle", inst, "--wall-clock", limit, *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "wall-clock budget" if code == 5 else "--wall-clock must be a number of seconds, not nan"
        assert captured.err.startswith("error:") and expected in captured.err
        assert not (tmp_path / "w.json").exists()

    @pytest.mark.parametrize("flag", ["--count", "--gamma"])
    def test_search_after_a_slow_exists_gets_no_time(self, tmp_path, capsys, monkeypatch, flag):
        inst = write(tmp_path, "three.json", instance_to_json(Instance(ConflictGraph(3, [(0, 1)]), 2, Additive([1] * 3))))
        original = cli.exists_maximal_ef1

        def slow_exists(*args):
            result = original(*args)
            time.sleep(0.2)
            return result

        monkeypatch.setattr(cli, "exists_maximal_ef1", slow_exists)
        assert main(["oracle", inst, flag, "--wall-clock", "0.1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == "exists:true\n"
        assert "wall-clock budget" in captured.err

    def test_gamma_refuses_chores(self, tmp_path, capsys, monkeypatch):
        searches = []
        monkeypatch.setattr(cli, "exists_maximal_ef1", lambda *args: searches.append(args))
        inst = write(tmp_path, "chores.json", instance_to_json(Instance(ConflictGraph(4), 3, Additive([-1, -2, -3, -4]), "chores")))
        assert main(["oracle", inst, "--gamma"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error:gamma is defined for identical valuations of goods\n"
        assert searches == []

    def test_witness_and_count(self, tmp_path, capsys):
        inst = write(
            tmp_path,
            "k2.json",
            {
                "agents": 2,
                "goods": 2,
                "edges": [[0, 1]],
                "mode": "goods",
                "valuations": {"identical": {"type": "additive", "values": ["2", "1"]}},
            },
        )
        witness_path = str(tmp_path / "w.json")
        code = main(["oracle", inst, "--witness", witness_path, "--count"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["exists"] == "true"
        assert lines["count"] == "2"
        saved = json.loads(pathlib.Path(witness_path).read_text())
        assert saved["certificate"]["ef1"] is True

    def test_budget_exceeded(self, tmp_path, capsys):
        inst = write(
            tmp_path,
            "big.json",
            instance_to_json(Instance(ConflictGraph(8), 3, Additive([1] * 8))),
        )
        assert main(["oracle", inst, "--max-assignments", "100"]) == 5

    def test_deep_search_stops_on_wall_clock(self, tmp_path, capsys):
        # 1500 goods pass a 501-digit assignment budget; the search must
        # reach the wall clock (exit 5), not the recursion limit (exit 7).
        m = 1500
        inst = write(
            tmp_path,
            "path.json",
            instance_to_json(Instance(ConflictGraph(m, [(g, g + 1) for g in range(m - 1)]), 1, Additive([1] * m))),
        )
        budget = "9" * 501
        code = main(["oracle", inst, "--count", "--wall-clock", "0.5", "--max-assignments", budget])
        assert code == 5
        assert "wall-clock" in capsys.readouterr().err

    def test_wall_clock_bounds_the_whole_command(self, tmp_path, capsys):
        # Two agents on a perfect matching: `exists` stops at the first leaf,
        # `count` walks 2^14 leaves and `gamma` the same leaves at several
        # times the cost. The limit lets `exists` and `count` finish, so
        # `gamma` must stop on what is left of it, not on a fresh one.
        pairs = 15
        m = 2 * pairs
        graph = ConflictGraph(m, [(2 * i, 2 * i + 1) for i in range(pairs)])
        inst = write(tmp_path, "matching.json", instance_to_json(Instance(graph, 2, Additive([1] * m))))
        budget = str(3**m)
        start = time.monotonic()
        assert main(["oracle", inst, "--count", "--max-assignments", budget]) == 0
        limit = 1.25 * (time.monotonic() - start)
        capsys.readouterr()
        start = time.monotonic()
        code = main(["oracle", inst, "--count", "--gamma", "--wall-clock", str(limit), "--max-assignments", budget])
        elapsed = time.monotonic() - start
        assert code == 5
        assert "wall-clock" in capsys.readouterr().err
        assert elapsed < 1.4 * limit


class TestGen:
    def test_counterexample_file(self, tmp_path, capsys):
        out = str(tmp_path / "cx.json")
        code = main(["gen", "counterexample", out, "--n", "3"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["goods"] == "7" and lines["edges"] == "11"
        instance, _ = instance_from_json(json.loads(pathlib.Path(out).read_text()))
        assert instance == gen_counterexample(3)

    def test_counterexample_needs_three_agents(self, tmp_path):
        assert main(["gen", "counterexample", str(tmp_path / "x.json"), "--n", "2"]) == 2

    def test_counterexample_n_above_limit(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "counterexample", str(out), "--n", str(SIZE_LIMIT + 1)]) == 2
        assert not out.exists()

    def test_reduction_figure_instance(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", instance_to_json(gen_counterexample(4)))
        h = write(
            tmp_path,
            "h.json",
            {
                "vertices": 5,
                "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 2], [1, 3]],
            },
        )
        out = str(tmp_path / "red.json")
        code = main(["gen", "reduction", out, "--base", base, "--graph", h, "--t", "3"])
        lines = report_lines(capsys)
        assert code == 0
        assert lines["goods"] == "46"
        assert lines["lambda"] == "1/3"
        sidecar = json.loads(pathlib.Path(out + ".spec.json").read_text())
        assert sidecar["gamma"] == "1" and sidecar["t"] == 3
        instance, _ = instance_from_json(json.loads(pathlib.Path(out).read_text()))
        assert instance.m == 46 and len(instance.graph.edges) == 657

    def test_reduction_t_out_of_range(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", instance_to_json(gen_counterexample(4)))
        h = write(tmp_path, "h.json", {"vertices": 2, "edges": [[0, 1]]})
        out = str(tmp_path / "red.json")
        for args, message in [
            (["--base", base, "--graph", h, "--t", "3"], "need 1 <= t <= |V_H| = 2"),
            (["--graph", h, "--t", "1"], "reduction needs --base, --graph and --t"),
        ]:
            assert main(["gen", "reduction", out, *args]) == 2, args
            assert capsys.readouterr().err == f"error:{message}\n"

    def test_reduction_rejects_solvable_base(self, tmp_path, capsys):
        h = write(tmp_path, "h.json", {"vertices": 2, "edges": []})
        out = str(tmp_path / "red.json")
        for inst, mode, message in [
            (Instance(ConflictGraph(2, [(0, 1)]), 2, Additive([1] * 2)), "goods", "admits a maximal EF1 allocation"),
            (gen_counterexample(4), "chores", "gamma is defined for identical valuations of goods"),
            (
                Instance(ConflictGraph(2, [(0, 1)]), 2, [Additive([1, 1]), Additive([1, 2])]),
                "goods",
                "gamma is defined for identical valuations of goods",
            ),
        ]:
            if mode == "chores":
                inst = Instance(inst.graph, inst.n, Negated(inst.identical_model), "chores")
            base = write(tmp_path, "base.json", instance_to_json(inst))
            assert main(["gen", "reduction", out, "--base", base, "--graph", h, "--t", "1"]) == 6, mode
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err, mode


class TestColorTree:
    def test_single_vertex(self, tmp_path, capsys):
        tree = write(tmp_path, "t.json", {"vertices": 1, "edges": []})
        code = main(["color-tree", tree, "--n", "1"])
        lines = report_lines(capsys)
        assert code == 0 and lines["colors"] == "[1]"

    def test_star_with_dot(self, tmp_path, capsys):
        tree = write(tmp_path, "t.json", {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]})
        out = str(tmp_path / "colors.json")
        dot = str(tmp_path / "tree.dot")
        code = main(["color-tree", tree, "--n", "2", "--out", out, "--dot", dot])
        lines = report_lines(capsys)
        assert code == 0
        saved = json.loads(pathlib.Path(out).read_text())
        assert sorted(saved["classSizes"]) == [1, 2]
        assert saved["colors"][0] == 0
        text = pathlib.Path(dot).read_text()
        assert "graph tree {" in text
        assert 'fillcolor="red"' in text and 'fillcolor="gray"' in text

    def test_classes_past_the_named_colors(self, tmp_path, capsys):
        tree = write(tmp_path, "t.json", {"vertices": 24, "edges": [[v, v + 1] for v in range(23)]})
        dot = str(tmp_path / "tree.dot")
        assert main(["color-tree", tree, "--n", "12", "--dot", dot]) == 0
        fills = [line.split('"')[1] for line in pathlib.Path(dot).read_text().splitlines() if "fillcolor" in line]
        assert fills[0] == "0.917 0.600 0.900"
        assert {fill for fill in fills if fill[0].isdigit()} == {"0.833 0.600 0.900", "0.917 0.600 0.900"}

    def test_cycle_rejected(self, tmp_path):
        cyc = write(
            tmp_path, "c.json", {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
        )
        assert main(["color-tree", cyc, "--n", "2"]) == 2

    @pytest.mark.parametrize(
        "tree", [{"vertices": 2.0, "edges": [[0, 1]]}, {"vertices": 2, "edges": [[False, 1]]}, [[0, 1]]]
    )
    def test_non_integer_is_parse_failure(self, tmp_path, capsys, tree):
        assert main(["color-tree", write(tmp_path, "t.json", tree), "--n", "2"]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_sizes_above_limit(self, tmp_path):
        big = write(tmp_path, "big.json", {"vertices": SIZE_LIMIT + 1, "edges": []})
        assert main(["color-tree", big, "--n", "2"]) == 3
        tree = write(tmp_path, "t.json", {"vertices": 2, "edges": [[0, 1]]})
        assert main(["color-tree", tree, "--n", str(SIZE_LIMIT + 1)]) == 2

    def test_builds_one_graph(self, tmp_path, capsys, monkeypatch):
        built = []
        original = ConflictGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ConflictGraph, "__init__", counted)
        tree = write(tmp_path, "t.json", {"vertices": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]})
        dot = str(tmp_path / "tree.dot")
        assert main(["color-tree", tree, "--n", "2", "--dot", dot]) == 0
        assert len(built) == 1

    def test_deep_path(self, tmp_path, capsys):
        # deeper than the default recursion limit
        nv = 1200
        edges = [[v, v + 1] for v in range(nv - 1)]
        tree = write(tmp_path, "path.json", {"vertices": nv, "edges": edges})
        assert main(["color-tree", tree, "--n", "2"]) == 0
        colors = json.loads(report_lines(capsys)["colors"])
        graph = ConflictGraph(nv, edges)
        assert coloring_violations(graph, [c or None for c in colors], 2) == []


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    # every option that writes a file, pointed into a directory that is not there
    missing = str(tmp_path / "missing" / "out.json")
    instance = path_instance(tmp_path)
    base = write(tmp_path, "base.json", instance_to_json(gen_counterexample(4)))
    h = write(tmp_path, "h.json", {"vertices": 2, "edges": []})
    tree = write(tmp_path, "t.json", {"vertices": 2, "edges": [[0, 1]]})
    for argv in [
        ["gen", "counterexample", missing, "--n", "3"],
        ["solve", instance, "--out", missing],
        ["oracle", instance, "--witness", missing],
        ["gen", "reduction", str(tmp_path / "red.json"), "--base", base, "--graph", h, "--t", "1", "--spec", missing],
        ["color-tree", tree, "--n", "2", "--out", missing],
        ["color-tree", tree, "--n", "2", "--dot", missing],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and missing in err, (argv, err)
    assert not (tmp_path / "missing").exists()
    # a failed sidecar write takes the reduced instance with it
    assert not (tmp_path / "red.json").exists()


def _random_instance_with_intervals(rng):
    m = rng.randint(1, 6)
    mode = rng.choice(["goods", "chores"])
    kind = rng.choice(["additive", "uniform", "table"])
    if kind == "additive":
        values = [rng.randint(0, 9) for _ in range(m)]
        model = Additive([-v for v in values]) if mode == "chores" else Additive(values)
    elif kind == "uniform":
        model = Negated(Additive([1] * m)) if mode == "chores" else Additive([1] * m)
    else:
        table = random_monotone_table(rng, m)
        model = Negated(table) if mode == "chores" else table
    if rng.random() < 0.3:
        models = [model] * rng.randint(1, 3)
        n = len(models)
        instance_models = list(models)
    else:
        n = rng.randint(1, 3)
        instance_models = model
    intervals = None
    if rng.random() < 0.4:
        intervals = random_intervals(rng, m, span=9)
        graph = intervals.induced_graph()
    else:
        graph = random_graph(rng, m)
    return Instance(graph, n, instance_models, mode), intervals


def _best_time(fn, repeat=2) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_uniform_files_are_additive(tmp_path, capsys):
    # "uniform" reads as 1 per good, in a composite base too; so a chores
    # file must negate it, and it runs on the additive closed form.
    def document(m, mode, model):
        return {"agents": 2, "goods": m, "edges": [], "mode": mode, "valuations": {"identical": model}}

    instance, _ = instance_from_json(serialization.load_json(write(tmp_path, "u.json", document(5, "goods", {"type": "uniform"}))))
    assert instance.identical_model == Additive([1] * 5)
    composite = {"type": "composite", "baseGoods": 2, "base": {"type": "uniform"}, "tail": ["0"] * 5}
    instance, _ = instance_from_json(document(5, "goods", composite))
    assert instance.identical_model.base == Additive([1, 1])

    path = write(tmp_path, "chores.json", document(5, "chores", {"type": "uniform"}))
    assert main(["solve", path]) == 3
    assert capsys.readouterr().err == "error:malformed instance file: additive values must be non-positive in chores mode\n"

    # Additive speed on the probe sizes: the definitional fallback took
    # 250 times longer on the swap and 500 times on the tree check.
    m = 1000
    swap_instance = Instance(random_graph(random.Random(1), m, 4 / m), 2, Additive([1] * m))
    parsed, _ = instance_from_json(instance_to_json(swap_instance) | {"valuations": {"identical": {"type": "uniform"}}})
    reference = _best_time(lambda: swap_ef1(swap_instance))
    assert _best_time(lambda: swap_ef1(parsed)) <= 10 * reference + 0.05

    nv, n = 20_000, 7
    tree = RootedTree(ConflictGraph(nv, random_tree_edges(random.Random(1), nv)))
    allocation = Allocation(equitable_tree_coloring(tree, n).classes())
    tree_instance = Instance(tree.graph, n, Additive([1] * nv))
    parsed, _ = instance_from_json(
        {"agents": n, "goods": nv, "edges": [list(e) for e in sorted(tree.graph.edges)], "valuations": {"identical": {"type": "uniform"}}}
    )
    assert parsed.identical_model == tree_instance.identical_model
    assert is_ef1(parsed, allocation) and is_maximal(parsed, allocation)
    reference = _best_time(lambda: is_ef1(tree_instance, allocation))
    assert _best_time(lambda: is_ef1(parsed, allocation)) <= 10 * reference + 0.05


def test_uniform_entries_cost_no_more_than_the_file():
    # A uniform entry is a few bytes for m goods, so the entries of one file
    # share one model per good count, and a composite's good count and tail
    # are checked before its base is read; 200 separate uniform vectors of
    # 10 000 goods would take about 50 MB.
    m, agents = 10_000, 200

    def document(models, mode="goods"):
        return {"agents": agents, "goods": m, "edges": [], "mode": mode, "valuations": models}

    def traced(data):
        """The parse's outcome, its peak traced bytes and its seconds."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            try:
                outcome = instance_from_json(data)[0]
            except ParseError as exc:
                outcome = str(exc)
            return outcome, tracemalloc.get_traced_memory()[1], time.perf_counter() - start
        finally:
            tracemalloc.stop()

    def composites(base_goods, tail):
        return [{"type": "composite", "baseGoods": base_goods(i), "base": {"type": "uniform"}, "tail": tail} for i in range(agents)]

    one, budget, _ = traced(document({"identical": {"type": "uniform"}}))
    assert one.identical_model == Additive([1] * m)
    negated = Instance(ConflictGraph(m), agents, Negated(Additive([1] * m)), "chores")
    for data, expected in [
        (document({"perAgent": [{"type": "uniform"}] * agents}), one),
        (document({"perAgent": [{"type": "negated", "inner": {"type": "uniform"}}] * agents}, "chores"), negated),
        (document({"perAgent": composites(lambda i: m + 1 + i, ["0"] * m)}), "malformed instance file: composite base goods out of range"),
        (document({"perAgent": composites(lambda i: m - i, [])}), f"composite tail must hold {m} items, got 0"),
    ]:
        outcome, peak, seconds = traced(data)
        assert outcome == expected
        assert peak <= 2 * budget and seconds <= 1, (data["valuations"]["perAgent"][0], peak, budget, seconds)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_instance_round_trip(self, seed):
        rng = random.Random(seed)
        instance, intervals = _random_instance_with_intervals(rng)
        data = instance_to_json(instance, intervals)
        parsed, parsed_intervals = instance_from_json(json.loads(json.dumps(data)))
        assert parsed == instance
        if intervals is None:
            assert parsed_intervals is None
        else:
            assert parsed_intervals.intervals == intervals.intervals

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_allocation_round_trip(self, seed):
        rng = random.Random(seed)
        m = rng.randint(0, 8)
        from conflictfair import Allocation

        bundles = []
        pool = list(range(m))
        rng.shuffle(pool)
        for _ in range(rng.randint(1, 4)):
            take = rng.randint(0, len(pool))
            bundles.append(pool[:take])
            pool = pool[take:]
        allocation = Allocation(bundles)
        cert = {"maximal": rng.random() < 0.5, "ef1": True}
        data = allocation_to_json(allocation, cert)
        parsed, parsed_cert = allocation_from_json(json.loads(json.dumps(data)))
        assert parsed == allocation and parsed_cert == cert

    def test_composite_model_round_trip(self):
        from conflictfair import ISInstance, build_reduction

        h = ConflictGraph(3, [(0, 1)])
        instance, _spec = build_reduction(gen_counterexample(3), ISInstance(h, 2))
        data = instance_to_json(instance)
        parsed, _ = instance_from_json(json.loads(json.dumps(data)))
        assert parsed == instance

    def test_rejects_unknown_model(self):
        with pytest.raises(ParseError, match="unknown model"):
            instance_from_json(
                {
                    "agents": 1,
                    "goods": 1,
                    "edges": [],
                    "valuations": {"identical": {"type": "mystery"}},
                }
            )


def _outcome(parse, value, errors):
    """The parsed value, or "error" for one of ``errors``; anything else
    propagates."""
    try:
        return parse(value)
    except errors:
        return "error"


def _fraction_of_str(value):
    """``Fraction(str(value))``, with the parser's bound: a decimal exponent
    of magnitude past the int digit limit is a ValueError."""
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)\s*\Z", str(value))
    if exponent and abs(int(exponent.group(1))) > sys.get_int_max_str_digits():
        raise ValueError("exponent past the int digit limit")
    return Fraction(str(value))


class TestRationalFromStr:
    """The ASCII integer and fraction fast path against ``Fraction(str(x))``:
    same value where it parses, a ParseError where it does not."""

    CASES = [
        "007", "-0", "+3", " 4 ", "1_000", "\u0663", "1e3", "1/2", "-", "",
        "-1/2", "1/-2", "01/02", "1//2", "/2", "1/", "\u0663/2", "1/\u0663", "-1/" + "2" * 5000,
        "-007", "--3", "-+3", "3-", "12", "0", "7/0", "3.5", "0x10", "\u00b2",
        "1" * 5000, "-" + "2" * 4300, 0, 5, -12, 10**30, True, None,
        "1e4300", "1E-4300", "1e4301", "-1e-4301", "1e1000000", "1e-1000000", " 2e+1_000_000 ", "1/2e9999",
    ]

    def test_cases_match_fraction(self):
        for value in self.CASES:
            got = _outcome(rational_from_str, value, ParseError)
            assert got == _outcome(_fraction_of_str, value, (ValueError, ZeroDivisionError)), repr(value)
            assert got == "error" or type(got) is Fraction

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(), st.text(alphabet="-+0123456789/ _e.\u0663")))
    def test_random_inputs_match_fraction(self, value):
        got = _outcome(rational_from_str, value, ParseError)
        assert got == _outcome(_fraction_of_str, value, (ValueError, ZeroDivisionError))


class TestDot:
    def test_allocation_palette(self):
        graph = ConflictGraph(4, [(0, 1), (2, 3)])
        text = to_dot(graph, [[0], [1], [2]])
        assert '0 [fillcolor="red"];' in text
        assert '1 [fillcolor="blue"];' in text
        assert '2 [fillcolor="green"];' in text
        assert '3 [fillcolor="gray"];' in text
        assert "0 -- 1;" in text and "2 -- 3;" in text
