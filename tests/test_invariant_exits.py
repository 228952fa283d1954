"""Each ``RuntimeError`` that guards a solver's own invariant is reached by
breaking that invariant with a patch; where a CLI command reaches the
line, the command exits 7 with ``error:internal invariant failed:``."""

import json
from fractions import Fraction

import pytest

from conflictfair import (
    Additive,
    ChainOutcome,
    ConflictGraph,
    Instance,
    ISInstance,
    RootedTree,
    bipartite_ef1,
    build_reduction,
    equitable_tree_coloring,
    exists_maximal_ef1,
    gen_counterexample,
    interval_ef1,
    yes_certificate,
)
from conflictfair import cli, graph_classes, oracle
from conflictfair.chain import Walk
from conflictfair.cli import main
from conflictfair.graph_classes import IntervalSet, _two_color_pick
from conflictfair.serialization import instance_to_json

PATH_INTERVALS = IntervalSet([(0, 2), (1, 3), (2, 4), (3, 5)])
PATH = Instance(PATH_INTERVALS.induced_graph(), 2, Additive([1, 2, 3, 4]))


def exits_7(tmp_path, capsys, argv, message):
    """Run the CLI on PATH (with its intervals) and check the exit-7 report."""
    path = tmp_path / "path.json"
    path.write_text(json.dumps(instance_to_json(PATH, PATH_INTERVALS)))
    capsys.readouterr()
    assert main([argv[0], str(path), *argv[1:]]) == 7
    assert capsys.readouterr().err == f"error:internal invariant failed: {message}\n"


def test_two_color_pick_refuses_a_three_fold_cover():
    nested = IntervalSet([(0, 10), (1, 9), (2, 8)])
    with pytest.raises(RuntimeError, match="covers a point three times"):
        _two_color_pick(nested, range(3))


def test_interval_solver_refuses_one_side_picks_of_the_wrong_size(tmp_path, capsys, monkeypatch):
    greedy = graph_classes.interval_scheduling_greedy

    def short(intervals, *args, c=1, **kwargs):
        picks = greedy(intervals, *args, c=c, **kwargs)
        return picks[:-1] if c == 1 else picks

    monkeypatch.setattr(graph_classes, "interval_scheduling_greedy", short)
    message = "one-side greedy solutions must match |Z_2|; optimality violated"
    with pytest.raises(RuntimeError, match="must match"):
        interval_ef1(PATH, PATH_INTERVALS)
    exits_7(tmp_path, capsys, ["solve", "--algorithm", "interval"], message)


def test_interval_solver_refuses_a_chain_without_an_ef1_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Walk, "first_ef1", lambda self, model: (None, None))
    message = "gapless chain contained no EF1 step; invariant violated"
    with pytest.raises(RuntimeError, match="gapless chain"):
        interval_ef1(PATH, PATH_INTERVALS)
    exits_7(tmp_path, capsys, ["solve", "--algorithm", "interval"], message)


def test_bipartite_solver_refuses_a_chain_without_an_ef1_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graph_classes, "chain_ef1", lambda instance, source: ChainOutcome(None, None, None))
    message = "bipartite chain contained no EF1 step; invariant violated"
    with pytest.raises(RuntimeError, match="bipartite chain"):
        bipartite_ef1(PATH)
    exits_7(tmp_path, capsys, ["solve", "--algorithm", "bipartite"], message)


def test_enumerator_refuses_a_leaf_the_checkers_reject(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "is_maximal", lambda instance, allocation: False)
    message = "prefilter and checkers disagree; enumeration bug"
    with pytest.raises(RuntimeError, match="prefilter and checkers disagree"):
        exists_maximal_ef1(PATH)
    exits_7(tmp_path, capsys, ["oracle"], message)


def test_yes_certificate_refuses_a_witness_too_small_for_lambda():
    isolated = ConflictGraph(3)
    _instance, spec = build_reduction(gen_counterexample(3), ISInstance(isolated, 2))
    assert yes_certificate(spec, [0, 1]).n == 3
    with pytest.raises(RuntimeError, match="more filler goods than the witness provides"):
        yes_certificate(spec._replace(lam=Fraction(1, 10**6)), [0, 1])


def test_tree_coloring_refuses_a_root_in_a_smaller_class(tmp_path, capsys, monkeypatch):
    # The path 0-1-2, merged from vertex 0 with two colors, gives 0 and 2
    # color 2 and vertex 1 color 1; a tree whose root names vertex 1 has its
    # root colored in the smaller class.
    class MisrootedTree(RootedTree):
        __slots__ = ()

        def __init__(self, graph):
            super().__init__(graph)
            self.root = 1

    tree = MisrootedTree(ConflictGraph(3, [(0, 1), (1, 2)]))
    message = "root is colored but not with a higher color"
    with pytest.raises(RuntimeError, match=message):
        equitable_tree_coloring(tree, 2)
    monkeypatch.setattr(cli, "RootedTree", MisrootedTree)
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]]}))
    assert main(["color-tree", str(path), "--n", "2"]) == 7
    assert capsys.readouterr().err == f"error:internal invariant failed: {message}\n"
