"""Maximal equitable tree coloring: the four conditions, the root property,
agreement with brute force on small trees, and the exact colorings."""

import hashlib
import itertools
import random

import networkx as nx
import pytest

from conflictfair import (
    Additive,
    Allocation,
    ConflictGraph,
    Instance,
    RootedTree,
    coloring_violations,
    equitable_tree_coloring,
    is_ef1,
    is_maximal,
)

from conftest import dict_tree_colors, random_tree_edges


# sha256 of the colorings of ``tree_corpus(random.Random(2718))``, as made by
# the construction that copied each child's coloring at every level.
PINNED_COLORINGS = "1e50a30df2dfcc667778618d6f513450217753578cb15b0fd552e0b783998f58"


def tree_corpus(rng):
    """Paths, brooms, stars and random recursive trees on up to 120 vertices,
    half of them with shuffled vertex ids, each with an n from 1 to 9."""
    for i in range(320):
        nv = rng.randint(1, 120)
        shape = i % 4
        if shape == 0:
            edges = [(v - 1, v) for v in range(1, nv)]
        elif shape == 1:
            handle = rng.randrange(nv)
            edges = [(v - 1, v) for v in range(1, handle + 1)] + [(handle, v) for v in range(handle + 1, nv)]
        elif shape == 2:
            edges = [(0, v) for v in range(1, nv)]
        else:
            edges = random_tree_edges(rng, nv)
        if rng.random() < 0.5:
            ids = list(range(nv))
            rng.shuffle(ids)
            edges = [(ids[u], ids[w]) for u, w in edges]
        yield nv, edges, rng.randint(1, 9)


def brute_force_colorings(graph: ConflictGraph, n: int):
    """All valid maximal equitable n-colorings, 0 meaning uncolored."""
    valid = []
    for assignment in itertools.product(range(n + 1), repeat=graph.m):
        colors = tuple(c if c else None for c in assignment)
        if not coloring_violations(graph, colors, n):
            valid.append(colors)
    return valid


def reference_violations(graph: ConflictGraph, colors, n: int):
    """``coloring_violations`` as it scanned the neighbours once per color
    for each uncolored vertex."""
    problems = []
    sizes = [0] * (n + 1)
    for v, c in enumerate(colors):
        if c is None:
            continue
        if not 1 <= c <= n:
            problems.append(f"vertex {v} has color {c} outside 1..{n}")
            continue
        sizes[c] += 1
    for u, nbrs in enumerate(graph.adj):
        for w in nbrs:
            if u < w and colors[u] is not None and colors[u] == colors[w]:
                problems.append(f"adjacent vertices {u},{w} share color {colors[u]}")
    for v, c in enumerate(colors):
        if c is not None:
            continue
        for cls in range(1, n + 1):
            if not any(colors[w] == cls for w in graph.adj[v]):
                problems.append(f"uncolored vertex {v} has no neighbor of color {cls}")
    if max(sizes[1:]) - min(sizes[1:]) > 1:
        problems.append(f"class sizes {sizes[1:]} differ by more than one")
    return problems


class TestViolations:
    def test_matches_reference_on_random_partial_colorings(self):
        rng = random.Random(4242)
        valid = 0
        for nv, edges, n in tree_corpus(random.Random(99)):
            tree = RootedTree.from_edges(nv, edges)
            graph = tree.graph
            colored = list(equitable_tree_coloring(tree, n).colors)
            candidates = [colored]
            for _ in range(3):
                # Mutate a few vertices: uncolor, recolor, or color outside 1..n.
                mutated = list(colored)
                for v in rng.sample(range(nv), min(nv, rng.randint(1, 3))):
                    mutated[v] = rng.choice([None, rng.randint(1, n), rng.choice([0, n + 1])])
                candidates.append(mutated)
            candidates.append([rng.choice([None] + list(range(1, n + 1))) for _ in range(nv)])
            for colors in candidates:
                expected = reference_violations(graph, colors, n)
                assert coloring_violations(graph, colors, n) == expected
                valid += not expected
        assert 320 <= valid < 320 * 5


class TestExamples:
    def test_single_vertex_one_color(self):
        tree = RootedTree.from_edges(1, [])
        coloring = equitable_tree_coloring(tree, 1)
        assert coloring.colors == (1,)
        assert coloring.class_sizes == (1,)

    def test_three_leaf_star_two_colors(self):
        tree = RootedTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        coloring = equitable_tree_coloring(tree, 2)
        assert coloring.colors[0] is None
        assert sorted(coloring.class_sizes) == [1, 2]
        # the only valid shape up to color swap, per exhaustive search
        valid = brute_force_colorings(tree.graph, 2)
        assert coloring.colors in valid
        assert all(v[0] is None for v in valid)

    def test_five_path_two_colors(self):
        tree = RootedTree.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        coloring = equitable_tree_coloring(tree, 2)
        assert not coloring_violations(tree.graph, coloring.colors, 2)
        assert max(coloring.class_sizes) - min(coloring.class_sizes) <= 1

    def test_rejects_zero_colors(self):
        with pytest.raises(ValueError):
            equitable_tree_coloring(RootedTree.from_edges(1, []), 0)


class TestRootedTree:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="v-1 edges"):
            RootedTree.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_disconnected(self):
        # right edge count, but a cycle plus an isolated vertex
        with pytest.raises(ValueError, match="connected"):
            RootedTree.from_edges(4, [(0, 1), (1, 2), (0, 2)])

    def test_round_trips_edges(self):
        edges = [(0, 1), (1, 2), (1, 3)]
        tree = RootedTree.from_edges(4, edges)
        assert sorted(tree.graph.edges) == sorted(edges)
        assert tree.children == ((1,), (2, 3), (), ())
        assert tree.order == (0, 1, 2, 3)

    def test_order_is_breadth_first(self):
        rng = random.Random(31)
        for _ in range(60):
            nv = rng.randint(1, 40)
            ids = list(range(nv))
            rng.shuffle(ids)
            edges = [(ids[u], ids[w]) for u, w in random_tree_edges(rng, nv)]
            tree = RootedTree.from_edges(nv, edges)
            depth = nx.single_source_shortest_path_length(nx.Graph(edges), 0) if edges else {0: 0}
            assert sorted(tree.order) == list(range(nv))
            assert [depth[v] for v in tree.order] == sorted(depth.values())
            position = {v: i for i, v in enumerate(tree.order)}
            assert all(position[u] < position[w] for u, kids in enumerate(tree.children) for w in kids)


class TestConstruction:
    def test_random_trees_satisfy_all_conditions(self):
        rng = random.Random(5150)
        for _ in range(80):
            nv = rng.randint(1, 120)
            n = rng.randint(1, 10)
            tree = RootedTree.from_edges(nv, random_tree_edges(rng, nv))
            coloring = equitable_tree_coloring(tree, n)
            graph = tree.graph
            assert not coloring_violations(graph, coloring.colors, n)
            root_color = coloring.colors[tree.root]
            if root_color is not None:
                assert coloring.class_sizes[root_color - 1] == max(coloring.class_sizes)

    def test_deep_path_trees(self):
        for nv in (150, 200):
            tree = RootedTree.from_edges(nv, [(v - 1, v) for v in range(1, nv)])
            for n in (1, 2, 3, 7):
                coloring = equitable_tree_coloring(tree, n)
                assert not coloring_violations(tree.graph, coloring.colors, n)

    def test_matches_brute_force_on_small_trees(self):
        trees = [nx.empty_graph(1)]
        for nv in range(2, 8):
            trees.extend(nx.nonisomorphic_trees(nv))
        for g in trees:
            nv = g.number_of_nodes()
            tree = RootedTree.from_edges(nv, list(g.edges()))
            graph = tree.graph
            for n in (1, 2, 3):
                coloring = equitable_tree_coloring(tree, n)
                assert coloring.colors in brute_force_colorings(graph, n)

    def test_classes_form_maximal_ef1_allocation_under_uniform(self):
        rng = random.Random(424242)
        for _ in range(40):
            nv = rng.randint(1, 60)
            n = rng.randint(1, 6)
            tree = RootedTree.from_edges(nv, random_tree_edges(rng, nv))
            coloring = equitable_tree_coloring(tree, n)
            instance = Instance(tree.graph, n, Additive([1] * nv))
            allocation = Allocation(coloring.classes())
            assert is_maximal(instance, allocation)
            assert is_ef1(instance, allocation)

    def test_matches_the_dict_merge(self):
        # Random recursive trees, paths and stars, some with shuffled ids,
        # each with n from 1 to above its size.
        rng = random.Random(0x7C0)
        for i in range(120):
            nv = rng.randint(1, 90)
            shape = i % 3
            if shape == 0:
                edges = random_tree_edges(rng, nv)
            elif shape == 1:
                edges = [(v - 1, v) for v in range(1, nv)]
            else:
                edges = [(0, v) for v in range(1, nv)]
            if i % 2:
                ids = list(range(nv))
                rng.shuffle(ids)
                edges = [(ids[u], ids[w]) for u, w in edges]
            tree = RootedTree.from_edges(nv, edges)
            for n in {1, 2, 3, rng.randint(1, nv + 2), nv, nv + 1, nv + 5}:
                coloring = equitable_tree_coloring(tree, n)
                assert coloring.colors == dict_tree_colors(tree, n)

    def test_matches_the_dict_merge_on_bench_sized_trees(self):
        # Random recursive trees of the size the benchmark colors, where the
        # tree_corpus above stops at 120 vertices.
        rng = random.Random(0xB3)
        for _ in range(4):
            nv = rng.randint(900, 1100)
            tree = RootedTree.from_edges(nv, random_tree_edges(rng, nv))
            for n in range(2, 6):
                assert equitable_tree_coloring(tree, n).colors == dict_tree_colors(tree, n)

    def test_many_colors_on_a_long_path_and_a_wide_star(self):
        # The two shapes on which a merge that sorted or copied classes at
        # every level was quadratic: a deep path with n = V, a star with n = V/2.
        nv = 20000
        coloring = equitable_tree_coloring(RootedTree.from_edges(nv, [(v - 1, v) for v in range(1, nv)]), nv)
        assert sorted(coloring.colors) == list(range(1, nv + 1))
        coloring = equitable_tree_coloring(RootedTree.from_edges(8001, [(0, v) for v in range(1, 8001)]), 4000)
        assert coloring.colors[0] is None
        assert coloring.class_sizes == (2,) * 4000

    def test_colorings_match_parent(self):
        digest = hashlib.sha256()
        for nv, edges, n in tree_corpus(random.Random(2718)):
            coloring = equitable_tree_coloring(RootedTree.from_edges(nv, edges), n)
            digest.update(repr((coloring.colors, coloring.class_sizes)).encode())
        assert digest.hexdigest() == PINNED_COLORINGS
