"""Maximal equitable n-coloring of trees.

A maximal equitable n-coloring partitions part of the vertex set into n
independent classes whose sizes differ by at most one, such that every
uncolored vertex has a neighbor in every class. The construction is a
post-order merge over class lists: a subtree's result is its non-empty
classes (color -> vertices) and the color of its root. At a vertex, each
child's classes are relabeled largest-first and rotated by a running offset,
so the merged coloring stays equitable; the root is then either left
uncolored or given color n, after a child that landed on n trades n for an
equally large class. Only colors change, through one permutation per child;
the largest child's lists are kept and the others are appended to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import ConflictGraph


class RootedTree:
    """A tree conflict graph rooted at ``root``: children are kept in
    ascending vertex order and ``order`` is their preorder, for deterministic
    output."""

    __slots__ = ("graph", "root", "children", "order")

    def __init__(self, graph: ConflictGraph, root: int = 0):
        nv = graph.m
        if len(graph.edges) != nv - 1:
            raise ValueError("a tree on v vertices has exactly v-1 edges")
        if not 0 <= root < nv:
            raise ValueError("root out of range")
        # Marked when pushed: in a tree, a vertex's unmarked neighbours are its children.
        children = [()] * nv
        seen = [False] * nv
        seen[root] = True
        order = []
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            kids = sorted(w for w in graph.adj[u] if not seen[w])
            for w in kids:
                seen[w] = True
            children[u] = tuple(kids)
            stack.extend(reversed(kids))
        if len(order) != nv:
            raise ValueError("graph is not connected")
        self.graph = graph
        self.root = root
        self.children = tuple(children)
        self.order = tuple(order)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]], root: int = 0) -> "RootedTree":
        return cls(ConflictGraph(vertex_count, edges), root)


@dataclass(frozen=True)
class PartialColoring:
    """Per-vertex color in 1..n or ``None``, with class sizes."""

    n: int
    colors: tuple
    class_sizes: tuple

    def classes(self) -> List[frozenset]:
        out = [set() for _ in range(self.n)]
        for v, c in enumerate(self.colors):
            if c is not None:
                out[c - 1].add(v)
        return [frozenset(s) for s in out]


def coloring_violations(graph: ConflictGraph, colors: Sequence[Optional[int]], n: int) -> List[str]:
    """All violated maximal-equitable-coloring conditions, empty if valid."""
    problems = []
    sizes = [0] * (n + 1)
    for v, c in enumerate(colors):
        if c is None:
            continue
        if not 1 <= c <= n:
            problems.append(f"vertex {v} has color {c} outside 1..{n}")
            continue
        sizes[c] += 1
    for u, w in graph.edges:
        if colors[u] is not None and colors[u] == colors[w]:
            problems.append(f"adjacent vertices {u},{w} share color {colors[u]}")
    for v, c in enumerate(colors):
        if c is not None:
            continue
        around = {colors[w] for w in graph.adj[v]}
        for cls in range(1, n + 1):
            if cls not in around:
                problems.append(f"uncolored vertex {v} has no neighbor of color {cls}")
    if max(sizes[1:]) - min(sizes[1:]) > 1:
        problems.append(f"class sizes {sizes[1:]} differ by more than one")
    return problems


def _color_subtree(tree: RootedTree, u: int, n: int, colored: dict) -> Tuple[Dict[int, List[int]], Optional[int]]:
    """Classes (color -> vertices) and root color of the subtree at ``u``,
    merged from its children's in ``colored``."""
    children = tree.children[u]
    if not children:
        return {1: [u]}, 1

    reports = []
    for child in children:
        classes, root_color = colored.pop(child)
        ranked = sorted(classes, key=lambda c: (-len(classes[c]), c))  # largest first, stable
        top = len(classes[ranked[0]])
        higher = sum(1 for c in ranked if len(classes[c]) == top)
        singular = root_color is not None and higher == 1
        reports.append((singular, classes, root_color, ranked, higher))

    reports.sort(key=lambda rep: not rep[0])  # singular subtrees first, stable
    color_root = sum(rep[0] for rep in reports) < n
    moves = []
    offset = 0
    for _singular, classes, root_color, ranked, higher in reports:
        perm = {c: (rank + offset) % n + 1 for rank, c in enumerate(ranked)}
        offset = (offset + higher) % n
        if color_root and root_color is not None and perm[root_color] == n:
            # non-singular child: another equally large class exists to trade with
            trade = min((c for c in ranked[:higher] if c != root_color), key=perm.__getitem__)
            perm[root_color], perm[trade] = perm[trade], n
        moves.append((classes, perm))

    # reuse the largest child's lists, so each vertex moves O(log V) times
    base, base_perm = max(moves, key=lambda move: sum(map(len, move[0].values())))
    merged = {base_perm[c]: vertices for c, vertices in base.items()}
    for classes, perm in moves:
        if classes is not base:
            for c, vertices in classes.items():
                merged.setdefault(perm[c], []).extend(vertices)
    if not color_root:
        return merged, None
    merged.setdefault(n, []).append(u)
    return merged, n


def equitable_tree_coloring(tree: RootedTree, n: int) -> PartialColoring:
    """Construct a maximal equitable n-coloring; the root ends up in a class
    of maximum size or uncolored."""
    if n < 1:
        raise ValueError("need at least one color")
    colored = {}
    for u in reversed(tree.order):
        colored[u] = _color_subtree(tree, u, n, colored)
    classes = colored[tree.root][0]
    color_of = {v: c for c, vertices in classes.items() for v in vertices}
    colors = tuple(color_of.get(v) for v in range(tree.graph.m))
    problems = coloring_violations(tree.graph, colors, n)
    if problems:
        raise RuntimeError("construction violated its own invariants: " + "; ".join(problems))
    sizes = tuple(len(classes.get(c, ())) for c in range(1, n + 1))
    root_color = colors[tree.root]
    if root_color is not None and sizes[root_color - 1] != max(sizes):
        raise RuntimeError("root is colored but not with a higher color")
    return PartialColoring(n, colors, sizes)
