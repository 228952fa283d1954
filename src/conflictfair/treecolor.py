"""Maximal equitable n-coloring of trees.

A maximal equitable n-coloring partitions part of the vertex set into n
independent classes whose sizes differ by at most one, such that every
uncolored vertex has a neighbor in every class. The construction is a
post-order merge over class lists: a subtree's result is its non-empty
classes in rank order (largest first, ties by color). At a vertex, each
child's ranks are rotated onto colors by a running offset, so the merged
coloring stays equitable; the root is then either left uncolored or given
color n, after a child that landed on n trades n for an equally large class.
Every subtree's coloring is equitable, so its rank order follows from the
merge alone and no merge sorts. Only colors change: the longest child's list
of classes is moved by slices, and at each class the longer vertex list is
kept and the shorter appended to it.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import ConflictGraph


class RootedTree:
    """A tree conflict graph rooted at vertex 0: children are kept in
    ascending vertex order, for deterministic output, and ``order`` is the
    breadth-first order that found them, so each vertex follows its parent."""

    __slots__ = ("graph", "root", "children", "order")

    def __init__(self, graph: ConflictGraph):
        nv = graph.m
        if sum(map(len, graph.adj)) != 2 * (nv - 1):
            raise ValueError("a tree on v vertices has exactly v-1 edges")
        # Breadth first from the root: in a tree, the vertex that reaches w is its parent.
        adj = graph.adj
        parent = [-1] * nv
        parent[0] = 0
        reached = [0]
        for u in reached:
            for w in adj[u]:
                if parent[w] < 0:
                    parent[w] = u
                    reached.append(w)
        if len(reached) != nv:
            raise ValueError("graph is not connected")
        # Appended in ascending order, each vertex's children come out sorted.
        kids = [[] for _ in range(nv)]
        for w in range(1, nv):
            kids[parent[w]].append(w)
        self.graph = graph
        self.root = 0
        self.children = tuple(map(tuple, kids))
        self.order = tuple(reached)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]]) -> "RootedTree":
        return cls(ConflictGraph(vertex_count, edges))


class PartialColoring(NamedTuple):
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
    for u, nbrs in enumerate(graph.adj):
        for w in nbrs:  # each edge once, as u < w
            if u < w and colors[u] is not None and colors[u] == colors[w]:
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


def _color_subtree(reports: list, u: int, n: int) -> Tuple[List[List[int]], int, Optional[int]]:
    """Merge the children's ``reports`` at ``u``. Each report, and the
    result, is (classes, higher, root_rank): the non-empty classes in rank
    order, the number of largest ones, and the rank of the root's class
    (None if the root is uncolored)."""
    singular = [rep for rep in reports if rep[1] == 1 and rep[2] is not None]
    if singular:  # singular subtrees first, stable
        reports = singular + [rep for rep in reports if rep[1] != 1 or rep[2] is None]
    color_root = len(singular) < n
    # Child rank r takes color (r + offset) % n + 1, and the offsets tile the
    # children's largest classes over colors 1, 2, ... cyclically: colors
    # 1..rem, and n if the root takes it, end one larger than the rest. So
    # the merged rank order is colors 1..rem, n, rem+1..n-1, or 1..n when
    # the root stays uncolored. Every class is non-empty once some child has
    # n classes or the tiling wraps; otherwise only the tiled colors are,
    # and the root's.
    covered = sum(rep[1] for rep in reports)
    rem = covered % n
    lengths = [len(rep[0]) for rep in reports]
    longest = max(lengths)
    size = n if covered >= n or longest == n else covered + color_root

    placements = []
    offset = 0
    for classes, higher, root_rank in reports:
        trade = None
        if color_root and root_rank is not None and (root_rank + offset) % n == n - 1:
            # Not singular: the root's class is the last largest one, so rank
            # 0 holds the least color among the others; trade n with it.
            trade = root_rank, 0
        placements.append((classes, offset, trade))
        offset = (offset + higher) % n

    # merged[c - 1] holds class c, but its last slot holds class n. The
    # first longest child's list becomes it, moved by slices.
    merged, offset, trade = placements.pop(lengths.index(longest))
    merged += [None] * (size - longest)
    if offset:  # rotate right in place: copies offset items, shifts the rest
        merged[:0] = merged[size - offset :]
        del merged[size:]
    if trade:
        a, b = ((r + offset) % n for r in trade)
        merged[a], merged[b] = merged[b], merged[a]
    for classes, offset, trade in placements:
        colors = [(r + offset) % n for r in range(len(classes))]
        if trade:
            a, b = trade
            colors[a], colors[b] = colors[b], colors[a]
        # keep the longer list of each class, so each vertex moves O(log V) times
        for c, vertices in zip(colors, classes):
            kept = merged[c]
            if kept is None:
                merged[c] = vertices
            elif len(kept) < len(vertices):
                vertices.extend(kept)
                merged[c] = vertices
            else:
                kept.extend(vertices)
    if not color_root:
        return merged, rem or n, None
    merged.insert(rem, merged.pop())  # to rank order: class n to rank rem
    if merged[rem] is None:
        merged[rem] = [u]
    else:
        merged[rem].append(u)
    return merged, rem + 1, rem


def equitable_tree_coloring(tree: RootedTree, n: int) -> PartialColoring:
    """Construct a maximal equitable n-coloring; the root ends up in a class
    of maximum size or uncolored."""
    if n < 1:
        raise ValueError("need at least one color")
    colored = {}
    for u in reversed(tree.order):
        children = tree.children[u]
        if children:
            colored[u] = _color_subtree([colored.pop(child) for child in children], u, n)
        else:
            colored[u] = [[u]], 1, 0
    classes, _higher, root_rank = colored[tree.root]
    if not tree.children[tree.root]:
        palette = [1]
    elif root_rank is None:
        palette = range(1, n + 1)
    else:
        palette = [*range(1, root_rank + 1), n, *range(root_rank + 1, n)]
    colors = [None] * tree.graph.m
    sizes = [0] * n
    for c, vertices in zip(palette, classes):
        for v in vertices:
            colors[v] = c
        sizes[c - 1] = len(vertices)
    colors, sizes = tuple(colors), tuple(sizes)
    problems = coloring_violations(tree.graph, colors, n)
    if problems:
        raise RuntimeError("construction violated its own invariants: " + "; ".join(problems))
    root_color = colors[tree.root]
    if root_color is not None and sizes[root_color - 1] != max(sizes):
        raise RuntimeError("root is colored but not with a higher color")
    return PartialColoring(n, colors, sizes)
