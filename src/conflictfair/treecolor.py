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
merge alone and no merge sorts. One pass, children before parents, keeps
each subtree's report in a list indexed by vertex until its parent merges
it. Only colors change: the longest child's classes are rotated by slices,
every other child's classes go straight to their colors, a trade swaps just
the two classes it exchanges, and at each class the longer vertex list is
kept and the shorter appended to it.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence

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


def equitable_tree_coloring(tree: RootedTree, n: int) -> PartialColoring:
    """Construct a maximal equitable n-coloring; the root ends up in a class
    of maximum size or uncolored."""
    if n < 1:
        raise ValueError("need at least one color")
    # reports[v] is (classes, higher, root_rank) for v's subtree: its non-empty
    # classes in rank order, the number of largest ones, and the rank of v's
    # class (None if v is uncolored); dropped once v's parent has merged it.
    reports = [None] * tree.graph.m
    for u in reversed(tree.order):  # children before parents, the root last
        children = tree.children[u]
        if not children:
            reports[u] = [[u]], 1, 0
            continue
        # The singular children, whose colored root holds their one largest
        # class, tile first, in order, then the rest: child rank r takes color
        # (r + offset) % n + 1, the offset counting the largest classes tiled
        # before it, so the children's largest classes cover colors 1, 2, ...
        # cyclically: colors 1..rem, and n if the root takes it, end one
        # larger than the rest. So the merged rank order is colors 1..rem, n,
        # rem+1..n-1, or 1..n when the root stays uncolored. Every class is
        # non-empty once some child has n classes or the tiling wraps;
        # otherwise only the tiled colors are, and the root's.
        singular = covered = longest = 0
        for child in children:
            classes, higher, root_rank = reports[child]
            if len(classes) > longest:
                longest, base, base_at = len(classes), child, (singular, covered)
            covered += higher
            singular += higher == 1 and root_rank is not None
        color_root = singular < n
        rem = covered % n
        size = n if covered >= n or longest == n else covered + color_root
        # merged[c - 1] holds class c, but its last slot holds class n. The
        # first longest child's list becomes it, rotated by slices.
        merged, higher, root_rank = reports[base]
        before, tiled = base_at
        offset = (before if higher == 1 and root_rank is not None else singular + tiled - before) % n
        if color_root and root_rank is not None and (root_rank + offset) % n == n - 1:
            # Not singular: the root's class is the last largest one, so rank
            # 0 holds the least color among the others; trade n with it.
            merged[0], merged[root_rank] = merged[root_rank], merged[0]
        merged += [None] * (size - longest)
        if offset:  # rotate right in place: copies offset items, shifts the rest
            merged[:0] = merged[size - offset :]
            del merged[size:]
        before = tiled = 0
        for child in children:
            classes, higher, root_rank = reports[child]
            reports[child] = None
            lone = higher == 1 and root_rank is not None
            offset = (before if lone else singular + tiled - before) % n
            before += lone
            tiled += higher
            if child == base:
                continue
            if color_root and root_rank is not None and (root_rank + offset) % n == n - 1:
                classes[0], classes[root_rank] = classes[root_rank], classes[0]
            # keep the longer list of each class, so each vertex moves O(log V) times
            for c, vertices in enumerate(classes, offset):
                if c >= n:
                    c -= n
                kept = merged[c]
                if kept is None:
                    merged[c] = vertices
                elif len(kept) < len(vertices):
                    vertices += kept
                    merged[c] = vertices
                else:
                    kept += vertices
        if not color_root:
            reports[u] = merged, rem or n, None
            continue
        merged.insert(rem, merged.pop() or [])  # to rank order: class n to rank rem
        merged[rem].append(u)
        reports[u] = merged, rem + 1, rem
    classes, _higher, root_rank = reports[u]
    if not tree.children[u]:
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
