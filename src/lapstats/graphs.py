"""Simple undirected graphs: the immutable value, combinators, basic
statistics and the edge-list text format.

Vertices are 0-based contiguous integers and edges are unordered pairs of
distinct vertices, stored as (min, max) tuples. Every constructor returns an
immutable value, so graphs are safe to share, hash and compare. The named
families live in ``families``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import index

from .errors import GuardExceeded, InputError

# vertex and edge budgets of every graph read or named, checked before it is
# built
MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 21


@dataclass(frozen=True)
class Graph:
    """An immutable simple undirected graph on vertices 0..n-1; ``Graph(n,
    pairs)`` takes vertex pairs in either order, repeats dropped."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        try:
            n = index(self.n)
        except TypeError:
            raise InputError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for pair in self.edges:
            try:
                u, v = pair
                u, v = index(u), index(v)
            except (TypeError, ValueError):
                raise InputError(f"edge must be a pair of integer vertices, got {pair!r}") from None
            if u == v:
                raise InputError(f"self-loop rejected: {pair!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge endpoint out of range [0, {n}): {pair!r}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


# ---------------------------------------------------------------------------
# combinators


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union, g2's vertices shifted past g1's, plus every edge
    between the two vertex sets."""
    shifted = {(u + g1.n, v + g1.n) for u, v in g2.edges}
    cross = {(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)}
    return Graph(g1.n + g2.n, g1.edges | frozenset(shifted) | frozenset(cross))


def cone(g: Graph) -> Graph:
    """Join with a single new apex vertex (index n)."""
    return join(g, Graph(1))


def subdivision(g: Graph) -> Graph:
    """Insert one new vertex in the middle of every edge.

    Original vertices keep their labels; the vertex splitting the i-th edge
    (in sorted edge order) gets label n + i.
    """
    edges = set()
    for i, (u, v) in enumerate(sorted(g.edges)):
        w = g.n + i
        edges.add((u, w))
        edges.add((v, w) if v < w else (w, v))
    return Graph(g.n + g.edge_count, frozenset(edges))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product; vertex (u, v) is labeled u * |V(g2)| + v."""
    n2 = g2.n
    edges = set()
    for u in range(g1.n):
        for v, w in g2.edges:
            edges.add((u * n2 + v, u * n2 + w))
    for u, w in g1.edges:
        for v in range(n2):
            a, b = u * n2 + v, w * n2 + v
            edges.add((a, b) if a < b else (b, a))
    return Graph(g1.n * n2, frozenset(edges))


# ---------------------------------------------------------------------------
# basic statistics


def bfs_distances(adj: list[list[int]], start: int, dist: list[int]) -> None:
    """Set dist[v] to the distance from ``start`` for each vertex v of its
    component, which ``dist`` must mark -1 on entry; other entries stay."""
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)


def component_count(g: Graph) -> int:
    adj = g.adjacency()
    dist = [-1] * g.n
    count = 0
    for start in range(g.n):
        if dist[start] < 0:
            count += 1
            bfs_distances(adj, start, dist)
    return count


def is_bipartite(g: Graph) -> bool:
    adj = g.adjacency()
    dist = [-1] * g.n
    for start in range(g.n):
        if dist[start] < 0:
            bfs_distances(adj, start, dist)
    return all(dist[u] % 2 != dist[v] % 2 for u, v in g.edges)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"; lines whose
# first non-blank character is '#' are comments


def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise InputError("edge-list input is empty")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: expected integers in header, got {header!r}") from None
    if n > MAX_VERTICES:
        raise GuardExceeded(f"edge list declares {n} vertices, above the budget of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise GuardExceeded(f"edge list declares {m} edges, above the budget of {MAX_EDGES}")
    if m != len(rows) - 1:
        raise InputError(f"header declares {m} edges but {len(rows) - 1} edge lines follow")
    pairs = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(f"line {lineno}: expected integers, got {line!r}") from None
    return Graph(n, pairs)


def read_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read edge list {path}: {exc}") from None
    return parse_edge_list(text)
