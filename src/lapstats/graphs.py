"""Simple undirected graphs: named families, combinators, random generators.

Vertices are 0-based contiguous integers and edges are unordered pairs of
distinct vertices, stored as (min, max) tuples. Every constructor returns an
immutable value, so graphs are safe to share, hash and compare. Family
generators use fixed canonical labelings (path 0-1-...-(n-1), cycle in cyclic
order, star centered at 0, hypercube vertices as bit patterns) so that
outputs are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field

from .errors import GuardExceeded, InputError

RANDOM_FAMILIES = frozenset({"random_regular", "random_tree"})
TWO_PARAM_FAMILIES = frozenset({"complete_bipartite", "random_regular"})
FAMILIES = (
    "path",
    "cycle",
    "star",
    "complete",
    "complete_bipartite",
    "hypercube",
    "matching_union",
    "wheel",
    "complete_binary_tree",
    "random_regular",
    "random_tree",
)

_REGULAR_RETRY_LIMIT = 10_000


@dataclass(frozen=True)
class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        normalized = set()
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise InputError(f"self-loop rejected: {pair!r}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge endpoint out of range [0, {self.n}): {pair!r}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family together with its size parameters.

    ``size`` carries one integer for most families and two for
    complete_bipartite (part sizes) and random_regular (count, degree).
    ``seed`` must be given exactly for the random families.
    """

    family: str
    size: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        want = 2 if self.family in TWO_PARAM_FAMILIES else 1
        if len(self.size) != want:
            raise InputError(
                f"family {self.family!r} takes {want} size parameter(s), got {self.size!r}"
            )
        if any(s < 0 for s in self.size):
            raise InputError(f"size parameters must be nonnegative: {self.size!r}")
        if (self.seed is not None) != (self.family in RANDOM_FAMILIES):
            raise InputError(
                f"seed must be given exactly for random families; family "
                f"{self.family!r} with seed {self.seed!r}"
            )


def graph_from_edge_list(n: int, pairs) -> Graph:
    """Build a graph from explicit vertex pairs, deduplicating repeats."""
    return Graph(n, frozenset(tuple(p) for p in pairs))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


# ---------------------------------------------------------------------------
# named families


def _path(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path needs n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def _star(n: int) -> Graph:
    if n < 1:
        raise InputError(f"star needs n >= 1, got {n}")
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def _complete(n: int) -> Graph:
    if n < 1:
        raise InputError(f"complete needs n >= 1, got {n}")
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InputError(f"complete_bipartite needs both parts >= 1, got ({m}, {n})")
    return Graph(m + n, frozenset((i, m + j) for i in range(m) for j in range(n)))


def _hypercube(d: int) -> Graph:
    edges = set()
    for v in range(1 << d):
        for bit in range(d):
            w = v ^ (1 << bit)
            if v < w:
                edges.add((v, w))
    return Graph(1 << d, frozenset(edges))


def _matching_union(copies: int) -> Graph:
    if copies < 1:
        raise InputError(f"matching_union needs >= 1 copies, got {copies}")
    return Graph(2 * copies, frozenset((2 * i, 2 * i + 1) for i in range(copies)))


def _complete_binary_tree(depth: int) -> Graph:
    nv = (1 << (depth + 1)) - 1
    edges = set()
    for i in range(nv):
        for child in (2 * i + 1, 2 * i + 2):
            if child < nv:
                edges.add((i, child))
    return Graph(nv, frozenset(edges))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic per seed.

    Configuration-model pairing with full restart whenever the pairing
    produces a loop or a repeated edge; each restart reseeds from (seed,
    attempt counter) so the whole draw is a pure function of the arguments.
    """
    if d < 0 or d >= max(n, 1):
        raise InputError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"no {d}-regular graph on {n} vertices: odd degree sum")
    if d == 0:
        return empty_graph(n)
    for attempt in range(_REGULAR_RETRY_LIMIT):
        rng = random.Random(seed * 1_000_003 + attempt)
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, frozenset(edges))
    raise GuardExceeded(
        f"no simple {d}-regular pairing on {n} vertices found in "
        f"{_REGULAR_RETRY_LIMIT} attempts"
    )


def random_tree(n: int, seed: int) -> Graph:
    """Sample a uniformly random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise InputError(f"random_tree needs n >= 1, got {n}")
    if n == 1:
        return empty_graph(1)
    if n == 2:
        return Graph(2, frozenset({(0, 1)}))
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.add((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(edges))


def make_family(spec: FamilySpec) -> Graph:
    """Construct the graph described by a FamilySpec."""
    fam, size = spec.family, spec.size
    if fam == "path":
        return _path(size[0])
    if fam == "cycle":
        return _cycle(size[0])
    if fam == "star":
        return _star(size[0])
    if fam == "complete":
        return _complete(size[0])
    if fam == "complete_bipartite":
        return _complete_bipartite(size[0], size[1])
    if fam == "hypercube":
        return _hypercube(size[0])
    if fam == "matching_union":
        return _matching_union(size[0])
    if fam == "wheel":
        if size[0] < 3:
            raise InputError(f"wheel needs rim size >= 3, got {size[0]}")
        return cone(_cycle(size[0]))
    if fam == "complete_binary_tree":
        return _complete_binary_tree(size[0])
    if fam == "random_regular":
        return random_regular(size[0], size[1], spec.seed)
    if fam == "random_tree":
        return random_tree(size[0], spec.seed)
    raise InputError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# combinators


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = {(u + g1.n, v + g1.n) for u, v in g2.edges}
    return Graph(g1.n + g2.n, g1.edges | frozenset(shifted))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    base = disjoint_union(g1, g2)
    cross = {(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)}
    return Graph(base.n, base.edges | frozenset(cross))


def cone(g: Graph) -> Graph:
    """Join with a single new apex vertex (index n)."""
    return join(g, empty_graph(1))


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


def edge_count(g: Graph) -> int:
    return g.edge_count


def max_degree(g: Graph) -> int:
    return max(g.degrees(), default=0) if g.n else 0


def component_count(g: Graph) -> int:
    seen = [False] * g.n
    adj = g.adjacency()
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return count


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    adj = g.adjacency()
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and component_count(g) == 1


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
    return graph_from_edge_list(n, pairs)


def read_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read edge list {path}: {exc}") from None
    return parse_edge_list(text)
