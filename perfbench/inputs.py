"""Seeded edge-list inputs, generated without lapstats.

Random regular graphs come from the configuration model (random perfect
matching of vertex stubs, rejected until simple) and random labelled trees
from a uniform Pruefer sequence. Both use only the standard library, so the
inputs stay fixed when ``lapstats.graphs`` changes.
"""

from __future__ import annotations

import hashlib
import heapq
import random

_MAX_MATCHING_TRIES = 100_000
# degree of each random regular input: a 3/4-regular mix, with the 4-regular
# sizes matching the charpoly and Jacobi timings quoted in ROADMAP.md
REGULAR_DEGREE = {"rr64": 4, "rr96": 3, "rr128": 4}


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniform simple d-regular graph on n vertices."""
    if n * d % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_MAX_MATCHING_TRIES):
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            pair = (u, v) if u < v else (v, u)
            if u == v or pair in edges:
                break
            edges.add(pair)
        else:
            return sorted(edges)
    raise RuntimeError(f"configuration model found no simple {d}-regular graph on {n} vertices")


def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniform labelled tree on n >= 2 vertices (Pruefer decoding)."""
    if n < 2:
        raise ValueError("a Pruefer tree needs n >= 2")
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return sorted(edges)


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The 'n m' header followed by one 'u v' line per edge."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def make_input(name: str, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a named input: ``rr<n>`` or ``rt<n>``.

    Each input draws from its own generator seeded by (seed, name), so adding
    or reordering inputs never changes the others.
    """
    rng = random.Random(f"{seed}:{name}")
    n = int(name[2:])
    if name.startswith("rr"):
        return n, random_regular_edges(n, REGULAR_DEGREE[name], rng)
    if name.startswith("rt"):
        return n, random_tree_edges(n, rng)
    raise ValueError(f"unknown input {name!r}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
