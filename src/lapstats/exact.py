"""Exact arbitrary-precision Laplacian and signless Laplacian coefficients.

The main pipeline is a Faddeev-LeVerrier characteristic polynomial over
Python integers. Independent combinatorial routes (spanning-forest sums,
matching counts, a fraction-free minor determinant, and the closed-form
family formulas in ``families``) exist so the pipeline can be cross-checked
rather than trusted.

Coefficient vectors are plain lists c[0..n] of nonnegative integers with
sum(c[k] * x**k) = prod(x + lambda_i) over the Laplacian eigenvalues.
"""

from __future__ import annotations

from collections import deque

from .errors import GuardExceeded, InputError
from .graphs import Graph

FOREST_EDGE_GUARD = 24
MATCHING_EDGE_GUARD = 64

def laplacian_matrix(g: Graph) -> list[list[int]]:
    """Degree matrix minus adjacency matrix."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u][v] = m[v][u] = -1
        m[u][u] += 1
        m[v][v] += 1
    return m


def signless_laplacian_matrix(g: Graph) -> list[list[int]]:
    """Degree matrix plus adjacency matrix."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u][v] = m[v][u] = 1
        m[u][u] += 1
        m[v][v] += 1
    return m


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def charpoly_monic(matrix: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - M), ascending, leading coefficient 1.

    Faddeev-LeVerrier recurrence over exact integers. Every internal
    division is by construction exact and is asserted, never rounded.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("matrix must be square")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = _mat_mul(matrix, aux)
        trace = sum(prod[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError(f"inexact division at step {k}: trace {trace}")
        coeffs[n - k] = q
        if k < n:
            for i in range(n):
                prod[i][i] += q
            aux = prod
    return coeffs


def _unsigned_coefficients(g: Graph, matrix: list[list[int]], label: str) -> list[int]:
    poly = charpoly_monic(matrix)
    n = g.n
    out = []
    for k in range(n + 1):
        value = poly[k] if (n - k) % 2 == 0 else -poly[k]
        if value < 0:
            raise ArithmeticError(f"negative {label} coefficient c[{k}] = {value}")
        out.append(value)
    return out


def laplacian_coefficients(g: Graph) -> list[int]:
    """c(G, k) for k = 0..n, exact."""
    return _unsigned_coefficients(g, laplacian_matrix(g), "Laplacian")


def signless_coefficients(g: Graph) -> list[int]:
    """Unsigned coefficients of the signless Laplacian, exact."""
    return _unsigned_coefficients(g, signless_laplacian_matrix(g), "signless Laplacian")


def forest_sum_oracle(g: Graph) -> list[int]:
    """Coefficients by direct enumeration of spanning forests.

    A forest with n - k edges contributes the product of its component
    orders to c[k]; isolated vertices count as components of order 1.
    Guarded at |E| <= 24 edges, enumeration only visits acyclic subsets.
    """
    if g.edge_count > FOREST_EDGE_GUARD:
        raise GuardExceeded(
            f"forest enumeration guard: {g.edge_count} edges > {FOREST_EDGE_GUARD}"
        )
    n = g.n
    edges = sorted(g.edges)
    parent = list(range(n))
    size = [1] * n
    coeffs = [0] * (n + 1)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i: int, used: int) -> None:
        if i == len(edges):
            p = 1
            for v in range(n):
                if parent[v] == v:
                    p *= size[v]
            coeffs[n - used] += p
            return
        visit(i + 1, used)
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            visit(i + 1, used + 1)
            size[ru] -= size[rv]
            parent[rv] = rv

    visit(0, 0)
    return coeffs


def matching_counts(g: Graph) -> list[int]:
    """Number of k-matchings for k = 0..floor(n/2).

    Deletion/contraction on an arbitrary edge with memoization on the
    surviving edge set. Guarded at |E| <= 64 edges.
    """
    if g.edge_count > MATCHING_EDGE_GUARD:
        raise GuardExceeded(
            f"matching recursion guard: {g.edge_count} edges > {MATCHING_EDGE_GUARD}"
        )
    memo: dict[frozenset, tuple[int, ...]] = {}

    def counts(edges: frozenset) -> tuple[int, ...]:
        if not edges:
            return (1,)
        cached = memo.get(edges)
        if cached is not None:
            return cached
        u, v = min(edges)
        rest = edges - {(u, v)}
        skip = counts(rest)
        take = counts(frozenset(e for e in rest if u not in e and v not in e))
        out = list(skip) + [0] * max(0, len(take) + 1 - len(skip))
        for i, value in enumerate(take):
            out[i + 1] += value
        result = tuple(out)
        memo[edges] = result
        return result

    raw = counts(g.edges)
    length = g.n // 2 + 1
    return list(raw) + [0] * (length - len(raw))


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(row_i[j] * pivot - factor * row_k[j], prev)
                if r:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees: determinant of a principal Laplacian minor."""
    if g.n < 1:
        raise InputError("spanning_tree_count needs at least one vertex")
    lap = laplacian_matrix(g)
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_determinant(minor)


def coefficients_from_eigenvalues(values) -> list[int]:
    """Expand prod(x + lam) for integer eigenvalues, exact."""
    coeffs = [1]
    for lam in values:
        lam = int(lam)
        longer = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            longer[i + 1] += a
            longer[i] += a * lam
        coeffs = longer
    return coeffs


def wiener_index(g: Graph) -> int:
    """Sum of BFS distances over unordered vertex pairs; connected input only."""
    adj = g.adjacency()
    total = 0
    for start in range(g.n):
        dist = [-1] * g.n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if any(d < 0 for d in dist):
            raise InputError("wiener_index needs a connected graph")
        total += sum(dist)
    return total // 2
