"""Exact arbitrary-precision Laplacian and signless Laplacian coefficients.

The main pipeline is a multi-modular Faddeev-LeVerrier characteristic
polynomial. The recurrence M_1 = I, c[n-k] = -tr(A M_k) / k,
M_{k+1} = A M_k + c[n-k] I runs modulo a few primes at once on a stack of
same-order matrices, one batched float64 BLAS product per step for the whole
stack, and the Chinese remainder theorem maps each matrix's residues back to
integers. ``laplacian_coefficients_many(graphs, signless)`` is the one
entry, for either Laplacian: it builds each graph's matrix itself and stacks
them by vertex count, so ``verify`` runs one charpoly per order and sign; a
single graph is a stack of one, and many large graphs of one order go in
stacks of at most MAX_STACK_ENTRIES running entries. Graphs are the only way
in; no public function takes a matrix to the charpoly.

* Bound. A (signless) Laplacian is positive semi-definite with trace 2|E|,
  and every coefficient of det(xI - A) is an elementary symmetric function
  of its eigenvalues, so the sum of its |c| is prod(1 + lambda_i) <=
  ((n + 2|E|) / n)^n by AM-GM, which is at most (1 + 2 max degree)^n; the
  guard and the stacked kernel both take their primes from it through
  ``charpoly_guard``, 7 for a 4-regular graph on 128 vertices. Primes are
  taken until their product M exceeds twice the bound; symmetric residues
  mod M are then the integers themselves.
* Primes. Each prime p exceeds n (so 1..n are invertible mod p) and
  p * max(R, n) < 2^53, where R = 2(n - 1) bounds every row sum 2 deg(v).
  A stays unreduced and the running matrix is reduced to [0, p), so every
  partial sum of a product row or of a trace is an integer below 2^53 and
  exact in float64, whatever order BLAS sums in.
* Certificate. After the reconstruction each matrix's x^(n-1) and x^(n-2)
  coefficients are checked in Python integers against -tr A and
  (tr(A)^2 - tr(A^2)) / 2; a mismatch raises ArithmeticError naming the
  matrix's place in the stack.

The work, about P n^4 multiply-adds per matrix for P primes, is checked
against MAX_CHARPOLY_WORK (``charpoly_guard``) for every graph before any
matrix is built; ``families.route`` checks it, and ``dense_guard``, for a
named family from its closed-form n and |E| before the graph is.
Independent combinatorial routes exist so the pipeline can be cross-checked
rather than trusted: spanning-forest sums by a dynamic programme over vertex
partitions (``forest_sum_oracle``), matching counts by deletion/contraction
on edge bitmasks (``matching_counts``), a fraction-free minor determinant,
and the closed-form family formulas in ``families``. None of them shares
code with the charpoly.

Coefficient vectors are plain lists c[0..n] of nonnegative integers with
sum(c[k] * x**k) = prod(x + lambda_i) over the Laplacian eigenvalues.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import GuardExceeded, InputError
from .graphs import Graph, bfs_distances

FOREST_EDGE_GUARD = 24
# partitions the forest oracle may hold, bounded before it starts by
# min(Bell(t), 2^|E|) over the t vertices that touch an edge: any graph on at
# most 9 such vertices (Bell(9) = 21147), or on at most 16 edges
FOREST_STATE_GUARD = 1 << 16
MATCHING_EDGE_GUARD = 64
# no dense n x n matrix is built for more vertices; `stats` on a 4096-vertex
# edge list peaks near 0.29 GB, the float64 matrix and LAPACK's copy of it
MAX_DENSE_VERTICES = 1 << 12
# multiply-adds of the exact charpoly, P primes times n^4; the guard gives a
# 4-regular graph on 128 vertices 7 primes, 1.9e9
MAX_CHARPOLY_WORK = 1 << 32
# largest admitted max(R, n); with primes below 2^44, p * max(R, n) < 2^53
MAX_CHARPOLY_SCALE = 1 << 9
# float64 entries of the running array of one stacked charpoly, 8 MB; the
# whole verify corpus of one order fits, while many 128-vertex graphs are
# taken a few at a time
MAX_STACK_ENTRIES = 1 << 20
# the largest primes below 2^44, as many as the work budget can use
CHARPOLY_PRIMES = (
    17592186044399, 17592186044299, 17592186044297, 17592186044287,
    17592186044273, 17592186044267, 17592186044129, 17592186044089,
    17592186044057, 17592186044039, 17592186043987, 17592186043921,
    17592186043889, 17592186043877, 17592186043841, 17592186043829,
    17592186043819, 17592186043813, 17592186043807, 17592186043741,
    17592186043693, 17592186043667, 17592186043631, 17592186043591,
)


def dense_guard(n: int) -> None:
    """Refuse a dense n x n matrix above MAX_DENSE_VERTICES vertices."""
    if n > MAX_DENSE_VERTICES:
        raise GuardExceeded(
            f"dense matrix guard: {n} vertices > {MAX_DENSE_VERTICES}"
        )


def laplacian_matrix(g: Graph, signless: bool = False) -> np.ndarray:
    """Degree matrix minus the adjacency matrix, or plus it if ``signless``;
    n x n float64, under the dense guard."""
    dense_guard(g.n)
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * g.edge_count)
    m = np.zeros((g.n, g.n))
    sign = 1.0 if signless else -1.0
    m[ends[0::2], ends[1::2]] = sign
    m[ends[1::2], ends[0::2]] = sign
    np.fill_diagonal(m, np.bincount(ends, minlength=g.n))
    return m


def _moduli(n: int, bound: int) -> tuple[int, ...]:
    """The fewest table primes whose product exceeds 2 bound, for an n x n
    matrix whose |coefficients| are at most bound. GuardExceeded when the
    work is past MAX_CHARPOLY_WORK."""
    modulus, count = 1, 0
    while modulus <= 2 * bound:
        count += 1
        if count * n ** 4 > MAX_CHARPOLY_WORK:
            raise GuardExceeded(
                f"exact charpoly guard: n = {n} needs more than {count - 1} primes, "
                f"above {MAX_CHARPOLY_WORK} multiply-adds"
            )
        modulus *= CHARPOLY_PRIMES[count - 1]
    return CHARPOLY_PRIMES[:count]


def _spectral_bound(n: int, trace: int) -> int:
    """ceil(((n + trace) / n)^n), which bounds prod(1 + lambda_i), the sum of
    the |c| of an n x n positive semi-definite matrix with this trace."""
    return -(-(n + trace) ** n // n ** n)


def charpoly_guard(n: int, edge_count: int) -> tuple[int, ...]:
    """The primes of the exact charpoly of an n-vertex (signless) Laplacian
    with at most edge_count edges, from the AM-GM bound on its trace
    2 edge_count. Its row sums 2 deg(v) are at most r = 2 (n - 1), so the
    scale needs no degree; GuardExceeded when max(n, r) is past
    MAX_CHARPOLY_SCALE, where float64 stops being exact, or past the work
    budget."""
    r = 2 * (n - 1)
    if max(n, r) > MAX_CHARPOLY_SCALE:
        raise GuardExceeded(
            f"exact charpoly guard: n = {n}, row sums up to {r}; each must be at most {MAX_CHARPOLY_SCALE}"
        )
    return _moduli(n, _spectral_bound(n, 2 * edge_count))


def _reduce(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x mod p into [0, p), in place, for integers |x| <= R p in float64.

    The quotient is at most R <= 2^9 in size, where half an ulp is at most
    2^-45, while x / p lies at least 1 / p > 2^-44 away from any integer it
    is not; so floor(x / p) is exact, and so are the product and difference.
    """
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _faddeev_leverrier(a: np.ndarray, primes: tuple[int, ...]) -> list[list[int]]:
    """det(xI - A) ascending for each matrix of a (B, n, n) float64 stack of
    integer matrices, by the multi-modular recurrence of the module docstring;
    the product of ``primes`` must exceed twice every |coefficient|."""
    b, n, _ = a.shape
    count = len(primes)
    p = np.repeat(np.array(primes, dtype=np.float64), n)
    # the running matrix for prime j is column block j of one n x (count n)
    # array per stack member; flat positions of each block's diagonal within
    # a member, shape (n, count)
    diagonal = np.arange(n)[:, None] * (count * n + 1) + np.arange(count) * n
    aux = np.zeros((b, n, count * n))
    aux.reshape(b, count * n * n)[:, diagonal] = 1.0
    residues: list[list[list[int]]] = [[] for _ in range(n)]
    for k in range(1, n + 1):
        prod = _reduce(a @ aux, p)
        flat = prod.reshape(b, count * n * n)
        entries = flat[:, diagonal]
        inverses = [pow(k, -1, m) for m in primes]
        q = [[(-int(t) * inv) % m for t, inv, m in zip(traces, inverses, primes)]
             for traces in entries.sum(axis=1).tolist()]
        residues[n - k] = q
        flat[:, diagonal] = _reduce(entries + np.array(q, dtype=np.float64)[:, None, :],
                                    p[::n])
        aux = prod
    modulus = math.prod(primes)
    weights = [modulus // m * pow(modulus // m, -1, m) for m in primes]
    # past the guard every entry, tr A and tr A^2 is an integer below 2^53,
    # so these float sums are exact in any order
    traces = np.trace(a, axis1=1, axis2=2).tolist()
    traces_sq = np.einsum("bij,bji->b", a, a).tolist()
    polys = []
    for i in range(b):
        coeffs = []
        for step in residues:
            value = sum(r * w for r, w in zip(step[i], weights)) % modulus
            coeffs.append(value - modulus if 2 * value > modulus else value)
        coeffs.append(1)
        trace = traces[i]
        if n >= 1 and coeffs[n - 1] != -trace:
            raise ArithmeticError(
                f"charpoly certificate, matrix {i}: x^{n - 1} coefficient is not -tr A")
        if n >= 2 and 2 * coeffs[n - 2] != trace * trace - traces_sq[i]:
            raise ArithmeticError(
                f"charpoly certificate, matrix {i}: x^{n - 2} coefficient is not "
                f"(tr(A)^2 - tr(A^2)) / 2")
        polys.append(coeffs)
    return polys


def laplacian_coefficients_many(graphs, signless: bool = False) -> list[list[int]]:
    """c(G, k) for k = 0..n for each graph, exact, in input order: the
    unsigned coefficients of the Laplacian, or of the signless Laplacian if
    ``signless``. One stacked charpoly per vertex count, in first-seen order;
    every order meets the charpoly guard at its largest |E| before any matrix
    is built."""
    graphs = list(graphs)
    label = "signless Laplacian" if signless else "Laplacian"
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    # both Laplacians have trace 2 |E|; every order's primes before any matrix
    primes_of = {n: charpoly_guard(n, max(graphs[i].edge_count for i in members))
                 for n, members in by_order.items()}
    out: list[list[int]] = [[] for _ in graphs]
    for n, members in by_order.items():
        primes = primes_of[n]
        # members per stack, so that the running array stays within budget
        size = max(1, MAX_STACK_ENTRIES // (len(primes) * n * n or 1))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            stack = np.stack([laplacian_matrix(graphs[i], signless) for i in chunk])
            for i, poly in zip(chunk, _faddeev_leverrier(stack, primes)):
                for k in range(n + 1):
                    value = poly[k] if (n - k) % 2 == 0 else -poly[k]
                    if value < 0:
                        raise ArithmeticError(f"negative {label} coefficient c[{k}] = {value}")
                    out[i].append(value)
    return out


def laplacian_coefficients(g: Graph, signless: bool = False) -> list[int]:
    """c(G, k) for k = 0..n, exact; of the signless Laplacian if ``signless``."""
    return laplacian_coefficients_many([g], signless)[0]


def _bell(n: int) -> int:
    """The number of partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def forest_sum_oracle(g: Graph) -> list[int]:
    """Coefficients as a sum over spanning forests.

    A forest with n - k edges contributes the product of its component
    orders to c[k]; isolated vertices count as components of order 1. A
    dynamic programme over vertex partitions counts the forests: it keeps
    how many forests of the edges seen so far give each partition of the t
    vertices that touch an edge, and each edge, in sorted order, either is
    skipped or merges two blocks. A partition is ``bytes`` mapping each
    vertex to the smallest vertex of its block, so a merge is one
    ``bytes.replace``. There are at most min(Bell(t), 2^|E|) partitions;
    guarded at |E| <= FOREST_EDGE_GUARD and at that many partitions
    <= FOREST_STATE_GUARD, both before any work.
    """
    if g.edge_count > FOREST_EDGE_GUARD:
        raise GuardExceeded(
            f"forest enumeration guard: {g.edge_count} edges > {FOREST_EDGE_GUARD}"
        )
    touched = sorted({v for e in g.edges for v in e})
    t = len(touched)
    states = min(_bell(t), 1 << g.edge_count)
    if states > FOREST_STATE_GUARD:
        raise GuardExceeded(
            f"forest partition guard: up to {states} partitions of {t} vertices > {FOREST_STATE_GUARD}"
        )
    index = {v: i for i, v in enumerate(touched)}
    single = [bytes((i,)) for i in range(t)]
    forests = {bytes(range(t)): 1}
    for u, v in sorted(g.edges):
        u, v = index[u], index[v]
        grown = dict(forests)  # the forests without this edge
        for part, count in forests.items():
            a, b = part[u], part[v]
            if a != b:
                merged = part.replace(single[b], single[a]) if a < b else \
                    part.replace(single[a], single[b])
                grown[merged] = grown.get(merged, 0) + count
        forests = grown
    coeffs = [0] * (g.n + 1)
    isolated = g.n - t
    for part, count in forests.items():
        blocks = set(part)
        coeffs[len(blocks) + isolated] += count * math.prod(map(part.count, blocks))
    return coeffs


def matching_counts(g: Graph) -> list[int]:
    """Number of k-matchings for k = 0..floor(n/2).

    Deletion/contraction on the lowest surviving edge in sorted order,
    memoized on the surviving edge set as an ``int`` bitmask over the
    sorted edges: skipping the edge clears its bit, taking it clears the
    precomputed mask of every edge that touches either endpoint. Guarded at
    |E| <= 64 edges.
    """
    if g.edge_count > MATCHING_EDGE_GUARD:
        raise GuardExceeded(
            f"matching recursion guard: {g.edge_count} edges > {MATCHING_EDGE_GUARD}"
        )
    edges = sorted(g.edges)
    incident = [0] * g.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    touching = [incident[u] | incident[v] for u, v in edges]
    memo: dict[int, tuple[int, ...]] = {}

    def counts(mask: int) -> tuple[int, ...]:
        if not mask:
            return (1,)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        skip = counts(mask ^ low)
        take = counts(mask & ~touching[low.bit_length() - 1])
        out = list(skip) + [0] * max(0, len(take) + 1 - len(skip))
        for i, value in enumerate(take):
            out[i + 1] += value
        result = tuple(out)
        memo[mask] = result
        return result

    raw = counts((1 << len(edges)) - 1)
    length = g.n // 2 + 1
    return list(raw) + [0] * (length - len(raw))


def _tree_count(laplacian: np.ndarray) -> int:
    """Exact determinant of the principal minor that drops vertex 0, by
    fraction-free (Bareiss) elimination with row pivoting."""
    a = laplacian[1:, 1:].astype(int).tolist()
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
    return _tree_count(laplacian_matrix(g))


def coefficients_from_eigenvalues(values) -> list:
    """Expand prod(x + lam); exact for integer eigenvalues, and floats in,
    floats out for the reconstruction cross-checks."""
    coeffs = [1]
    for lam in values:
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
        bfs_distances(adj, start, dist)
        if any(d < 0 for d in dist):
            raise InputError("wiener_index needs a connected graph")
        total += sum(dist)
    return total // 2
