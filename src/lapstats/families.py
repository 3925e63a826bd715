"""The named graph families, one record each.

A record holds all that is known about a family: its size rule, the builder,
the closed-form n, |E| and maximum degree, and where they exist the spectrum,
the coefficient formula, the regime with its Poisson reference law and the
per-vertex limit constants. ``FamilySpec`` checks a member against its record
once, together with the vertex budget. Builders use fixed canonical labelings
(path 0-1-...-(n-1), cycle in cyclic order, star centered at 0, hypercube
vertices as bit patterns) so that outputs are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import exact, spectra
from .errors import GuardExceeded, InputError
from .graphs import MAX_EDGES, MAX_VERTICES, Graph, cone, empty_graph, join
from .spectra import Spectrum

_REGULAR_RETRY_LIMIT = 10_000
# decimal digits a closed-form coefficient vector may have in all: complete
# 2000 (13.2M) and path 12000 (60.2M) are admitted, path 20000 (167M) is not;
# its str() alone takes about 14 s on CPython 3.11
MAX_OUTPUT_DIGITS = 1 << 26
_SQRT5 = math.sqrt(5.0)


class Shape(NamedTuple):
    """Vertex count, edge count and maximum degree of a family member, read
    like the attributes of the same name on a ``Graph``."""

    n: int
    edge_count: int
    max_degree: int | None


@dataclass(frozen=True)
class Family:
    """One named family. Every callable takes the size parameters."""

    minimum: tuple[int, ...]  # least value of each size parameter; its length is the arity
    build: Callable[..., Graph]  # also takes the seed when ``seeded``
    order: Callable[..., int]
    edges: Callable[..., int]
    max_degree: Callable[..., int] | None  # None where the seed decides it
    seeded: bool = False
    rule: Callable[..., str | None] | None = None  # what the minimum cannot say
    spectrum: Callable[..., Spectrum] | None = None
    coefficients: Callable[..., list[int]] | None = None
    regime: str = "normal"
    poisson: Callable[..., tuple[float, int] | None] | None = None  # (mean, shift)
    limits: tuple[float, float] | None = None  # advertised (mu/n, sigma2/n)

    @property
    def arity(self) -> int:
        return len(self.minimum)


# ---------------------------------------------------------------------------
# builders; FamilySpec has checked the parameters


def _cycle(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Configuration-model pairing with full restart whenever the pairing
    produces a loop or a repeated edge; each restart reseeds from (seed,
    attempt counter) so the whole draw is a pure function of the arguments.
    """
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


def _random_tree(n: int, seed: int) -> Graph:
    """Decode a random Pruefer sequence."""
    if n == 1:
        return empty_graph(1)
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


def _regular_rule(n: int, d: int) -> str | None:
    if d >= max(n, 1):
        return f"degree must satisfy 0 <= d < n, got d={d}, n={n}"
    if (n * d) % 2 != 0:
        return f"no {d}-regular graph on {n} vertices: odd degree sum"


# ---------------------------------------------------------------------------
# spectra (exact where the values are integers, double-precision
# trigonometric values for paths, cycles and wheels) and coefficients


def _sine_spectrum(n: int, m: int) -> Spectrum:
    """4 sin^2(j pi / m), j < n: m = 2n for the path, n for the cycle. Squared by libm
    pow, as Python's ``** 2`` is; numpy's ``** 2`` is x * x, an ulp off on some values."""
    return Spectrum(4.0 * np.float_power(np.sin(np.arange(n) * math.pi / m), 2))


def _star_eigenvalues(n: int) -> list[int]:
    return [0] if n == 1 else [0, n] + [1] * (n - 2)


def _bipartite_eigenvalues(m: int, n: int) -> list[int]:
    return [0, m + n] + [n] * (m - 1) + [m] * (n - 1)


def _exact_quotient(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"closed-form recurrence: {denominator} does not divide the step")
    return q


def _ratio_coefficients(n: int, first: int, denominator: Callable[[int], int]) -> list[int]:
    """c_0 = 0, c_1 = first, c_{k+1} = c_k (n + k)(n - k) / denominator(k):
    the path and the cycle, whose c_k are binomial in k."""
    out = [0, first]
    for k in range(1, n):
        out.append(_exact_quotient(out[k] * (n + k) * (n - k), denominator(k)))
    return out


def _power_product(a: int, p: int, b: int, q: int) -> list[int]:
    """(x + a)^p (x + b)^q ascending, from the top. f = sum f_j x^j solves
    (x + a)(x + b) f' = (p (x + b) + q (x + a)) f, whose x^j coefficient is
    (N - j + 1) f_{j-1} = ab (j + 1) f_{j+1} + ((a + b) j - pb - qa) f_j with
    N = p + q; for q = 0, b = 0 it is the binomial row of (x + a)^p."""
    top = p + q
    f = [0] * (top + 2)
    f[top] = 1
    for j in range(top, 0, -1):
        step = a * b * (j + 1) * f[j + 1] + ((a + b) * j - p * b - q * a) * f[j]
        f[j - 1] = _exact_quotient(step, top - j + 1)
    return f[:top + 1]


def _spectrum_coefficients(eigenvalues: list[int]) -> list[int]:
    """prod(x + lam) ascending over a nonnegative integer spectrum, from its
    multiplicities: the two largest as one power product, each further
    eigenvalue as a linear factor, and the zeros as a shift."""
    multiplicity = Counter(eigenvalues)
    zeros = multiplicity.pop(0, 0)
    ranked = sorted(((m, lam) for lam, m in multiplicity.items()), reverse=True)
    (p, a), (q, b) = (ranked + [(0, 0), (0, 0)])[:2]
    f = _power_product(a, p, b, q)
    for m, lam in ranked[2:]:
        for _ in range(m):
            f = [lam * f[0]] + [lam * hi + lo for hi, lo in zip(f[1:], f)] + [f[-1]]
    return [0] * zeros + f


FAMILIES: dict[str, Family] = {
    "path": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((i, i + 1) for i in range(n - 1))),
        order=lambda n: n,
        edges=lambda n: n - 1,
        max_degree=lambda n: min(n - 1, 2),
        spectrum=lambda n: _sine_spectrum(n, 2 * n),
        coefficients=lambda n: _ratio_coefficients(n, n, lambda k: 2 * k * (2 * k + 1)),
        limits=(1.0 / (2.0 * _SQRT5), 1.0 / (5.0 * _SQRT5)),
    ),
    "cycle": Family(
        minimum=(3,),
        build=_cycle,
        order=lambda n: n,
        edges=lambda n: n,
        max_degree=lambda n: 2,
        spectrum=lambda n: _sine_spectrum(n, n),
        coefficients=lambda n: _ratio_coefficients(n, n * n, lambda k: (2 * k + 1) * (2 * k + 2)),
        limits=(1.0 / _SQRT5, 2.0 / (5.0 * _SQRT5)),
    ),
    "star": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((0, i) for i in range(1, n))),
        order=lambda n: n,
        edges=lambda n: n - 1,
        max_degree=lambda n: n - 1,
        spectrum=lambda n: Spectrum(_star_eigenvalues(n), exact=True),
        coefficients=lambda n: _spectrum_coefficients(_star_eigenvalues(n)),
    ),
    "complete": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))),
        order=lambda n: n,
        edges=lambda n: n * (n - 1) // 2,
        max_degree=lambda n: n - 1,
        spectrum=lambda n: Spectrum([0] + [n] * (n - 1), exact=True),
        coefficients=lambda n: _spectrum_coefficients([0] + [n] * (n - 1)),
        regime="poisson",
        poisson=lambda n: (1.0, 1),
    ),
    "complete_bipartite": Family(
        minimum=(1, 1),
        build=lambda m, n: join(empty_graph(m), empty_graph(n)),
        order=lambda m, n: m + n,
        edges=lambda m, n: m * n,
        max_degree=max,
        spectrum=lambda m, n: Spectrum(_bipartite_eigenvalues(m, n), exact=True),
        coefficients=lambda m, n: _spectrum_coefficients(_bipartite_eigenvalues(m, n)),
        regime="poisson",
        poisson=lambda m, n: (2.0, 1) if m == n else None,
    ),
    "hypercube": Family(
        minimum=(0,),
        # vertices are bit patterns; an edge flips one bit
        build=lambda d: Graph(1 << d, frozenset(
            (v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1)),
        order=lambda d: 1 << d,
        edges=lambda d: d * (1 << d) // 2,
        max_degree=lambda d: d,
        # eigenvalue 2k once for each of the C(d, k) vertices of bit count k
        spectrum=lambda d: Spectrum(np.repeat(
            np.arange(2 * d, -1, -2.0), [math.comb(d, k) for k in range(d, -1, -1)]), exact=True),
    ),
    "matching_union": Family(
        minimum=(1,),
        build=lambda copies: Graph(2 * copies, frozenset(
            (2 * i, 2 * i + 1) for i in range(copies))),
        order=lambda copies: 2 * copies,
        edges=lambda copies: copies,
        max_degree=lambda copies: 1,
        spectrum=lambda copies: Spectrum([0] * copies + [2] * copies, exact=True),
        coefficients=lambda copies: _spectrum_coefficients([0] * copies + [2] * copies),
    ),
    "wheel": Family(
        minimum=(3,),
        build=lambda n: cone(_cycle(n)),
        order=lambda n: n + 1,
        edges=lambda n: 2 * n,
        max_degree=lambda n: n,
        spectrum=lambda n: spectra.cone_spectrum(_sine_spectrum(n, n), n),
    ),
    "complete_binary_tree": Family(
        minimum=(0,),
        # heap labeling: the parent of vertex c is (c - 1) // 2
        build=lambda depth: Graph((1 << (depth + 1)) - 1, frozenset(
            ((c - 1) // 2, c) for c in range(1, (1 << (depth + 1)) - 1))),
        order=lambda depth: (1 << (depth + 1)) - 1,
        edges=lambda depth: (1 << (depth + 1)) - 2,
        max_degree=lambda depth: (0, 2, 3)[min(depth, 2)],
    ),
    "random_regular": Family(
        minimum=(0, 0),
        rule=_regular_rule,
        seeded=True,
        build=_random_regular,
        order=lambda n, d: n,
        edges=lambda n, d: n * d // 2,
        max_degree=lambda n, d: d,
    ),
    "random_tree": Family(
        minimum=(1,),
        seeded=True,
        build=_random_tree,
        order=lambda n: n,
        edges=lambda n: n - 1,
        max_degree=None,
    ),
}


def family_record(family: str) -> Family:
    try:
        return FAMILIES[family]
    except KeyError:
        raise InputError(f"unknown family {family!r}") from None


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family together with its size parameters and, for the
    seeded families only, a seed. Construction checks the family's size rule
    and the vertex budget, so a spec always names a graph that may be built.
    """

    family: str
    size: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        record = family_record(self.family)
        if len(self.size) != record.arity or any(
                s < low for s, low in zip(self.size, record.minimum)):
            raise InputError(
                f"family {self.family!r} takes {record.arity} size parameter(s), "
                f"each at least {record.minimum!r}, got {self.size!r}"
            )
        problem = record.rule(*self.size) if record.rule else None
        if problem:
            raise InputError(problem)
        if (self.seed is not None) != record.seeded:
            raise InputError(
                f"seed must be given exactly for random families; family "
                f"{self.family!r} with seed {self.seed!r}"
            )
        # n is at least every size parameter, so the first test keeps the
        # exponential orders (hypercube, binary tree) from growing huge
        if max(self.size) > MAX_VERTICES or record.order(*self.size) > MAX_VERTICES:
            raise GuardExceeded(
                f"{self.family} {self.size!r} exceeds the budget of {MAX_VERTICES} vertices"
            )


def family_shape(spec: FamilySpec) -> Shape:
    """n, |E| and the maximum degree from the closed forms, without building."""
    r = FAMILIES[spec.family]
    return Shape(r.order(*spec.size), r.edges(*spec.size),
                 r.max_degree(*spec.size) if r.max_degree else None)


def make_family(spec: FamilySpec) -> Graph:
    """Construct the graph described by a FamilySpec, within the edge budget."""
    r = FAMILIES[spec.family]
    edges = r.edges(*spec.size)
    if edges > MAX_EDGES:
        raise GuardExceeded(
            f"{spec.family} {spec.size!r} has {edges} edges, above the budget of {MAX_EDGES}"
        )
    if r.seeded:
        return r.build(*spec.size, spec.seed)
    return r.build(*spec.size)


def family_member(spec: FamilySpec) -> tuple[Graph | Shape, Spectrum]:
    """The member's shape and Laplacian spectrum: closed forms where the
    family has a closed-form spectrum, which is then never built; otherwise
    the built graph and its numeric spectrum, whose dense guard is checked
    from the closed-form n before the graph is built."""
    r = FAMILIES[spec.family]
    if r.spectrum is not None:
        return family_shape(spec), r.spectrum(*spec.size)
    exact.dense_guard(r.order(*spec.size))
    g = make_family(spec)
    return g, spectra.numeric_spectrum(exact.laplacian_matrix(g))


def _closed_form(field: str, family: str, params: tuple[int, ...]):
    formula = getattr(family_record(family), field)
    if formula is None:
        raise InputError(f"no closed-form {field} for family {family!r}")
    return formula(*FamilySpec(family, params).size)


def closed_form_spectrum(family: str, *params: int) -> Spectrum:
    """Known spectrum of a named family; exact where the values are integers,
    double-precision trigonometric values for paths, cycles and wheels."""
    return _closed_form("spectrum", family, params)


def _output_digits(s: Spectrum) -> int:
    """(n + 1) (floor(sum log10(1 + lam)) + 1): the decimal digits the n + 1
    coefficients of prod(x + lam) can reach, each being at most
    prod(1 + lam), up to the float rounding of the sum."""
    return (len(s) + 1) * (math.floor(math.fsum(map(math.log1p, s.values)) / math.log(10)) + 1)


def closed_form_coefficients(family: str, *params: int) -> list[int]:
    """Exact coefficient vector for a supported named family.

    Each vector comes from O(n) big-integer steps, every one an exact
    division checked by its remainder (ArithmeticError otherwise): a ratio
    recurrence in k for the path and the cycle, and the integer spectrum in
    multiplicity form for the others, so path 12000 takes about 0.1 s where
    the general charpoly, about P n^4 work, is refused by its guard.
    ``coeffs --closed-form`` and ``verify`` use them. Every c_k is at most
    sum(c) = prod(1 + lam), so the
    closed-form spectrum bounds the vector's decimal digits before the
    formula makes any big integer; GuardExceeded when that bound exceeds
    MAX_OUTPUT_DIGITS.
    """
    if family_record(family).coefficients is None:
        raise InputError(f"no closed-form coefficients for family {family!r}")
    digits = _output_digits(closed_form_spectrum(family, *params))
    if digits > MAX_OUTPUT_DIGITS:
        raise GuardExceeded(
            f"closed-form output guard: {family} {params!r} has up to {digits} decimal "
            f"digits of coefficients, above {MAX_OUTPUT_DIGITS}"
        )
    return _closed_form("coefficients", family, params)


def family_limit_constants(family: str) -> tuple[float, float]:
    """Advertised per-vertex limits (mu/n, sigma2/n) for paths and cycles."""
    constants = family_record(family).limits
    if constants is None:
        raise InputError(f"no limit constants for family {family!r}")
    return constants


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic per seed."""
    return make_family(FamilySpec("random_regular", (n, d), seed))


def random_tree(n: int, seed: int) -> Graph:
    """Sample a uniformly random labeled tree via a random Pruefer sequence."""
    return make_family(FamilySpec("random_tree", (n,), seed))
