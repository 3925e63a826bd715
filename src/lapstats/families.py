"""The named graph families, one record each, and the one route from a
member or a graph to its spectrum or coefficients.

A record holds all that is known about a family: its size rule, the builder,
the closed-form n, |E| and maximum degree, and where they exist the spectrum,
the coefficients, the Poisson reference law of a Poisson-regime family and
the per-vertex limit constants. Every closed-form coefficient vector is data
for one solver, ``_solve``, of a linear ODE with integer polynomial
coefficients that det(xI + L) satisfies: the path, cycle and wheel declare
theirs by Chebyshev polynomials, and the families with integer spectra
declare (eigenvalue, multiplicity) pairs, which give the spectrum and the
ODE P f' = Q f. ``FamilySpec`` checks a member against its record once,
together with the size rule and the vertex budget, and carries those n, |E|
and maximum degree. ``route`` decides between the closed form and the
engine, checks every guard on the way it chose from the spec's closed forms
or the graph's n and |E|, and only then hands back the work as a call;
``family_member`` and ``family_coefficients`` make that call.
``closed_form_spectrum`` and ``closed_form_coefficients`` name a member by
its parts, refuse a family without the closed form and otherwise go through
those two. Builders use fixed canonical labelings (path 0-1-...-(n-1), cycle
in cyclic order, star centered at 0, hypercube vertices as bit patterns) so
that outputs are reproducible byte for byte. Random regular graphs take
Steger and Wormald's pairing, whose law is asymptotically uniform only for
small d: d = o(n^(1/28)) (Steger and Wormald 1999) or d << n^(1/3 - eps)
(Kim and Vu 2003).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from operator import index
from typing import Callable

import numpy as np

from . import exact, spectra
from .errors import GuardExceeded, InputError
from .graphs import MAX_EDGES, MAX_VERTICES, Graph, cone, join
from .spectra import Spectrum

# decimal digits a closed-form coefficient vector may have in all: complete
# 2000 (13.2M) and path 12000 (60.2M) are admitted, path 20000 (167M) is not;
# its str() alone takes about 14 s on CPython 3.11
MAX_OUTPUT_DIGITS = 1 << 26
_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Family:
    """One named family. Every callable takes the size parameters."""

    minimum: tuple[int, ...]  # least value of each size parameter; its length is the arity
    build: Callable[..., Graph]  # also takes the seed when ``seeded``
    order: Callable[..., int]
    edges: Callable[..., int]
    max_degree: Callable[..., int] | None  # None where the seed decides it
    seeded: bool = False
    rule: Callable[..., None] | None = None  # raises for what the minimum cannot say
    spectrum: Callable[..., Spectrum] | None = None
    coefficients: Callable[..., list[int]] | None = None
    # (mean, shift) of the Poisson reference law, None for a member without
    # one; exactly the families that set it get the Poisson verdict
    poisson: Callable[..., tuple[float, int] | None] | None = None
    limits: tuple[float, float] | None = None  # advertised (mu/n, sigma2/n)

    @property
    def arity(self) -> int:
        return len(self.minimum)


# ---------------------------------------------------------------------------
# builders; FamilySpec has checked the parameters


def _cycle(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Steger and Wormald's pairing in rounds under one random.Random(seed),
    restarts included: a round shuffles the unpaired stubs, keeps each pair that
    makes a new simple edge and returns the rest; the draw restarts only when no
    two vertices left can be joined. For 2d > n - 1, as restarts grow steeply toward
    d = n - 1, the complement is drawn and taken pair by pair, never as a set of all pairs."""
    rng, k, edges = random.Random(seed), min(d, n - 1 - d), set()
    stubs = list(range(n)) * k
    while stubs:
        rng.shuffle(stubs)
        pool: dict[int, int] = {}  # stubs returned, per vertex
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (u, v) if u < v else (v, u)
            if u != v and e not in edges:
                edges.add(e)
            else:
                pool[e[0]] = pool.get(e[0], 0) + 1
                pool[e[1]] = pool.get(e[1], 0) + 1
        stubs = [v for v, count in pool.items() for _ in range(count)]
        if stubs and all(e in edges for e in itertools.combinations(sorted(pool), 2)):
            edges, stubs = set(), list(range(n)) * k
    return Graph(n, edges if k == d else (
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges))


def _random_tree(n: int, seed: int) -> Graph:
    """Decode a random Pruefer sequence."""
    if n == 1:
        return Graph(1)
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


def _regular_rule(n: int, d: int) -> None:
    """0 <= d < n and an even degree sum: exactly the members that exist,
    each drawn, so no degree is refused and the edge budget bounds the work."""
    if d >= max(n, 1):
        raise InputError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"no {d}-regular graph on {n} vertices: odd degree sum")


# ---------------------------------------------------------------------------
# spectra (exact where the values are integers, double-precision
# trigonometric values for paths, cycles and wheels) and coefficients


def _sine_spectrum(n: int, m: int) -> Spectrum:
    """4 sin^2(j pi / m), j < n: m = 2n for the path, n for the cycle. Squared by libm
    pow, as Python's ``** 2`` is; numpy's ``** 2`` is x * x, an ulp off on some values."""
    return Spectrum(4.0 * np.float_power(np.sin(np.arange(n) * math.pi / m), 2))


def _times(p: list[int], q: list[int]) -> list[int]:
    """p q, ascending."""
    out = [0] * (len(p) + len(q) - 1)
    for (i, a), (j, b) in itertools.product(enumerate(p), enumerate(q)):
        out[i + j] += a * b
    return out


def _value(w: list[int], k: int) -> int:
    """w(k), w ascending, by Horner's rule."""
    v = 0
    for c in reversed(w):
        v = v * k + c
    return v


def _solve(equation: list[list[int]], degree: int, minus: int = 0, zeros: int = 0,
           times: int = 0, over: int = 0) -> list[int]:
    """x^zeros (g - minus) (x + times) / (x + over), ascending, for the monic g
    of the given degree with sum_i A_i(x) g^(i)(x) = 0, equation = [A_0, A_1,
    ...] each ascending: g is D-finite (Stanley 1980). A term a x^j g^(i) puts
    a k (k-1) ... (k-i+1) g_k on x^(k+s), s = j - i. With w_s(k) their sum at
    shift s and d the largest shift, the x^(k+d) coefficient gives g_k from the
    top: per shift one product by a small weight w_s, then one exact division
    by w_d(k). Every division is checked by its remainder (ArithmeticError)."""
    weights: dict[int, list[int]] = {}  # shift -> w_s, ascending in k
    for i, a in enumerate(equation):
        falling = functools.reduce(_times, ([-t, 1] for t in range(i)), [1])
        for (j, a_j), (e, b) in itertools.product(enumerate(a), enumerate(falling)):
            weights.setdefault(j - i, [0] * len(equation))[e] += a_j * b
    d = max(s for s, w in weights.items() if any(w))
    lead = weights.pop(d)
    terms = [(d - s, w) for s, w in weights.items() if any(w)]
    g = [0] * degree + [1] + [0] * (d - min(weights, default=d))
    for k in range(degree - 1, -1, -1):
        step = 0
        for t, w in terms:
            step -= _value(w, k + t) * g[k + t]
        g[k], r = divmod(step, _value(lead, k))
        if r:
            raise ArithmeticError(f"closed-form recurrence: {_value(lead, k)} does not divide the step")
    g = g[:degree + 1]
    g[0] -= minus
    if times != over:  # synthetic division from the top
        q = list(itertools.accumulate(g[:0:-1], lambda hi, c: c - over * hi))[::-1]
        if g[0] != over * q[0]:
            raise ArithmeticError(f"closed-form recurrence: x + {over} does not divide the solution")
        g = _times(q, [times, 1])
    return [0] * zeros + g


def _integer_spectrum(pairs: Callable[..., list[tuple[int, int]]]) -> dict[str, Callable]:
    """The ``spectrum`` and ``coefficients`` of a family whose Laplacian
    eigenvalues are the integers lam, each m times, over ``pairs(*size)``."""
    def spectrum(*size: int) -> Spectrum:
        values, multiplicities = zip(*pairs(*size))
        return Spectrum(np.repeat(np.array(values, dtype=float), multiplicities), exact=True)

    def coefficients(*size: int) -> list[int]:
        multiplicity: dict[int, int] = {}
        for lam, m in pairs(*size):
            multiplicity[lam] = multiplicity.get(lam, 0) + m
        zeros = multiplicity.pop(0, 0)
        # g = prod (x + lam)^m solves P g' = Q g; a factor (x + lam)^m takes P to
        # P (x + lam) and Q to Q (x + lam) + m P, and m = 0 keeps it true
        p, q = [1], [0]
        for lam, m in multiplicity.items():
            p, q = _times(p, [lam, 1]), [a + m * b for a, b in zip(_times(q, [lam, 1]), p + [0])]
        return _solve([[-c for c in q], p], sum(multiplicity.values()), zeros=zeros)

    return {"spectrum": spectrum, "coefficients": coefficients}


FAMILIES: dict[str, Family] = {
    "path": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((i, i + 1) for i in range(n - 1))),
        order=lambda n: n,
        edges=lambda n: n - 1,
        max_degree=lambda n: min(n - 1, 2),
        spectrum=lambda n: _sine_spectrum(n, 2 * n),
        # x U_(n-1)((x + 2) / 2)
        coefficients=lambda n: _solve([[n * n - 1], [-6, -3], [0, -4, -1]], n - 1, zeros=1),
        limits=(1.0 / (2.0 * _SQRT5), 1.0 / (5.0 * _SQRT5)),
    ),
    "cycle": Family(
        minimum=(3,),
        build=_cycle,
        order=lambda n: n,
        edges=lambda n: n,
        max_degree=lambda n: 2,
        spectrum=lambda n: _sine_spectrum(n, n),
        # 2 T_n((x + 2) / 2) - 2
        coefficients=lambda n: _solve([[n * n], [-2, -1], [0, -4, -1]], n, minus=2),
        limits=(1.0 / _SQRT5, 2.0 / (5.0 * _SQRT5)),
    ),
    "star": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((0, i) for i in range(1, n))),
        order=lambda n: n,
        edges=lambda n: n - 1,
        max_degree=lambda n: n - 1,
        **_integer_spectrum(lambda n: [(0, 1)] if n == 1 else [(0, 1), (n, 1), (1, n - 2)]),
    ),
    "complete": Family(
        minimum=(1,),
        build=lambda n: Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))),
        order=lambda n: n,
        edges=lambda n: n * (n - 1) // 2,
        max_degree=lambda n: n - 1,
        **_integer_spectrum(lambda n: [(0, 1), (n, n - 1)]),
        poisson=lambda n: (1.0, 1),
    ),
    "complete_bipartite": Family(
        minimum=(1, 1),
        build=lambda m, n: join(Graph(m), Graph(n)),
        order=lambda m, n: m + n,
        edges=lambda m, n: m * n,
        max_degree=max,
        **_integer_spectrum(lambda m, n: [(0, 1), (m + n, 1), (n, m - 1), (m, n - 1)]),
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
        **_integer_spectrum(lambda d: [(2 * k, math.comb(d, k)) for k in range(d + 1)]),
    ),
    "matching_union": Family(
        minimum=(1,),
        build=lambda copies: Graph(2 * copies, frozenset(
            (2 * i, 2 * i + 1) for i in range(copies))),
        order=lambda copies: 2 * copies,
        edges=lambda copies: copies,
        max_degree=lambda copies: 1,
        **_integer_spectrum(lambda copies: [(0, copies), (2, copies)]),
    ),
    "wheel": Family(
        minimum=(3,),
        build=lambda n: cone(_cycle(n)),
        order=lambda n: n + 1,
        edges=lambda n: 2 * n,
        max_degree=lambda n: n,
        spectrum=lambda n: spectra.cone_spectrum(_sine_spectrum(n, n), n),
        # x (x + n + 1) (G - 2) / (x + 1), G = 2 T_n((x + 3) / 2)
        coefficients=lambda n: _solve([[n * n], [-3, -1], [-5, -6, -1]], n,
                                      minus=2, zeros=1, times=n + 1, over=1),
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
    seeded families only, a seed. Construction checks that the sizes and the
    seed are integers (stored as Python ints), the family's size rule and the
    vertex budget, so a spec always names a graph that may be built, and
    stores its closed-form n, edge_count and max_degree as a Graph has them.
    """

    family: str
    size: tuple[int, ...]
    seed: int | None = None
    n: int = field(init=False, compare=False, repr=False)
    edge_count: int = field(init=False, compare=False, repr=False)
    max_degree: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        record = family_record(self.family)
        try:
            object.__setattr__(self, "size", tuple(map(index, self.size)))
        except TypeError:
            raise InputError(f"size parameters must be integers, got {self.size!r}") from None
        if len(self.size) != record.arity or any(
                s < low for s, low in zip(self.size, record.minimum)):
            raise InputError(
                f"family {self.family!r} takes {record.arity} size parameter(s), "
                f"each at least {record.minimum!r}, got {self.size!r}"
            )
        if (self.seed is not None) != record.seeded:
            raise InputError(
                f"seed must be given exactly for random families; family "
                f"{self.family!r} with seed {self.seed!r}"
            )
        try:
            object.__setattr__(self, "seed", None if self.seed is None else index(self.seed))
        except TypeError:
            raise InputError(f"seed must be an integer, got {self.seed!r}") from None
        if record.rule:  # input errors, ahead of the vertex budget
            record.rule(*self.size)
        # n is at least every size parameter, so the first test keeps the
        # exponential orders (hypercube, binary tree) from growing huge
        if max(self.size) > MAX_VERTICES or (n := record.order(*self.size)) > MAX_VERTICES:
            raise GuardExceeded(
                f"{self.family} {self.size!r} exceeds the budget of {MAX_VERTICES} vertices"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_count", record.edges(*self.size))
        object.__setattr__(self, "max_degree",
                           record.max_degree(*self.size) if record.max_degree else None)


def make_family(spec: FamilySpec) -> Graph:
    """Construct the graph described by a FamilySpec, within the edge budget."""
    r = FAMILIES[spec.family]
    if spec.edge_count > MAX_EDGES:
        raise GuardExceeded(
            f"{spec.family} {spec.size!r} has {spec.edge_count} edges, above the budget of {MAX_EDGES}"
        )
    if r.seeded:
        return r.build(*spec.size, spec.seed)
    return r.build(*spec.size)


def _output_digits(s: Spectrum) -> int:
    """(n + 1) (floor(sum log10(1 + lam)) + 1): the decimal digits the n + 1
    coefficients of prod(x + lam) can reach, each being at most
    prod(1 + lam), up to the float rounding of the sum."""
    return (len(s) + 1) * (math.floor(math.fsum(map(math.log1p, s.values)) / math.log(10)) + 1)


def route(source: FamilySpec | Graph, what: str, signless: bool = False) -> Callable[[], object]:
    """The work that gives ``what`` ("spectrum" or "coefficients") of the
    (signless) Laplacian of a named member or any graph, as a call, once
    every guard on its way has passed; nothing is built or solved before.

    A spec whose family has the closed form takes it, unless ``signless``,
    and is never built: a spectrum as it is, the coefficients by ``_solve``,
    O(n) big-integer steps each an exact division checked by its remainder
    (ArithmeticError otherwise), once the closed-form spectrum bounds the
    vector's decimal digits within MAX_OUTPUT_DIGITS, as every c_k is at
    most sum(c) = prod(1 + lam). Anything else takes an engine, given
    ``signless`` as it is and checked on the spec's closed-form or the
    graph's n and |E|: the numeric spectrum under the dense guard, or the
    exact charpoly, about P n^4 work, under its guard, which refuses every
    n far below the dense one. A spec's graph is built in the call. The
    spectrum comes with its member: the spec for a closed form, else the
    graph."""
    if isinstance(source, FamilySpec) and not signless:
        record = FAMILIES[source.family]
        if what == "spectrum" and record.spectrum is not None:
            return lambda: (source, record.spectrum(*source.size))
        if what == "coefficients" and record.coefficients is not None:
            digits = _output_digits(record.spectrum(*source.size))
            if digits > MAX_OUTPUT_DIGITS:
                raise GuardExceeded(
                    f"closed-form output guard: {source.family} {source.size!r} has up to "
                    f"{digits} decimal digits of coefficients, above {MAX_OUTPUT_DIGITS}"
                )
            return lambda: record.coefficients(*source.size)

    def graph() -> Graph:
        return make_family(source) if isinstance(source, FamilySpec) else source

    if what == "spectrum":
        exact.dense_guard(source.n)
        return lambda: (g := graph(), spectra.numeric_spectra([g], signless)[0])
    exact.charpoly_guard(source.n, source.edge_count)
    return lambda: exact.laplacian_coefficients(graph(), signless)


def family_member(source: FamilySpec | Graph,
                  signless: bool = False) -> tuple[FamilySpec | Graph, Spectrum]:
    """The member and its (signless) Laplacian spectrum, by ``route``."""
    return route(source, "spectrum", signless)()


def family_coefficients(source: FamilySpec | Graph, signless: bool = False) -> list[int]:
    """The exact (signless) Laplacian coefficients, by ``route``."""
    return route(source, "coefficients", signless)()


def closed_form_spectrum(family: str, *params: int) -> Spectrum:
    """Known spectrum of a named family member, ``family_member`` of its
    spec; exact where the values are integers, double-precision trigonometric
    values for paths, cycles and wheels. InputError for a family without one."""
    if family_record(family).spectrum is None:
        raise InputError(f"no closed-form spectrum for family {family!r}")
    return family_member(FamilySpec(family, params))[1]


def closed_form_coefficients(family: str, *params: int) -> list[int]:
    """Exact coefficient vector of a named family member by its formula,
    ``family_coefficients`` of its spec. InputError for a family without one."""
    if family_record(family).coefficients is None:
        raise InputError(f"no closed-form coefficients for family {family!r}")
    return family_coefficients(FamilySpec(family, params))


def family_limit_constants(family: str) -> tuple[float, float]:
    """Advertised per-vertex limits (mu/n, sigma2/n) for paths and cycles."""
    constants = family_record(family).limits
    if constants is None:
        raise InputError(f"no limit constants for family {family!r}")
    return constants
