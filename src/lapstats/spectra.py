"""Laplacian spectra: a dense symmetric eigensolver, spectral transforms for
joins and cones, and eigenvalue bounds.

The numeric solver is LAPACK's symmetric eigensolver through numpy
``eigvalsh``. Each result must pass a trace certificate (eigenvalue sum
against the matrix trace); the solver fails loudly instead of returning junk.
The closed-form family spectra in ``families`` are its oracle in ``verify``
and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .graphs import Graph, max_degree

# negative eigenvalues within 10 * SNAP_TOL * ||A||_F of zero are snapped to 0
SNAP_TOL = 1e-12
TRACE_TOL = 1e-8
# how close to zero the eigenvalue a join or cone consumes must be
ZERO_MATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues from any iterable of reals, held as a private read-only
    float64 array sorted descending; ``exact`` marks integer-valued closed
    forms (no floating error in the values)."""

    values: np.ndarray
    exact: bool = False

    def __post_init__(self) -> None:
        v = self.values
        a = np.asarray(v if isinstance(v, np.ndarray) else list(v), dtype=float)
        # a stable sort keeps ties (0.0 and -0.0) in sorted(reverse=True)'s
        # order, and indexing by it copies, so a caller's array is never frozen
        a = a[np.argsort(-a, kind="stable")]
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    def __len__(self) -> int:
        return len(self.values)


def numeric_spectrum(matrix) -> Spectrum:
    """Eigenvalues of a symmetric integer matrix by LAPACK (numpy ``eigvalsh``).

    A float64 ndarray, such as the Laplacian builders return, is read without
    a copy. Every result is certified by its trace: if the eigenvalue sum
    misses the matrix trace by more than TRACE_TOL * max(1, |trace|), or
    LAPACK fails, ConvergenceError is raised. Tiny negative results within
    10 * SNAP_TOL * scale of zero (scale = Frobenius norm of the input) are
    snapped to 0, since the matrices of interest are positive semi-definite.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise InputError("matrix must be symmetric")
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from None
    trace = float(np.trace(a))
    residual = abs(math.fsum(values) - trace)
    # negated so that a NaN residual fails the certificate too
    if not residual <= TRACE_TOL * max(1.0, abs(trace)):
        raise ConvergenceError(f"eigenvalue sum misses the trace by {residual:.3e}")
    snap = 10.0 * SNAP_TOL * float(np.linalg.norm(a))
    return Spectrum(np.where((-snap < values) & (values < 0.0), 0.0, values))


def _drop_one_zero(s: Spectrum, what: str) -> np.ndarray:
    smallest = float(s.values[-1])
    if abs(smallest) > ZERO_MATCH_TOL:
        raise InputError(f"{what} spectrum has no zero eigenvalue (smallest {smallest!r})")
    return s.values[:-1]


def join_spectrum(s1: Spectrum, n1: int, s2: Spectrum, n2: int) -> Spectrum:
    """Laplacian spectrum of the join, from the two input spectra.

    Consumes exactly one zero eigenvalue of each input (the smallest), adds
    0 and n1 + n2, and shifts the remaining eigenvalues by the opposite
    vertex count.
    """
    if len(s1) != n1 or len(s2) != n2:
        raise InputError("spectrum length must equal the stated vertex count")
    if n1 < 1 or n2 < 1:
        raise InputError("join needs nonempty parts")
    values = np.concatenate(([0.0, float(n1 + n2)], n2 + _drop_one_zero(s1, "first"),
                             n1 + _drop_one_zero(s2, "second")))
    return Spectrum(values, exact=s1.exact and s2.exact)


def cone_spectrum(s: Spectrum, n: int) -> Spectrum:
    """Spectrum of the cone over a graph with the given spectrum."""
    return join_spectrum(s, n, Spectrum((0.0,), exact=True), 1)


def gershgorin_bound(g: Graph) -> int:
    """Upper bound 2 * max degree on every Laplacian eigenvalue."""
    return 2 * max_degree(g)


def anderson_morley_bound(g: Graph) -> int:
    """Upper bound max(deg u + deg v) over edges on the largest eigenvalue."""
    if not g.edges:
        raise InputError("anderson_morley_bound needs at least one edge")
    deg = g.degrees()
    return max(deg[u] + deg[v] for u, v in g.edges)


def trace_check(s: Spectrum, g: Graph) -> float:
    """|sum of eigenvalues - 2|E||, a solver health metric. ``g`` may also be
    a ``families.Shape``, so closed-form members need not be built."""
    return abs(math.fsum(s.values) - 2.0 * g.edge_count)
