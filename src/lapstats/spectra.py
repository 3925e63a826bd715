"""Laplacian spectra: a dense symmetric eigensolver, the spectral transform
of a cone, and eigenvalue bounds.

The numeric solver is LAPACK's symmetric eigensolver through numpy
``eigvalsh``. ``numeric_spectra(graphs, signless)`` is the one entry, as
``exact.laplacian_coefficients_many`` is the charpoly's: it builds each
graph's (signless) Laplacian itself under the dense guard and stacks them by
order, one call per order, and a single graph is a sequence of one. Graphs
are the only way in; no public function takes a matrix to the solver. Each
result must pass a trace certificate (eigenvalue sum against the matrix
trace); the solver fails loudly instead of returning junk. The closed-form
family spectra in ``families`` are its oracle in ``verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import ConvergenceError, InputError
from .graphs import Graph

# negative eigenvalues within 10 * SNAP_TOL * ||A||_F of zero are snapped to 0
SNAP_TOL = 1e-12
TRACE_TOL = 1e-8
# how close to zero the eigenvalue a cone consumes must be
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


def numeric_spectra(graphs, signless: bool = False) -> list[Spectrum]:
    """Laplacian spectra of graphs of any orders, or signless Laplacian
    spectra if ``signless``, in input order, by one LAPACK call (numpy
    ``eigvalsh``) per order.

    Every graph meets the dense guard before any matrix is built. Each
    order's matrices are stacked; a matrix alone at its order is read as a
    view, with no copy. Each spectrum is bit for bit the one a call on its
    graph alone gives, and is certified as ``_eigvalsh`` says.
    """
    graphs = list(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        exact.dense_guard(g.n)
        by_order.setdefault(g.n, []).append(i)
    out: list[Spectrum] = [None] * len(graphs)
    for members in by_order.values():
        mats = [exact.laplacian_matrix(graphs[i], signless) for i in members]
        for i, s in zip(members, _eigvalsh(mats, members if len(graphs) > 1 else None)):
            out[i] = s
    return out


def _eigvalsh(mats: list[np.ndarray], members: list[int] | None) -> list[Spectrum]:
    """Eigenvalues of same-order symmetric float64 matrices by one certified
    LAPACK call on their stack, or on a view of a lone one; ``members`` are
    their input indices, which an error names.

    If a matrix's eigenvalue sum misses its trace by more than
    TRACE_TOL * max(1, |trace|), or LAPACK fails, ConvergenceError is
    raised. Tiny negative results within 10 * SNAP_TOL * scale of zero
    (scale = Frobenius norm of that matrix) are snapped to 0, since the
    matrices of interest are positive semi-definite.
    """
    stack = np.stack(mats) if len(mats) > 1 else mats[0][None]
    try:
        values = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from None
    out = []
    for j, (m, v) in enumerate(zip(mats, values)):
        trace = float(np.trace(m))
        residual = abs(math.fsum(v) - trace)
        # negated so that a NaN residual fails the certificate too
        if not residual <= TRACE_TOL * max(1.0, abs(trace)):
            where = "" if members is None else f" (stack member {members[j]})"
            raise ConvergenceError(f"eigenvalue sum misses the trace by {residual:.3e}{where}")
        snap = 10.0 * SNAP_TOL * float(np.linalg.norm(m))
        out.append(Spectrum(np.where((-snap < v) & (v < 0.0), 0.0, v)))
    return out


def cone_spectrum(s: Spectrum, n: int) -> Spectrum:
    """Laplacian spectrum of the cone over an n-vertex graph, from the
    graph's: consumes one zero eigenvalue (the smallest), adds 0 and n + 1,
    and shifts the remaining eigenvalues by 1."""
    if len(s) != n or n < 1:
        raise InputError(f"cone needs the spectrum of a nonempty graph of {n} vertices")
    smallest = float(s.values[-1])
    if abs(smallest) > ZERO_MATCH_TOL:
        raise InputError(f"spectrum has no zero eigenvalue (smallest {smallest!r})")
    return Spectrum(np.concatenate(([0.0, float(n + 1)], 1 + s.values[:-1])), exact=s.exact)


def gershgorin_bound(g: Graph) -> int:
    """Upper bound 2 * max degree on every Laplacian eigenvalue."""
    return 2 * g.max_degree


def anderson_morley_bound(g: Graph) -> int:
    """Upper bound max(deg u + deg v) over edges on the largest eigenvalue."""
    if not g.edges:
        raise InputError("anderson_morley_bound needs at least one edge")
    deg = g.degrees()
    return max(deg[u] + deg[v] for u, v in g.edges)


def trace_check(s: Spectrum, g: Graph) -> float:
    """|sum of eigenvalues - 2|E||, a solver health metric. ``g`` may also be
    a ``families.FamilySpec``, so closed-form members need not be built."""
    return abs(math.fsum(s.values) - 2.0 * g.edge_count)
