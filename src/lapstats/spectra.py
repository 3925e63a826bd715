"""Laplacian spectra: a dense symmetric eigensolver, the spectral transform
of a cone, and eigenvalue bounds.

The numeric solver is LAPACK's symmetric eigensolver through numpy
``eigvalsh``: ``numeric_spectra`` takes matrices of any orders and stacks
them by order itself, one call per order, and a single matrix is a sequence
of one. Each result must pass a trace certificate (eigenvalue sum
against the matrix trace); the solver fails loudly instead of returning junk.
The closed-form family spectra in ``families`` are its oracle in ``verify``
and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def numeric_spectra(matrices) -> list[Spectrum]:
    """Eigenvalues of each symmetric integer matrix of a sequence, of any
    orders (a (B, n, n) array is a sequence of B), in input order, by one
    LAPACK call (numpy ``eigvalsh``) per order.

    Same-order matrices are stacked; a float64 matrix alone at its order is
    read as a view, with no copy. Every result is certified by its own
    trace: if a matrix's eigenvalue sum misses its trace by more than
    TRACE_TOL * max(1, |trace|), or LAPACK fails, ConvergenceError is
    raised. Tiny negative results within 10 * SNAP_TOL * scale of zero
    (scale = Frobenius norm of that matrix) are snapped to 0, since the
    matrices of interest are positive semi-definite. Each spectrum is bit
    for bit the one a call on its matrix alone gives.
    """
    try:
        mats = list(matrices)
    except TypeError:
        raise InputError(f"matrix sequence expected, got {type(matrices).__name__}") from None
    by_order: dict[int, list[int]] = {}
    for i, m in enumerate(mats):
        try:
            if np.iscomplexobj(m):  # float would drop the imaginary parts
                raise TypeError
            m = mats[i] = np.asarray(m, dtype=float)
        except (TypeError, ValueError):  # ragged rows, or an entry that is not a real number
            raise InputError(f"matrix must be an array of real numbers{_member(mats, i)}") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"matrix must be square{_member(mats, i)}")
        if not (m == m.T).all():
            raise InputError(f"matrix must be symmetric{_member(mats, i)}")
        by_order.setdefault(len(m), []).append(i)
    out: list[Spectrum] = [None] * len(mats)
    for members in by_order.values():
        stack = np.stack([mats[i] for i in members]) if len(members) > 1 else mats[members[0]][None]
        try:
            values = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from None
        for i, v in zip(members, values):
            m = mats[i]
            trace = float(np.trace(m))
            residual = abs(math.fsum(v) - trace)
            # negated so that a NaN residual fails the certificate too
            if not residual <= TRACE_TOL * max(1.0, abs(trace)):
                raise ConvergenceError(
                    f"eigenvalue sum misses the trace by {residual:.3e}{_member(mats, i)}")
            snap = 10.0 * SNAP_TOL * float(np.linalg.norm(m))
            out[i] = Spectrum(np.where((-snap < v) & (v < 0.0), 0.0, v))
    return out


def _member(matrices: list, i: int) -> str:
    """Where a failing matrix sits in the input, when there is more than one."""
    return f" (stack member {i})" if len(matrices) > 1 else ""


def numeric_spectrum(matrix) -> Spectrum:
    """Eigenvalues of one symmetric integer matrix: ``numeric_spectra`` on a
    sequence of one, with its certificates."""
    return numeric_spectra([matrix])[0]


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
