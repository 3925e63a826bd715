"""Per-graph diagnostic rows and family sweeps.

A row bundles the structural facts (edges, max degree), the spectrum-side
statistics, the distribution distances and a verdict, Poisson-regime exactly
for the families with a Poisson reference law. ``diagnose`` is the one route
to a row, from a named member (a ``FamilySpec``) or any graph: it takes the
member and spectrum from ``families.route``, the probabilities from the
Poisson-binomial expansion of the spectrum
(``limits.probabilities_from_spectrum``), and for a member the verdict, the
Poisson reference and the per-vertex limits from its family record, and
builds the frozen row in one call. Sweeps map a family over a size ladder,
one row per entry in ascending size order; every entry's spec is made, an
edgeless one refused, and each routed by ``families.route``, so checked on
every guard on its way, and then the ladder on its bounds, before any row.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .errors import GuardExceeded, InputError
from .families import FamilySpec, family_record, route
from .graphs import Graph

VERDICT_POISSON = "poisson-regime"
VERDICT_NORMAL = "normal-regime"
VERDICT_UNKNOWN = "indeterminate"
# a sweep ladder's entries and their vertices in all: a doubling ladder up to
# the 2^20 budget fits; the slowest rows, random_regular near d = n/2 such as
# (2896, 1448), took 23-62 s each on a 2-core VM with one BLAS thread
MAX_SWEEP_ENTRIES = 32
MAX_SWEEP_VERTICES = 1 << 21


@dataclass(frozen=True)
class DiagnosticsRow:
    family: str | None
    n: int
    edges: int
    max_degree: int
    mu: float
    sigma2: float
    sigma2_lower_bound: float
    clt_distance: float
    llt_distance: float
    poisson_distance: float | None
    verdict: str
    mu_per_vertex_err: float | None
    sigma2_per_vertex_err: float | None


def _routes(sources) -> list:
    """An InputError for an edgeless source, which has no variance, before any
    guard; else each source's spectrum work by ``families.route``."""
    if any(source.edge_count == 0 for source in sources):
        raise InputError("degenerate variance")
    return [route(source, "spectrum") for source in sources]


def diagnose(source: FamilySpec | Graph) -> DiagnosticsRow:
    """The diagnostic row of a named family member or of any graph. A
    member's family record gives the verdict, the Poisson reference law and
    the per-vertex limits; a graph has none of them."""
    member, spectrum = _routes([source])[0]()
    record = family_record(source.family) if isinstance(source, FamilySpec) else None
    poisson = record.poisson(*source.size) if record and record.poisson else None
    mu_c, s2_c = record.limits if record and record.limits else (None, None)
    stats = limits.mean_variance(spectrum)
    probs = limits.probabilities_from_spectrum(spectrum)
    return DiagnosticsRow(
        family=None if record is None else source.family,
        n=member.n,
        edges=member.edge_count,
        max_degree=member.max_degree,
        mu=stats.mu,
        sigma2=stats.sigma2,
        sigma2_lower_bound=limits.variance_lower_bound(member),
        clt_distance=limits.clt_distance(probs, stats),
        llt_distance=limits.llt_distance(probs, stats),
        poisson_distance=None if poisson is None else limits.poisson_distance(probs, *poisson),
        verdict=(VERDICT_UNKNOWN if record is None
                 else VERDICT_NORMAL if record.poisson is None else VERDICT_POISSON),
        mu_per_vertex_err=None if mu_c is None else abs(stats.mu / member.n - mu_c),
        sigma2_per_vertex_err=None if s2_c is None else abs(stats.sigma2 / member.n - s2_c),
    )


def run_sweep(family: str, ladder, seed: int | None = None) -> list[DiagnosticsRow]:
    """One diagnostic row per ladder entry, ordered by ascending size
    parameters. An entry is an integer for every size parameter or a tuple
    with one value per parameter. Every entry's spec is made, checked to
    have an edge and routed, which checks every guard on its way and does no
    work, and then the ladder is held to MAX_SWEEP_ENTRIES entries and
    MAX_SWEEP_VERTICES vertices in all, before the first row."""
    arity = family_record(family).arity
    sizes = sorted(size if isinstance(size, tuple) else (size,) * arity for size in ladder)
    if not sizes:
        raise InputError("sweep ladder must be nonempty")
    specs = [FamilySpec(family, size, seed) for size in sizes]
    _routes(specs)
    vertices = sum(spec.n for spec in specs)
    if len(specs) > MAX_SWEEP_ENTRIES or vertices > MAX_SWEEP_VERTICES:
        raise GuardExceeded(
            f"sweep ladder guard: {len(specs)} entries of {vertices} vertices in all; "
            f"at most {MAX_SWEEP_ENTRIES} entries and {MAX_SWEEP_VERTICES} vertices"
        )
    return [diagnose(spec) for spec in specs]
