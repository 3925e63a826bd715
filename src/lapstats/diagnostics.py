"""Per-graph diagnostic rows and family sweeps.

A row bundles the structural facts (edges, max degree), the spectrum-side
statistics, the distribution distances and a verdict, Poisson-regime exactly
for the families with a Poisson reference law. Every row takes its member
and spectrum from ``families.family_member`` and its probabilities from one
route, the Poisson-binomial expansion of the spectrum
(``limits.probabilities_from_spectrum``). Sweeps map a family over a size
ladder, one row per entry in ascending size order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits, spectra
from .errors import InputError
from .families import FamilySpec, family_member, family_record
from .graphs import Graph

VERDICT_POISSON = "poisson-regime"
VERDICT_NORMAL = "normal-regime"
VERDICT_UNKNOWN = "indeterminate"


@dataclass
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
    mu_per_vertex_err: float | None = None
    sigma2_per_vertex_err: float | None = None


def _row(family: str | None, member: Graph | FamilySpec, spectrum: spectra.Spectrum,
         poisson: tuple[float, int] | None = None) -> DiagnosticsRow:
    stats = limits.mean_variance(spectrum)
    probs = limits.probabilities_from_spectrum(spectrum)
    return DiagnosticsRow(
        family=family,
        n=member.n,
        edges=member.edge_count,
        max_degree=member.max_degree,
        mu=stats.mu,
        sigma2=stats.sigma2,
        sigma2_lower_bound=limits.variance_lower_bound(member),
        clt_distance=limits.clt_distance(probs, stats),
        llt_distance=limits.llt_distance(probs, stats),
        poisson_distance=None if poisson is None else limits.poisson_distance(probs, *poisson),
        verdict=VERDICT_UNKNOWN,
    )


def diagnose_family(spec: FamilySpec) -> DiagnosticsRow:
    """Full diagnostic row for one family member."""
    record = family_record(spec.family)
    row = _row(spec.family, *family_member(spec),
               record.poisson(*spec.size) if record.poisson else None)
    row.verdict = VERDICT_NORMAL if record.poisson is None else VERDICT_POISSON
    if record.limits is not None:
        mu_c, s2_c = record.limits
        row.mu_per_vertex_err = abs(row.mu / row.n - mu_c)
        row.sigma2_per_vertex_err = abs(row.sigma2 / row.n - s2_c)
    return row


def diagnose_graph(g: Graph) -> DiagnosticsRow:
    """Diagnostic row for an arbitrary graph (no family knowledge)."""
    return _row(None, *family_member(g))


def run_sweep(family: str, ladder, seed: int | None = None) -> list[DiagnosticsRow]:
    """One diagnostic row per ladder entry, ordered by ascending size
    parameters. An entry is an integer for every size parameter or a tuple
    with one value per parameter."""
    arity = family_record(family).arity
    sizes = sorted(size if isinstance(size, tuple) else (size,) * arity for size in ladder)
    if not sizes:
        raise InputError("sweep ladder must be nonempty")
    return [diagnose_family(FamilySpec(family, size, seed)) for size in sizes]
