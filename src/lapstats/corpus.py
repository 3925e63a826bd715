"""Pinned verification corpus and the cross-module invariant checks.

The corpus is fixed so repeated runs are reproducible: every named family at
sizes 1..12 where valid, 20 seeded random trees per order in 4..9 (extended
to 12 for the coefficient sandwich), and 10 seeded random regular graphs for
(n, d) in {(8, 3), (10, 3), (10, 4)}. Each graph's Laplacian
coefficients are computed once per run, by one stacked exact charpoly per
vertex count over the corpus and the extra trees, and shared by every check
that needs them; the bipartite signless check stacks its graphs the same
way. Checks return one pass/fail line each and never depend on execution
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact, limits, spectra
from .families import (
    FAMILIES,
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    make_family,
    random_regular,
    random_tree,
)
from .graphs import Graph, component_count, is_bipartite, subdivision

TREE_SEEDS = tuple(range(20))
REGULAR_SEEDS = tuple(range(10))
REGULAR_SHAPES = ((8, 3), (10, 3), (10, 4))


# corpus labels that differ from the family name
_LABEL_PREFIX = {
    "complete_bipartite": "bipartite",
    "matching_union": "matching",
    "complete_binary_tree": "btree",
}

_FAMILY_MEMBERS = (
    [("path", (n,)) for n in range(1, 13)]
    + [("cycle", (n,)) for n in range(3, 13)]
    + [("star", (n,)) for n in range(1, 13)]
    + [("complete", (n,)) for n in range(1, 13)]
    + [("complete_bipartite", (m, n)) for m in range(1, 7) for n in range(m, 13 - m)]
    + [("hypercube", (d,)) for d in range(0, 4)]
    + [("matching_union", (n,)) for n in range(1, 7)]
    + [("wheel", (n,)) for n in range(3, 12)]
    + [("complete_binary_tree", (depth,)) for depth in range(0, 3)]
)


def _label(family: str, params: tuple[int, ...]) -> str:
    return "-".join([_LABEL_PREFIX.get(family, family), *map(str, params)])


def corpus_graphs() -> list[tuple[str, Graph]]:
    """The pinned corpus in a fixed, deterministic order."""
    out = [(_label(f, p), make_family(FamilySpec(f, p))) for f, p in _FAMILY_MEMBERS]
    out.extend(corpus_trees(max_n=9))
    for n, d in REGULAR_SHAPES:
        for seed in REGULAR_SEEDS:
            out.append((f"regular-{n}-{d}-s{seed:02d}", random_regular(n, d, seed)))
    return out


def corpus_trees(max_n: int = 12) -> list[tuple[str, Graph]]:
    """Seeded random trees for orders 4..max_n, 20 per order."""
    out = []
    for n in range(4, max_n + 1):
        for seed in TREE_SEEDS:
            out.append((f"rtree-{n}-s{seed:02d}", random_tree(n, seed)))
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{self.name}: {'PASS' if self.ok else 'FAIL'} ({self.detail})"


@dataclass
class _Bundle:
    label: str
    graph: Graph
    coeffs: list[int]
    spectrum: spectra.Spectrum
    laplacian: np.ndarray


@dataclass
class _Corpus:
    bundles: list[_Bundle]
    # seeded random trees of orders 4..12; orders 4..9 are corpus graphs
    trees: list[tuple[str, Graph]]
    # Laplacian coefficients by label, for every bundle and tree
    coeffs: dict[str, list[int]]


def _corpus() -> _Corpus:
    graphs = corpus_graphs()
    labels = {label for label, _ in graphs}
    trees = corpus_trees(max_n=12)
    extra = [(label, t) for label, t in trees if label not in labels]
    everything = graphs + extra
    # each Laplacian is built once, for the charpoly, the numeric spectrum,
    # the spanning tree count and the cone check
    matrices = [exact.laplacian_matrix(g) for _, g in everything]
    coeffs = dict(zip((label for label, _ in everything),
                      exact.laplacian_coefficients_many([g for _, g in everything], matrices)))
    bundles = [
        _Bundle(
            label=label,
            graph=g,
            coeffs=coeffs[label],
            spectrum=spectra.numeric_spectrum(lap),
            laplacian=lap,
        )
        for (label, g), lap in zip(graphs, matrices)
    ]
    return _Corpus(bundles, trees, coeffs)


def _fail(name: str, label: str, what: str) -> CheckResult:
    return CheckResult(name, False, f"{label}: {what}")


def _check_handshake(corpus: _Corpus) -> CheckResult:
    name = "handshake degree sum"
    for b in corpus.bundles:
        if sum(b.graph.degrees()) != 2 * b.graph.edge_count:
            return _fail(name, b.label, "degree sum != 2|E|")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


def _check_exact_identities(corpus: _Corpus) -> CheckResult:
    name = "exact coefficient identities"
    for b in corpus.bundles:
        g, c = b.graph, b.coeffs
        n = g.n
        if c[n] != 1 or c[n - 1] != 2 * g.edge_count or (n >= 1 and c[0] != 0):
            return _fail(name, b.label, "leading/edge/constant identity")
        if c[1] != n * exact._tree_count(b.laplacian):
            return _fail(name, b.label, "c[1] != n * spanning tree count")
        r = component_count(g)
        for k in range(n + 1):
            if (c[k] == 0) != (k < r):
                return _fail(name, b.label, f"zero pattern at k={k}")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


def _check_forest_oracle(corpus: _Corpus) -> CheckResult:
    name = "forest-oracle equality"
    small = [b for b in corpus.bundles if b.graph.n <= 7]
    for b in small:
        if exact.forest_sum_oracle(b.graph) != b.coeffs:
            return _fail(name, b.label, "forest sum mismatch")
    return CheckResult(name, True, f"all {len(small)} graphs <= 7 vertices")


def _check_path_matchings(corpus: _Corpus) -> CheckResult:
    name = "path matching counts"
    for n in range(1, 21):
        g = make_family(FamilySpec("path", (n,)))
        got = exact.matching_counts(g)
        want = [math.comb(n - k, k) if n - k >= k else 0 for k in range(n // 2 + 1)]
        if got != want:
            return _fail(name, f"path-{n}", "binomial identity mismatch")
    return CheckResult(name, True, "paths up to 20 vertices")


def _check_tree_subdivision(corpus: _Corpus) -> CheckResult:
    name = "tree subdivision matching identity"
    trees = [(label, t) for label, t in corpus.trees if t.n <= 9]
    for label, t in trees:
        n = t.n
        c = corpus.coeffs[label]
        m = exact.matching_counts(subdivision(t))
        for k in range(n + 1):
            want = m[n - k] if n - k < len(m) else 0
            if c[k] != want:
                return _fail(name, label, f"c[{k}] != subdivision matching count")
    return CheckResult(name, True, f"{len(trees)} trees, orders 4..9")


def _check_tree_wiener(corpus: _Corpus) -> CheckResult:
    name = "tree wiener identity"
    for label, t in corpus.trees:
        if corpus.coeffs[label][2] != exact.wiener_index(t):
            return _fail(name, label, "c[2] != wiener index")
    return CheckResult(name, True, f"{len(corpus.trees)} trees")


def _check_sandwich(corpus: _Corpus) -> CheckResult:
    name = "star-path coefficient sandwich"
    orders = {t.n for _, t in corpus.trees}
    stars = {n: closed_form_coefficients("star", n) for n in orders}
    paths = {n: closed_form_coefficients("path", n) for n in orders}
    for label, t in corpus.trees:
        n = t.n
        lower, upper = stars[n], paths[n]
        c = corpus.coeffs[label]
        for k in range(n + 1):
            if not lower[k] <= c[k] <= upper[k]:
                return _fail(name, label, f"violated at k={k}")
    return CheckResult(name, True, f"{len(corpus.trees)} trees, orders 4..12")


def _check_bipartite_signless(corpus: _Corpus) -> CheckResult:
    name = "bipartite signless equality"
    bipartite = [b for b in corpus.bundles if is_bipartite(b.graph)]
    signless = exact.signless_coefficients_many(b.graph for b in bipartite)
    for b, q in zip(bipartite, signless):
        if q != b.coeffs:
            return _fail(name, b.label, "signless != laplacian on bipartite graph")
    return CheckResult(name, True, f"{len(bipartite)} bipartite graphs")


# every corpus family member with a closed coefficient formula
_CLOSED_FORM_CASES = tuple(
    (f, p) for f, p in _FAMILY_MEMBERS if FAMILIES[f].coefficients is not None
)


def _check_closed_form_coefficients(corpus: _Corpus) -> CheckResult:
    name = "closed-form coefficient equality"
    for family, params in _CLOSED_FORM_CASES:
        label = _label(family, params)
        if closed_form_coefficients(family, *params) != corpus.coeffs[label]:
            return _fail(name, label, "closed form != exact pipeline")
    return CheckResult(name, True, f"{len(_CLOSED_FORM_CASES)} family members")


_SPECTRUM_CASES = (
    [("path", (n,)) for n in (2, 5, 12, 16, 64)]
    + [("cycle", (n,)) for n in (3, 8, 12, 16, 64)]
    + [("star", (n,)) for n in (2, 5, 12, 64)]
    + [("complete", (n,)) for n in (2, 5, 12, 64)]
    + [("hypercube", (d,)) for d in (0, 1, 3, 6)]
    + [("matching_union", (n,)) for n in (1, 4, 16)]
    + [("complete_bipartite", (m, n)) for m, n in ((1, 1), (2, 3), (6, 6), (20, 44))]
    + [("wheel", (n,)) for n in (3, 8, 40)]
)


def _check_closed_vs_numeric_spectra(corpus: _Corpus) -> CheckResult:
    name = "closed-form vs numeric spectra"
    for family, params in _SPECTRUM_CASES:
        g = make_family(FamilySpec(family, params))
        want = closed_form_spectrum(family, *params)
        got = spectra.numeric_spectrum(exact.laplacian_matrix(g))
        gap = max(abs(a - b) for a, b in zip(want.values, got.values))
        if len(want) != len(got) or gap > 1e-8:
            return _fail(name, f"{family}-{params}", f"eigenvalue gap {gap:.3e}")
    return CheckResult(name, True, f"{len(_SPECTRUM_CASES)} family members, n <= 64")


def _check_bounds(corpus: _Corpus) -> CheckResult:
    name = "eigenvalue bounds and trace"
    for b in corpus.bundles:
        g = b.graph
        lam_max = b.spectrum.values[0] if len(b.spectrum) else 0.0
        gersh = spectra.gershgorin_bound(g)
        if g.edges:
            am = spectra.anderson_morley_bound(g)
            if not (lam_max <= am + 1e-9 and am <= gersh):
                return _fail(name, b.label, "bound chain violated")
        elif lam_max > 1e-9:
            return _fail(name, b.label, "edgeless graph with nonzero eigenvalue")
        if spectra.trace_check(b.spectrum, g) > 1e-8:
            return _fail(name, b.label, "trace residual > 1e-8")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


def _check_reconstruction(corpus: _Corpus) -> CheckResult:
    name = "coefficient reconstruction from spectrum"
    for b in corpus.bundles:
        approx = exact.coefficients_from_eigenvalues(b.spectrum.values.tolist())
        top = float(max(b.coeffs))
        for k, c in enumerate(b.coeffs):
            # structurally zero coefficients only see the near-zero
            # eigenvalue residue, so their budget scales with the vector
            err = abs(approx[k] - c)
            if err > max(1e-6 * float(c), 1e-9 * top):
                return _fail(name, b.label, f"coefficient {k} off by {err:.3e}")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


def _cone_laplacian(lap: np.ndarray) -> np.ndarray:
    """The Laplacian of the cone over an n-vertex graph, apex last, from the
    graph's: L + I bordered by -1, with n in the corner."""
    n = len(lap)
    out = np.full((n + 1, n + 1), -1.0)
    out[:n, :n] = lap + np.eye(n)
    out[n, n] = n
    return out


def _check_cone_transform(corpus: _Corpus) -> CheckResult:
    name = "cone spectrum transform"
    cases = [(b.label, b.laplacian, b.spectrum) for b in corpus.bundles if 1 <= b.graph.n <= 12]
    for n in (15, 25, 40):
        lap = exact.laplacian_matrix(make_family(FamilySpec("cycle", (n,))))
        cases.append((f"cycle-{n}", lap, spectra.numeric_spectrum(lap)))
    for label, lap, s in cases:
        got = spectra.cone_spectrum(s, len(lap))
        want = spectra.numeric_spectrum(_cone_laplacian(lap))
        gap = max(abs(a - b) for a, b in zip(got.values, want.values))
        if gap > 1e-8:
            return _fail(name, label, f"cone spectrum gap {gap:.3e}")
    return CheckResult(name, True, f"{len(cases)} graphs")


def _check_moment_consistency(corpus: _Corpus) -> CheckResult:
    name = "moment consistency"
    for b in corpus.bundles:
        stats = limits.mean_variance(b.spectrum)
        probs = limits.normalized_probabilities(b.coeffs)
        mean = math.fsum(k * p for k, p in enumerate(probs))
        var = math.fsum((k - mean) ** 2 * p for k, p in enumerate(probs))
        if abs(mean - stats.mu) > 1e-8 or abs(var - stats.sigma2) > 1e-8:
            return _fail(name, b.label, "coefficient moments != spectrum moments")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


def _check_variance_bounds(corpus: _Corpus) -> CheckResult:
    name = "variance lower bounds"
    for b in corpus.bundles:
        stats = limits.mean_variance(b.spectrum)
        if stats.sigma2 + 1e-12 < limits.variance_lower_bound(b.graph):
            return _fail(name, b.label, "sigma2 below edge/degree bound")
    for n in range(3, 12):
        stats = limits.mean_variance(closed_form_spectrum("wheel", n))
        if stats.sigma2 + 1e-12 < limits.cone_variance_lower_bound(n, 2):
            return _fail(name, f"wheel-{n}", "sigma2 below cone bound")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs + wheels 3..11")


def _check_clt_scale_invariance(corpus: _Corpus) -> CheckResult:
    name = "clt scale invariance"
    picked = [b for b in corpus.bundles if b.graph.edges][::10]
    for b in picked:
        stats = limits.mean_variance(b.spectrum)
        base = limits.clt_distance(limits.normalized_probabilities(b.coeffs), stats)
        scaled = limits.clt_distance(
            limits.normalized_probabilities([7 * c for c in b.coeffs]), stats
        )
        if abs(base - scaled) > 1e-12:
            return _fail(name, b.label, f"distance moved by {abs(base - scaled):.3e}")
    return CheckResult(name, True, f"{len(picked)} graphs, factor 7")


def _check_generator_determinism(corpus: _Corpus) -> CheckResult:
    name = "generator determinism"
    for n in (4, 9, 17):
        if random_tree(n, 42).edges != random_tree(n, 42).edges:
            return _fail(name, f"rtree-{n}", "same seed, different edges")
    for n, d in REGULAR_SHAPES:
        if random_regular(n, d, 7).edges != random_regular(n, d, 7).edges:
            return _fail(name, f"regular-{n}-{d}", "same seed, different edges")
    return CheckResult(name, True, "trees and regular graphs")


def _check_probability_normalization(corpus: _Corpus) -> CheckResult:
    name = "probability normalization"
    for b in corpus.bundles:
        probs = limits.normalized_probabilities(b.coeffs)
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            return _fail(name, b.label, "probabilities do not sum to 1")
        for p, c in zip(probs, b.coeffs):
            if (p == 0.0) != (c == 0):
                return _fail(name, b.label, "zero pattern mismatch")
    return CheckResult(name, True, f"{len(corpus.bundles)} graphs")


_CHECKS = (
    _check_handshake,
    _check_exact_identities,
    _check_forest_oracle,
    _check_path_matchings,
    _check_tree_subdivision,
    _check_tree_wiener,
    _check_sandwich,
    _check_bipartite_signless,
    _check_closed_form_coefficients,
    _check_closed_vs_numeric_spectra,
    _check_bounds,
    _check_reconstruction,
    _check_cone_transform,
    _check_moment_consistency,
    _check_variance_bounds,
    _check_clt_scale_invariance,
    _check_generator_determinism,
    _check_probability_normalization,
)


def run_verification() -> list[CheckResult]:
    """Run every invariant check over the pinned corpus, in the fixed order."""
    corpus = _corpus()
    return [check(corpus) for check in _CHECKS]
