"""Pinned verification corpus and the cross-module invariant checks.

The corpus is fixed so repeated runs are reproducible: every named family at
sizes 1..12 where valid, 20 seeded random trees per order in 4..9 (extended
to 12 for the coefficient sandwich), and 10 seeded random regular graphs for
(n, d) in {(8, 3), (10, 3), (10, 4)}. Each graph's Laplacian
coefficients are computed once per run, by one stacked exact charpoly per
vertex count over the corpus and the extra trees, and shared by every check
that needs them, as are the mean and variance of its spectrum and its
normalized probabilities; the bipartite signless check stacks its graphs the
same way, with ``signless=True``. The corpus graphs, their cones and the
closed-form spectrum cases each go to ``spectra.numeric_spectra`` as one
list of graphs, which builds their Laplacians and stacks them by order
itself: one certified ``eigvalsh`` call per order, each spectrum bit for bit
what a call per graph gives. Both engines build their matrices from the
graphs, and the spanning tree count builds its minor in Python ints, so no
check here holds a matrix.
``_CHECKS`` is the one table of (name, check) pairs, in the printed order. A
check returns its PASS detail or raises ``_Failure(label, what)`` at its first
counterexample; ``run_verification`` alone builds the result lines and runs
every check whatever the others gave. Checks never depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, limits, spectra
from .families import (
    FAMILIES,
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    make_family,
)
from .graphs import Graph, component_count, cone, is_bipartite, subdivision

TREE_SEEDS = tuple(range(20))
REGULAR_SEEDS = tuple(range(10))
REGULAR_SHAPES = ((8, 3), (10, 3), (10, 4))


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


def _label(family: str, params: tuple[int, ...], seed: int | None = None) -> str:
    """The one name of a family member in ``verify``'s output: the family,
    its sizes and, for a seeded family, s and the seed."""
    seeded = [] if seed is None else [f"s{seed:02d}"]
    return "-".join([family, *map(str, params), *seeded])


def corpus_graphs() -> list[tuple[str, Graph]]:
    """The pinned corpus in a fixed, deterministic order."""
    out = [(_label(f, p), make_family(FamilySpec(f, p))) for f, p in _FAMILY_MEMBERS]
    out.extend(corpus_trees(max_n=9))
    out.extend((_label("random_regular", (n, d), seed),
                make_family(FamilySpec("random_regular", (n, d), seed)))
               for n, d in REGULAR_SHAPES for seed in REGULAR_SEEDS)
    return out


def corpus_trees(max_n: int = 12) -> list[tuple[str, Graph]]:
    """Seeded random trees for orders 4..max_n, 20 per order."""
    return [(_label("random_tree", (n,), seed), make_family(FamilySpec("random_tree", (n,), seed)))
            for n in range(4, max_n + 1) for seed in TREE_SEEDS]


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
    stats: limits.LimitStats  # of the spectrum
    probs: list[float]  # the normalized coefficients


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
    coeffs = dict(zip((label for label, _ in everything),
                      exact.laplacian_coefficients_many(g for _, g in everything)))
    numeric = spectra.numeric_spectra(g for _, g in graphs)
    bundles = [
        _Bundle(label=label, graph=g, coeffs=coeffs[label], spectrum=s,
                stats=limits.mean_variance(s), probs=limits.normalized_probabilities(coeffs[label]))
        for (label, g), s in zip(graphs, numeric)
    ]
    return _Corpus(bundles, trees, coeffs)


class _Failure(Exception):
    """A check's first counterexample, as (label, what failed)."""


def _check_handshake(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        if sum(b.graph.degrees()) != 2 * b.graph.edge_count:
            raise _Failure(b.label, "degree sum != 2|E|")
    return f"{len(corpus.bundles)} graphs"


def _check_exact_identities(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        g, c = b.graph, b.coeffs
        n = g.n
        if c[n] != 1 or c[n - 1] != 2 * g.edge_count or (n >= 1 and c[0] != 0):
            raise _Failure(b.label, "leading/edge/constant identity")
        if c[1] != n * exact.spanning_tree_count(g):
            raise _Failure(b.label, "c[1] != n * spanning tree count")
        r = component_count(g)
        for k in range(n + 1):
            if (c[k] == 0) != (k < r):
                raise _Failure(b.label, f"zero pattern at k={k}")
    return f"{len(corpus.bundles)} graphs"


def _check_forest_oracle(corpus: _Corpus) -> str:
    small = [b for b in corpus.bundles if b.graph.n <= 7]
    for b in small:
        if exact.forest_sum_oracle(b.graph) != b.coeffs:
            raise _Failure(b.label, "forest sum mismatch")
    return f"all {len(small)} graphs <= 7 vertices"


def _check_path_matchings(corpus: _Corpus) -> str:
    for n in range(1, 21):
        g = make_family(FamilySpec("path", (n,)))
        got = exact.matching_counts(g)
        want = [math.comb(n - k, k) if n - k >= k else 0 for k in range(n // 2 + 1)]
        if got != want:
            raise _Failure(_label("path", (n,)), "binomial identity mismatch")
    return "paths up to 20 vertices"


def _check_tree_subdivision(corpus: _Corpus) -> str:
    trees = [(label, t) for label, t in corpus.trees if t.n <= 9]
    for label, t in trees:
        n = t.n
        c = corpus.coeffs[label]
        m = exact.matching_counts(subdivision(t))
        for k in range(n + 1):
            want = m[n - k] if n - k < len(m) else 0
            if c[k] != want:
                raise _Failure(label, f"c[{k}] != subdivision matching count")
    return f"{len(trees)} trees, orders 4..9"


def _check_tree_wiener(corpus: _Corpus) -> str:
    for label, t in corpus.trees:
        if corpus.coeffs[label][2] != exact.wiener_index(t):
            raise _Failure(label, "c[2] != wiener index")
    return f"{len(corpus.trees)} trees"


def _check_sandwich(corpus: _Corpus) -> str:
    orders = {t.n for _, t in corpus.trees}
    stars = {n: closed_form_coefficients("star", n) for n in orders}
    paths = {n: closed_form_coefficients("path", n) for n in orders}
    for label, t in corpus.trees:
        n = t.n
        lower, upper = stars[n], paths[n]
        c = corpus.coeffs[label]
        for k in range(n + 1):
            if not lower[k] <= c[k] <= upper[k]:
                raise _Failure(label, f"violated at k={k}")
    return f"{len(corpus.trees)} trees, orders 4..12"


def _check_bipartite_signless(corpus: _Corpus) -> str:
    bipartite = [b for b in corpus.bundles if is_bipartite(b.graph)]
    signless = exact.laplacian_coefficients_many((b.graph for b in bipartite), signless=True)
    for b, q in zip(bipartite, signless):
        if q != b.coeffs:
            raise _Failure(b.label, "signless != laplacian on bipartite graph")
    return f"{len(bipartite)} bipartite graphs"


# every corpus family member with a closed coefficient formula
_CLOSED_FORM_CASES = tuple(
    (f, p) for f, p in _FAMILY_MEMBERS if FAMILIES[f].coefficients is not None
)


def _check_closed_form_coefficients(corpus: _Corpus) -> str:
    for family, params in _CLOSED_FORM_CASES:
        label = _label(family, params)
        if closed_form_coefficients(family, *params) != corpus.coeffs[label]:
            raise _Failure(label, "closed form != exact pipeline")
    return f"{len(_CLOSED_FORM_CASES)} family members"


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


def _check_closed_vs_numeric_spectra(corpus: _Corpus) -> str:
    numeric = spectra.numeric_spectra(make_family(FamilySpec(family, params))
                                      for family, params in _SPECTRUM_CASES)
    for (family, params), got in zip(_SPECTRUM_CASES, numeric):
        want = closed_form_spectrum(family, *params)
        gap = max(abs(a - b) for a, b in zip(want.values, got.values))
        if len(want) != len(got) or gap > 1e-8:
            raise _Failure(_label(family, params), f"eigenvalue gap {gap:.3e}")
    return f"{len(_SPECTRUM_CASES)} family members, n <= 64"


def _check_bounds(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        g = b.graph
        lam_max = b.spectrum.values[0] if len(b.spectrum) else 0.0
        gersh = spectra.gershgorin_bound(g)
        if g.edges:
            am = spectra.anderson_morley_bound(g)
            if not (lam_max <= am + 1e-9 and am <= gersh):
                raise _Failure(b.label, "bound chain violated")
        elif lam_max > 1e-9:
            raise _Failure(b.label, "edgeless graph with nonzero eigenvalue")
        if spectra.trace_check(b.spectrum, g) > 1e-8:
            raise _Failure(b.label, "trace residual > 1e-8")
    return f"{len(corpus.bundles)} graphs"


def _check_reconstruction(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        approx = exact.coefficients_from_eigenvalues(b.spectrum.values.tolist())
        top = float(max(b.coeffs))
        for k, c in enumerate(b.coeffs):
            # structurally zero coefficients only see the near-zero
            # eigenvalue residue, so their budget scales with the vector
            err = abs(approx[k] - c)
            if err > max(1e-6 * float(c), 1e-9 * top):
                raise _Failure(b.label, f"coefficient {k} off by {err:.3e}")
    return f"{len(corpus.bundles)} graphs"


def _check_cone_transform(corpus: _Corpus) -> str:
    cases = [(b.label, b.graph, b.spectrum) for b in corpus.bundles if 1 <= b.graph.n <= 12]
    cycles = [make_family(FamilySpec("cycle", (n,))) for n in (15, 25, 40)]
    cases += [(_label("cycle", (g.n,)), g, s)
              for g, s in zip(cycles, spectra.numeric_spectra(cycles))]
    cones = spectra.numeric_spectra(cone(g) for _, g, _ in cases)
    for (label, g, s), want in zip(cases, cones):
        got = spectra.cone_spectrum(s, g.n)
        gap = max(abs(a - b) for a, b in zip(got.values, want.values))
        if gap > 1e-8:
            raise _Failure(label, f"cone spectrum gap {gap:.3e}")
    return f"{len(cases)} graphs"


def _check_moment_consistency(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        mean = math.fsum(k * p for k, p in enumerate(b.probs))
        var = math.fsum((k - mean) ** 2 * p for k, p in enumerate(b.probs))
        if abs(mean - b.stats.mu) > 1e-8 or abs(var - b.stats.sigma2) > 1e-8:
            raise _Failure(b.label, "coefficient moments != spectrum moments")
    return f"{len(corpus.bundles)} graphs"


def _check_variance_bounds(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        if b.stats.sigma2 + 1e-12 < limits.variance_lower_bound(b.graph):
            raise _Failure(b.label, "sigma2 below edge/degree bound")
    for n in range(3, 12):
        stats = limits.mean_variance(closed_form_spectrum("wheel", n))
        if stats.sigma2 + 1e-12 < limits.cone_variance_lower_bound(n, 2):
            raise _Failure(_label("wheel", (n,)), "sigma2 below cone bound")
    return f"{len(corpus.bundles)} graphs + wheels 3..11"


def _check_clt_scale_invariance(corpus: _Corpus) -> str:
    picked = [b for b in corpus.bundles if b.graph.edges][::10]
    for b in picked:
        base = limits.clt_distance(b.probs, b.stats)
        scaled = limits.clt_distance(
            limits.normalized_probabilities([7 * c for c in b.coeffs]), b.stats
        )
        if abs(base - scaled) > 1e-12:
            raise _Failure(b.label, f"distance moved by {abs(base - scaled):.3e}")
    return f"{len(picked)} graphs, factor 7"


def _check_generator_determinism(corpus: _Corpus) -> str:
    specs = [FamilySpec("random_tree", (n,), 42) for n in (4, 9, 17)]
    specs += [FamilySpec("random_regular", (n, d), 7) for n, d in REGULAR_SHAPES]
    for spec in specs:
        if make_family(spec).edges != make_family(spec).edges:
            raise _Failure(_label(spec.family, spec.size, spec.seed), "same seed, different edges")
    return "trees and regular graphs"


def _check_probability_normalization(corpus: _Corpus) -> str:
    for b in corpus.bundles:
        if abs(math.fsum(b.probs) - 1.0) > 1e-12:
            raise _Failure(b.label, "probabilities do not sum to 1")
        for p, c in zip(b.probs, b.coeffs):
            if (p == 0.0) != (c == 0):
                raise _Failure(b.label, "zero pattern mismatch")
    return f"{len(corpus.bundles)} graphs"


_CHECKS = (
    ("handshake degree sum", _check_handshake),
    ("exact coefficient identities", _check_exact_identities),
    ("forest-oracle equality", _check_forest_oracle),
    ("path matching counts", _check_path_matchings),
    ("tree subdivision matching identity", _check_tree_subdivision),
    ("tree wiener identity", _check_tree_wiener),
    ("star-path coefficient sandwich", _check_sandwich),
    ("bipartite signless equality", _check_bipartite_signless),
    ("closed-form coefficient equality", _check_closed_form_coefficients),
    ("closed-form vs numeric spectra", _check_closed_vs_numeric_spectra),
    ("eigenvalue bounds and trace", _check_bounds),
    ("coefficient reconstruction from spectrum", _check_reconstruction),
    ("cone spectrum transform", _check_cone_transform),
    ("moment consistency", _check_moment_consistency),
    ("variance lower bounds", _check_variance_bounds),
    ("clt scale invariance", _check_clt_scale_invariance),
    ("generator determinism", _check_generator_determinism),
    ("probability normalization", _check_probability_normalization),
)


def run_verification() -> list[CheckResult]:
    """Run every invariant check over the pinned corpus, in the fixed order;
    a failing check reports its first counterexample and the rest still run."""
    corpus = _corpus()
    results = []
    for name, check in _CHECKS:
        try:
            ok, detail = True, check(corpus)
        except _Failure as failure:
            ok, detail = False, "%s: %s" % failure.args
        results.append(CheckResult(name, ok, detail))
    return results
