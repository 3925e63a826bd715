import numpy as np

from lapstats import exact
from lapstats.corpus import (
    _check_cone_transform,
    _check_exact_identities,
    _cone_laplacian,
    _corpus,
    corpus_graphs,
    run_verification,
)
from lapstats.graphs import cone


def test_verify_computes_each_charpoly_once(monkeypatch):
    kinds, calls = [], []
    real_many, real_stack = exact._unsigned_coefficients_many, exact._faddeev_leverrier

    def many(graphs, build, label, matrices=None):
        kinds.append(label)
        return real_many(graphs, build, label, matrices)

    def stacked(a, primes):
        calls.append((kinds[-1], a.shape[1], a.shape[0]))
        return real_stack(a, primes)

    monkeypatch.setattr(exact, "_unsigned_coefficients_many", many)
    monkeypatch.setattr(exact, "_faddeev_leverrier", stacked)
    results = run_verification()
    assert all(r.ok for r in results)
    # one stacked charpoly per vertex count 1..12 for the Laplacians of every
    # corpus graph and random tree, and one for the signless Laplacians of the
    # bipartite corpus graphs
    pairs = [(kind, order) for kind, order, _ in calls]
    assert len(pairs) == len(set(pairs)) == 24
    assert sorted(pairs) == sorted((kind, order) for kind in ("Laplacian", "signless Laplacian")
                                   for order in range(1, 13))
    assert sum(count for _, _, count in calls) == 516


def test_verify_stacks_its_numeric_spectra_by_order(monkeypatch):
    stacks = []
    real = np.linalg.eigvalsh

    def counted(a):
        stacks.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert all(r.ok for r in run_verification())
    # one stack per order for the corpus Laplacians (orders 1..12), the
    # closed-form spectrum cases and the cone Laplacians
    assert len(stacks) == 42
    assert sum(stacks) == 546


def test_corpus_labels_are_unique():
    labels = [label for label, _ in corpus_graphs()]
    assert len(labels) == len(set(labels)) == 254


def test_corpus_builds_each_laplacian_once(monkeypatch):
    built = []
    real = exact.laplacian_matrix

    def counted(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(exact, "laplacian_matrix", counted)
    corpus = _corpus()
    # every corpus graph and every extra tree, once each
    assert len(built) == len(corpus.coeffs) == 314
    built.clear()
    assert _check_cone_transform(corpus).ok
    # only the three cycles that are not corpus graphs
    assert [g.n for g in built] == [15, 25, 40]
    built.clear()
    assert _check_exact_identities(corpus).ok
    assert built == []  # spanning tree minors come from the bundles' Laplacians


def test_cone_laplacian_is_the_built_one():
    for _, g in corpus_graphs():
        lap = exact.laplacian_matrix(g)
        assert np.array_equal(_cone_laplacian(lap), exact.laplacian_matrix(cone(g)))
