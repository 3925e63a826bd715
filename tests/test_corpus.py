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
    calls = []
    real = exact.charpoly_monic

    def counted(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(exact, "charpoly_monic", counted)
    results = run_verification()
    assert all(r.ok for r in results)
    # one Laplacian charpoly per corpus graph, one per random tree of order
    # 10..12, one signless charpoly per bipartite corpus graph
    assert len(calls) <= 516


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
