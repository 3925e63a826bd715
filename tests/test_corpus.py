from collections import Counter

import numpy as np

from lapstats import cli, exact, limits
from lapstats.corpus import (
    _check_cone_transform,
    _check_exact_identities,
    _corpus,
    corpus_graphs,
    run_verification,
)
from lapstats.graphs import cone


def test_verify_computes_each_charpoly_once(monkeypatch):
    kinds, calls = [], []
    real_many, real_stack = exact.laplacian_coefficients_many, exact._faddeev_leverrier

    def many(graphs, signless=False):
        kinds.append("signless Laplacian" if signless else "Laplacian")
        return real_many(graphs, signless)

    def stacked(a, primes):
        calls.append((kinds[-1], a.shape[1], a.shape[0]))
        return real_stack(a, primes)

    monkeypatch.setattr(exact, "laplacian_coefficients_many", many)
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
    assert sum(count for _, _, count in calls) == 514


def test_verify_stacks_its_numeric_spectra_by_order(monkeypatch):
    stacks = []
    real = np.linalg.eigvalsh

    def counted(a):
        stacks.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert all(r.ok for r in run_verification())
    # one stack per order for the corpus graphs (orders 1..12), the
    # closed-form spectrum cases and the cones
    assert len(stacks) == 42
    assert sum(stacks) == 546


def test_corpus_labels_are_unique():
    labels = [label for label, _ in corpus_graphs()]
    assert len(labels) == len(set(labels)) == 254


def test_corpus_builds_each_laplacian_once(monkeypatch):
    built = []
    real = exact.laplacian_matrix

    def counted(g, signless=False):
        built.append(g)
        return real(g, signless)

    monkeypatch.setattr(exact, "laplacian_matrix", counted)
    corpus = _corpus()
    # the charpoly builds every corpus graph and every extra tree once, and
    # the numeric solver each corpus graph once more
    times = Counter(map(id, built))
    extra = [t for _, t in corpus.trees if t.n > 9]
    assert len(corpus.coeffs) == len(corpus.bundles) + len(extra) == 314
    assert all(times.pop(id(b.graph)) == 2 for b in corpus.bundles)
    assert all(times.pop(id(t)) == 1 for t in extra)
    assert not times
    built.clear()
    assert _check_cone_transform(corpus) == "257 graphs"
    # the three cycles that are not corpus graphs, then one cone per case
    assert [g.n for g in built[:3]] == [15, 25, 40]
    cones = Counter(g.n for g in built[3:])
    assert sum(cones.values()) == 257
    assert cones == Counter([b.graph.n + 1 for b in corpus.bundles] + [16, 26, 41])
    built.clear()
    assert _check_exact_identities(corpus) == "254 graphs"
    assert built == []  # spanning tree minors are built in Python ints


def test_verify_takes_each_bundles_moments_once(monkeypatch):
    calls = {"mean_variance": 0, "normalized_probabilities": 0}
    for name in calls:
        def counted(*args, real=getattr(limits, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(limits, name, counted)
    assert all(r.ok for r in run_verification())
    # one per corpus graph, plus the wheels of the cone bound and the
    # rescaled vectors of the clt check
    assert calls == {"mean_variance": 254 + 9, "normalized_probabilities": 254 + 25}


def test_a_failing_check_is_reported_and_the_rest_still_run(monkeypatch, capsys):
    monkeypatch.setattr(exact, "wiener_index", lambda t: -1)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 19
    assert lines[5] == "tree wiener identity: FAIL (random_tree-4-s00: c[2] != wiener index)"
    assert sum(line.split(": ")[1].startswith("PASS (") for line in lines[:18]) == 17
    assert lines[-1] == "verification: FAIL (17/18 checks)"


def test_cone_laplacian_is_the_built_one():
    # the cone check's matrix is the base's L + I bordered by -1 with n in
    # the corner, apex last, which is what cone_spectrum transforms
    for _, g in corpus_graphs():
        n = g.n
        want = np.full((n + 1, n + 1), -1.0)
        want[:n, :n] = exact.laplacian_matrix(g) + np.eye(n)
        want[n, n] = n
        assert np.array_equal(exact.laplacian_matrix(cone(g)), want)
