from lapstats import exact
from lapstats.corpus import corpus_graphs, run_verification


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
