import pytest

from lapstats.graphs import Graph


@pytest.fixture
def no_graphs(monkeypatch):
    """Fail the test if any Graph is constructed."""
    def refuse(self):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
