import numpy as np
import pytest

from lapstats import exact
from lapstats.graphs import Graph


@pytest.fixture
def no_graphs(monkeypatch):
    """Fail the test if any Graph is constructed."""
    def refuse(self):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__post_init__", refuse)


@pytest.fixture
def kernel():
    """det(xI - M) ascending for one square integer matrix by the exact
    charpoly's stacked kernel on a stack of one, with the primes of the
    general bound (1 + R)^n, R the largest absolute row sum: the kernel's
    arithmetic on matrices that no graph has, which no public route takes."""
    def charpoly(matrix):
        n = len(matrix)
        m = np.asarray(matrix, dtype=np.float64).reshape(1, n, n)
        r = int(np.abs(m).sum(axis=2).max(initial=0))
        return exact._faddeev_leverrier(m, exact._moduli(n, (1 + r) ** n))[0]

    return charpoly
