"""Reference answers for every benchmark op, computed without lapstats.

Exact coefficients come from ``sympy`` charpolys or from closed-form integer
formulas written here; spectra from ``numpy.linalg.eigvalsh`` or from
closed-form spectra that are themselves checked against ``eigvalsh`` at a
small size. The normalised coefficient law is the Poisson-binomial law with
success probabilities 1/(1 + lambda_i), expanded by direct convolution.
"""

from __future__ import annotations

import math

import numpy as np

from checks import FLOAT_TOL

VERDICT_POISSON = "poisson-regime"
VERDICT_NORMAL = "normal-regime"
VERDICT_UNKNOWN = "indeterminate"

_SQRT5 = math.sqrt(5.0)
# advertised per-vertex limits (mu/n, sigma2/n) from the README
PATH_LIMIT_CONSTANTS = (1.0 / (2.0 * _SQRT5), 1.0 / (5.0 * _SQRT5))


# ---------------------------------------------------------------------------
# graphs, matrices, spectra


def laplacian(n: int, edges, signless: bool = False) -> list[list[int]]:
    off = 1 if signless else -1
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] = m[v][u] = off
        m[u][u] += 1
        m[v][v] += 1
    return m


def eigenvalues(matrix) -> list[float]:
    """Eigenvalues of a symmetric matrix, descending."""
    return sorted(np.linalg.eigvalsh(np.array(matrix, dtype=float)).tolist(), reverse=True)


def family_graph(family: str, params: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a named family, built here for small sizes."""
    if family == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        (n,) = params
        return n, [(0, i) for i in range(1, n)]
    if family == "complete":
        (n,) = params
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "complete_bipartite":
        m, n = params
        return m + n, [(i, m + j) for i in range(m) for j in range(n)]
    if family == "wheel":
        (r,) = params
        return r + 1, [(i, (i + 1) % r) for i in range(r)] + [(i, r) for i in range(r)]
    raise ValueError(f"no reference graph for {family!r}")


def family_facts(family: str, params: tuple[int, ...]) -> tuple[int, int, int]:
    """(vertices, edges, max degree) of a named family, in closed form."""
    if family == "path":
        (n,) = params
        return n, n - 1, min(2, n - 1)
    if family == "star":
        (n,) = params
        return n, n - 1, n - 1
    if family == "complete":
        (n,) = params
        return n, n * (n - 1) // 2, n - 1
    if family == "complete_bipartite":
        m, n = params
        return m + n, m * n, max(m, n)
    if family == "wheel":
        (r,) = params
        return r + 1, 2 * r, r
    raise ValueError(f"no facts for {family!r}")


def family_spectrum(family: str, params: tuple[int, ...]) -> list[float]:
    """Closed-form Laplacian spectrum of a named family, descending."""
    if family == "path":
        (n,) = params
        values = [2.0 - 2.0 * math.cos(math.pi * k / n) for k in range(n)]
    elif family == "star":
        (n,) = params
        values = [0.0] + [1.0] * (n - 2) + [float(n)]
    elif family == "complete":
        (n,) = params
        values = [0.0] + [float(n)] * (n - 1)
    elif family == "complete_bipartite":
        m, n = params
        values = [0.0, float(m + n)] + [float(m)] * (n - 1) + [float(n)] * (m - 1)
    elif family == "wheel":
        (r,) = params
        values = [0.0, float(r + 1)] + [3.0 - 2.0 * math.cos(2.0 * math.pi * k / r)
                                         for k in range(1, r)]
    else:
        raise ValueError(f"no closed-form spectrum for {family!r}")
    return sorted(values, reverse=True)


def self_check_families(families) -> None:
    """Check the closed forms above against explicit graphs at small sizes."""
    small = {"path": (9,), "star": (9,), "complete": (7,), "complete_bipartite": (3, 5),
             "wheel": (8,)}
    for family in families:
        params = small[family]
        n, edges = family_graph(family, params)
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if family_facts(family, params) != (n, len(edges), max(degrees)):
            raise AssertionError(f"closed-form facts of {family} disagree with the graph")
        got = family_spectrum(family, params)
        want = eigenvalues(laplacian(n, edges))
        if max(abs(a - b) for a, b in zip(got, want)) > FLOAT_TOL:
            raise AssertionError(f"closed-form spectrum of {family} disagrees with eigvalsh")


# ---------------------------------------------------------------------------
# exact coefficients


def charpoly_coefficients(matrix) -> list[int]:
    """Unsigned coefficients c[0..n] of det(xI - M) for a PSD integer M."""
    from sympy import Matrix

    descending = [int(a) for a in Matrix(matrix).charpoly().all_coeffs()]
    n = len(matrix)
    return [(-1) ** (n - k) * a for k, a in enumerate(reversed(descending))]


def path_coefficients(n: int) -> list[int]:
    """c[k] = C(n-1+k, 2k-1) for the path on n vertices, by the exact ratio
    c[k+1] = c[k] (n+k)(n-k) / (2k(2k+1))."""
    out = [0, n] if n >= 1 else [1]
    for k in range(1, n):
        q, r = divmod(out[k] * (n + k) * (n - k), 2 * k * (2 * k + 1))
        if r:
            raise ArithmeticError(f"path ratio recurrence inexact at k={k}")
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# the normalised coefficient law and its distances


def poisson_binomial(spectrum) -> np.ndarray:
    """p[k] = c[k] / sum(c) for prod(x + lambda): the law of a sum of
    independent Bernoulli(1 / (1 + lambda)) variables."""
    probs = np.ones(1)
    for lam in spectrum:
        p = 1.0 / (1.0 + max(lam, 0.0))
        nxt = np.zeros(len(probs) + 1)
        nxt[:-1] = probs * (1.0 - p)
        nxt[1:] += probs * p
        probs = nxt
    return probs


def mean_variance(spectrum) -> tuple[float, float]:
    mu = math.fsum(1.0 / (1.0 + v) for v in spectrum)
    sigma2 = math.fsum(v / ((1.0 + v) * (1.0 + v)) for v in spectrum)
    return mu, sigma2


def _gauss_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _gauss_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def clt_distance(probs, mu: float, sigma: float) -> float:
    """Kolmogorov distance to N(mu, sigma^2), checked on both sides of each jump."""
    cdf = np.cumsum(probs)
    before = np.concatenate(([0.0], cdf[:-1]))
    gauss = np.array([_gauss_cdf((k - mu) / sigma) for k in range(len(probs))])
    return float(max(np.max(np.abs(cdf - gauss)), np.max(np.abs(before - gauss))))


def llt_distance(probs, mu: float, sigma: float) -> float:
    """Sup gap between sigma * p(floor(mu + x sigma)) and the standard normal
    density, on the cell boundaries k = 0..n+1 and at x = 0."""
    n = len(probs) - 1
    padded = np.concatenate(([0.0], np.asarray(probs), [0.0]))  # padded[k + 1] = p[k]
    ks = np.arange(n + 2)
    density = np.array([_gauss_pdf((k - mu) / sigma) for k in ks])
    worst = max(np.max(np.abs(sigma * padded[1:] - density)),
                np.max(np.abs(sigma * padded[:-1] - density)))
    mode = math.floor(mu)
    if 0 <= mode <= n:
        worst = max(worst, abs(sigma * probs[mode] - _gauss_pdf(0.0)))
    return float(worst)


def poisson_distance(probs, mean: float, shift: int) -> float:
    """Sup gap to shift + Poisson(mean)."""
    ref = [0.0 if k < shift else
           math.exp(-mean + (k - shift) * math.log(mean) - math.lgamma(k - shift + 1))
           for k in range(len(probs))]
    return float(np.max(np.abs(np.asarray(probs) - np.array(ref))))


def diagnostic_row(family: str | None, n: int, edges: int, max_degree: int,
                   spectrum, poisson: tuple[float, int] | None = None) -> dict:
    """The row ``lapstats diagnose`` should print, from a reference spectrum."""
    mu, sigma2 = mean_variance(spectrum)
    sigma = math.sqrt(sigma2)
    probs = poisson_binomial(spectrum)
    row = {
        "family": family,
        "n": n,
        "edges": edges,
        "max_degree": max_degree,
        "mu": mu,
        "sigma2": sigma2,
        "sigma2_lower_bound": 2.0 * edges / (1.0 + 2.0 * max_degree) ** 2,
        "clt_distance": clt_distance(probs, mu, sigma),
        "llt_distance": llt_distance(probs, mu, sigma),
    }
    if poisson is not None:
        row["poisson_distance"] = poisson_distance(probs, *poisson)
    if family is None:
        row["verdict"] = VERDICT_UNKNOWN
    elif family in ("complete", "complete_bipartite"):
        row["verdict"] = VERDICT_POISSON
    else:
        row["verdict"] = VERDICT_NORMAL
    if family == "path":
        row["mu_per_vertex_err"] = abs(mu / n - PATH_LIMIT_CONSTANTS[0])
        row["sigma2_per_vertex_err"] = abs(sigma2 / n - PATH_LIMIT_CONSTANTS[1])
    return row


def family_row(family: str, params: tuple[int, ...]) -> dict:
    n, edges, delta = family_facts(family, params)
    poisson = None
    if family == "complete":
        poisson = (1.0, 1)
    elif family == "complete_bipartite" and params[0] == params[1]:
        poisson = (2.0, 1)
    return diagnostic_row(family, n, edges, delta, family_spectrum(family, params), poisson)


def stats_payload(family: str, params: tuple[int, ...]) -> dict:
    """What ``lapstats stats`` should print for a named family."""
    mu, sigma2 = mean_variance(family_spectrum(family, params))
    return {"family": family, "n": family_facts(family, params)[0], "mu": mu, "sigma2": sigma2}


def edge_list_row(n: int, edges) -> dict:
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return diagnostic_row(None, n, len(edges), max(degrees),
                          eigenvalues(laplacian(n, edges)))
