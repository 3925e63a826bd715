"""Coefficient-distribution statistics: mean and variance from the spectrum,
normalized probabilities from exact coefficients, and the distances used to
diagnose normal versus Poisson limiting behavior.

Exact integer coefficients normalize by exact integer division, so each
probability is correctly rounded and vectors with tens of thousands of bits
do not overflow. The spectrum's moments and probabilities read its read-only
float64 array as it is, with no copy. The probabilities are the Poisson-binomial
law of the eigenvalues, multiplied out by a balanced product tree of its linear
factors with FFT products, and stay one float64 array through the distances,
which return Python floats bit-identical to a per-k loop: libm's erfc and exp
run as one streaming map into a float64 array, a call per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph
from .spectra import Spectrum


@dataclass(frozen=True)
class LimitStats:
    """Mean and variance of the coefficient distribution of a degree-n
    polynomial with nonnegative real roots."""

    mu: float
    sigma2: float
    n: int

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _eigenvalues(s: Spectrum) -> np.ndarray:
    """The spectrum's float64 array, refused at its first value not >= 0, NaN included."""
    lam = s.values
    ok = lam >= 0.0
    if not ok.all():
        first = float(lam[~ok][0])
        raise InputError(f"negative eigenvalue {first!r}" if first < 0.0 else "NaN eigenvalue")
    return lam


def mean_variance(s: Spectrum) -> LimitStats:
    """mu = sum 1/(1 + lam), sigma2 = sum lam/(1 + lam)^2 over the spectrum.

    Compensated summation keeps the result independent of summation order;
    a memoryview hands ``math.fsum`` the terms as Python floats, with no list."""
    lam = _eigenvalues(s)
    mu = math.fsum(memoryview(1.0 / (1.0 + lam)))
    sigma2 = math.fsum(memoryview(lam / ((1.0 + lam) * (1.0 + lam))))
    return LimitStats(mu=mu, sigma2=sigma2, n=len(s))


def normalized_probabilities(coeffs) -> list[float]:
    """p[k] = c[k] / sum(c), each correctly rounded.

    Python divides integers of any size exactly and rounds once, so exact
    inputs with tens of thousands of bits neither overflow nor lose digits,
    and zero coefficients map to exactly 0.0.
    """
    coeffs = list(coeffs)  # read twice below; any iterable is accepted
    for c in coeffs:
        if c < 0:
            raise InputError(f"negative coefficient {c!r}")
    total = sum(coeffs)
    if total == 0:
        raise InputError("all coefficients are zero")
    return [c / total for c in coeffs]


def probabilities_from_spectrum(s: Spectrum) -> np.ndarray:
    """Normalized coefficient distribution of prod(x + lam), multiplied out
    straight from the eigenvalues, as a float64 array of length n + 1.

    Dividing by prod(1 + lam) gives prod(q_i + p_i x) with p_i = 1/(1 + lam_i),
    so this is the Poisson-binomial law of the normalized coefficients
    (Harper's method). The factors multiply pairwise up a balanced tree, a
    whole level at a time: one stacked FFT of the level at the power-of-two
    length one below the product's term count, even rows times odd rows, and
    one inverse FFT, after which the one wrapped top coefficient, known
    exactly as the product of the rows' top coefficients, moves back from
    index 0 to the top. O(n log^2 n) in all. FFT round-off below 0 is
    clipped and the result renormalized once. It is the one route
    ``diagnostics`` takes for every spectrum, closed-form or numeric; exact
    integers stay in ``coeffs`` and ``verify``.
    """
    lam = _eigenvalues(s)
    if lam.size == 0:
        return np.ones(1)  # the empty product
    p = 1.0 / (1.0 + lam)
    rows = np.stack((lam * p, p), axis=1)  # row i holds q_i + p_i x
    del p  # each buffer is dropped once the next one holds its values
    while len(rows) > 1:
        if len(rows) % 2:  # pad with the polynomial 1
            rows = np.vstack((rows, np.eye(1, rows.shape[1])))
        # rows have 2^j + 1 terms, so a product has fft_len + 1 = 2^(j+1) + 1:
        # a cyclic product of length fft_len wraps only its top coefficient,
        # the product of the two top coefficients, onto index 0
        fft_len = 2 * rows.shape[1] - 2
        top = rows[0::2, -1] * rows[1::2, -1]
        level = np.fft.rfft(rows, fft_len)
        del rows
        even = level[0::2]
        even *= level[1::2]  # in place: the same products, no second buffer
        wrapped = np.fft.irfft(even, fft_len)
        del level, even
        wrapped[:, 0] -= top
        rows = np.column_stack((wrapped, top))
    probs = np.clip(rows[0, :lam.size + 1], 0.0, None)
    return probs / probs.sum()


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``math.erfc`` or ``math.exp`` on each element of a float64 array, into
    a float64 array: numpy has no erfc, and its exp is not bit-identical to
    libm's. One libm call per element, streamed through ``map``, so no
    object array is ever made."""
    return np.fromiter(map(f, x), float, len(x))


def clt_distance(probs, stats: LimitStats) -> float:
    """Kolmogorov distance between the discrete CDF and the Gaussian with
    the distribution's own mean and standard deviation.

    The supremum over the real line is attained just before or at a jump of
    the step CDF, so both one-sided gaps are checked at every k.
    """
    if stats.sigma2 <= 0.0:
        raise InputError("degenerate variance")
    cdf = np.cumsum(np.concatenate(([0.0], probs)))  # cdf[k] sums p[:k] in k order
    z = (np.arange(len(probs), dtype=float) - stats.mu) / stats.sigma
    gauss = 0.5 * _libm(math.erfc, -z / math.sqrt(2.0))
    gaps = np.maximum(np.abs(cdf[1:] - gauss), np.abs(cdf[:-1] - gauss))
    return float(np.max(gaps, initial=0.0))


def llt_distance(probs, stats: LimitStats) -> float:
    """Sup-norm gap between sigma * p(floor(mu + x * sigma)) and the
    standard Gaussian density.

    Evaluated on the grid of cell boundaries x_k = (k - mu)/sigma for
    k = 0..n+1 (both one-sided limits), at x = 0 when it falls inside a
    cell, and via the density tails beyond the support. This is a grid
    approximation bounding the true supremum from below.
    """
    if stats.sigma2 <= 0.0:
        raise InputError("degenerate variance")
    sigma = stats.sigma
    n = len(probs) - 1
    padded = np.concatenate(([0.0], probs, [0.0]))  # p[k-1] and p[k] for k = 0..n+1
    x = (np.arange(n + 2, dtype=float) - stats.mu) / sigma
    density = _libm(math.exp, -0.5 * x * x) / math.sqrt(2.0 * math.pi)
    worst = float(np.max(np.maximum(np.abs(sigma * padded[1:] - density),
                                    np.abs(sigma * padded[:-1] - density))))
    mode_cell = math.floor(stats.mu)
    if 0 <= mode_cell <= n:
        worst = max(worst, abs(sigma * float(probs[mode_cell]) - 1.0 / math.sqrt(2.0 * math.pi)))
    return worst


def poisson_reference(mean: float, k_shift: int, length: int) -> np.ndarray:
    """Shifted Poisson reference r[k] = exp(-mean) mean^(k-shift)/(k-shift)!
    for k >= shift, else 0, each term the one before times mean/(k-shift)."""
    if mean <= 0.0:
        raise InputError("mean must be positive")
    if k_shift < 0:
        raise InputError("k_shift must be nonnegative")
    ref = np.zeros(length)
    if k_shift < length:
        ratios = mean / np.arange(1, length - k_shift, dtype=float)
        ref[k_shift:] = np.cumprod(np.concatenate(([math.exp(-mean)], ratios)))
    return ref


def poisson_distance(probs, mean: float, k_shift: int) -> float:
    ref = poisson_reference(mean, k_shift, len(probs))
    return float(np.max(np.abs(np.asarray(probs, dtype=float) - ref)))


def variance_lower_bound(g: Graph) -> float:
    """2|E| / (1 + 2 * max degree)^2, a lower bound on sigma2. ``g`` may
    also be a ``families.FamilySpec``, read from its closed forms."""
    return 2.0 * g.edge_count / (1.0 + 2.0 * g.max_degree) ** 2


def cone_variance_lower_bound(base_n: int, d: int) -> float:
    """Lower bound on sigma2 of the cone over a d-regular graph on base_n
    vertices: (base_n - 1)(1 + 2d)/(2 + 2d)^2."""
    return (base_n - 1) * (1.0 + 2.0 * d) / (2.0 + 2.0 * d) ** 2
