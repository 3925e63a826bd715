import dataclasses
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lapstats import cli, limits
from lapstats.corpus import _FAMILY_MEMBERS, corpus_graphs
from lapstats.diagnostics import DiagnosticsRow, diagnose
from lapstats.errors import InputError
from lapstats.exact import laplacian_coefficients
from lapstats.families import (
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    family_limit_constants,
    family_record,
    make_family,
)
from lapstats.graphs import Graph
from lapstats.limits import (
    LimitStats,
    clt_distance,
    cone_variance_lower_bound,
    llt_distance,
    mean_variance,
    normalized_probabilities,
    poisson_distance,
    poisson_reference,
    probabilities_from_spectrum,
    variance_lower_bound,
)
from lapstats.spectra import Spectrum, numeric_spectra


def fam(name, *size):
    return make_family(FamilySpec(name, tuple(size)))


class TestMeanVariance:
    def test_k2_by_hand(self):
        stats = mean_variance(Spectrum((2.0, 0.0)))
        assert stats.mu == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert stats.sigma2 == pytest.approx(2.0 / 9.0, rel=1e-15)

    def test_star_formulas(self):
        for n in (3, 10, 50, 200):
            stats = mean_variance(closed_form_spectrum("star", n))
            mu = (n * n + n + 2) / (2 * (n + 1))
            s2 = (n - 1) * (n * n + n + 2) / (4 * (n + 1) ** 2)
            assert stats.mu == pytest.approx(mu, rel=1e-13)
            assert stats.sigma2 == pytest.approx(s2, rel=1e-13)

    def test_complete_approaches_poisson_moments(self):
        for n in (5, 50, 500):
            stats = mean_variance(closed_form_spectrum("complete", n))
            assert stats.mu == pytest.approx(1 + (n - 1) / (n + 1), rel=1e-14)
            assert stats.sigma2 == pytest.approx(n * (n - 1) / (n + 1) ** 2, rel=1e-14)

    def test_mu_at_least_zero_count(self):
        s = closed_form_spectrum("matching_union", 4)
        assert mean_variance(s).mu >= 4

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InputError):
            mean_variance(Spectrum((1.0, -0.5)))

    @pytest.mark.parametrize("route", [mean_variance, probabilities_from_spectrum])
    @pytest.mark.parametrize("values, message", [
        ((math.nan, -1.0, 2.0), "negative eigenvalue -1.0"),
        ((2.0, math.nan), "NaN eigenvalue"),
    ])
    def test_nan_masks_no_negative_eigenvalue(self, route, values, message):
        with pytest.raises(InputError, match=message):
            route(Spectrum(values))

    def test_summation_order_independent(self):
        values = closed_form_spectrum("wheel", 400).values
        forward = mean_variance(Spectrum(values))
        backward = mean_variance(Spectrum(tuple(reversed(values))))
        assert forward.mu == backward.mu and forward.sigma2 == backward.sigma2

    def test_range_invariants(self):
        # each mean summand lies in (0, 1], each variance summand in [0, 1/4]
        for family, params in (("wheel", (30,)), ("hypercube", (5,)), ("path", (77,))):
            stats = mean_variance(closed_form_spectrum(family, *params))
            assert 0.0 <= stats.mu <= stats.n
            assert 0.0 <= stats.sigma2 <= stats.n / 4.0


class TestProbabilities:
    def test_tiny_vector(self):
        assert normalized_probabilities([0, 1, 1]) == [0.0, 0.5, 0.5]
        assert normalized_probabilities(iter([0, 1, 1])) == [0.0, 0.5, 0.5]

    def test_path3(self):
        probs = normalized_probabilities([0, 3, 4, 1])
        assert probs == pytest.approx([0.0, 3 / 8, 1 / 2, 1 / 8], rel=1e-14)

    def test_complete_graph_formula(self):
        n = 50
        coeffs = closed_form_coefficients("complete", n)
        probs = normalized_probabilities(coeffs)
        total = sum(coeffs)
        for k in (1, 2, 10, 25, 50):
            want = Fraction(coeffs[k], total)
            assert probs[k] == pytest.approx(float(want), rel=1e-12)

    def test_huge_integers_do_not_overflow(self):
        coeffs = closed_form_coefficients("path", 1200)
        probs = normalized_probabilities(coeffs)
        assert abs(math.fsum(probs) - 1.0) <= 1e-12

    def test_zero_pattern_preserved(self):
        probs = normalized_probabilities([0, 0, 5, 0, 7])
        assert probs[0] == probs[1] == probs[3] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            normalized_probabilities([0, 0, 0])

    @pytest.mark.parametrize("family, size", [
        ("complete", (2000,)), ("complete_bipartite", (500, 500)), ("path", (3000,))])
    def test_each_probability_is_correctly_rounded(self, family, size):
        coeffs = closed_form_coefficients(family, *size)
        total = sum(coeffs)
        probs = normalized_probabilities(coeffs)
        assert all(p == float(Fraction(c, total)) for p, c in zip(probs, coeffs))

    def test_spectrum_route_matches_exact_route(self):
        for family, params in (("wheel", (9,)), ("complete", (8,)), ("star", (12,))):
            g = make_family(FamilySpec(family, params))
            exact_probs = normalized_probabilities(laplacian_coefficients(g))
            spectral = probabilities_from_spectrum(closed_form_spectrum(family, *params))
            assert spectral == pytest.approx(exact_probs, abs=1e-10)


def _log_domain_probabilities(values) -> list[float]:
    """The former expansion, kept as the reference: one logaddexp pass per
    eigenvalue over the log coefficients of prod(x + lam), O(n^2) in all."""
    logc = np.array([0.0])
    for lam in sorted(values):
        shifted = np.concatenate(([-np.inf], logc))
        if lam > 0.0:
            shifted[:-1] = np.logaddexp(shifted[:-1], logc + math.log(lam))
        logc = shifted
    top = float(np.max(logc))
    lse = top + math.log(float(np.sum(np.exp(logc - top))))
    probs = np.exp(logc - lse)
    return [float(p) if math.isfinite(lc) else 0.0 for p, lc in zip(probs, logc)]


def _corpus_spectra() -> list[Spectrum]:
    closed = [closed_form_spectrum(f, *p) for f, p in _FAMILY_MEMBERS
              if family_record(f).spectrum is not None]
    return closed + numeric_spectra(g for _, g in corpus_graphs())


def _seeded_spectra() -> list[Spectrum]:
    """Lengths on both sides of powers of two, with zero eigenvalues,
    repeated values and spread-out values mixed in."""
    rng = np.random.default_rng(20240611)
    out = []
    for n in (1, 2, 3, 31, 63, 64, 65, 66, 127, 128, 129, 200, 257, 700):
        zeros = [0.0] * int(rng.integers(1, 4))
        repeated = [float(rng.integers(1, 9))] * int(rng.integers(0, n // 3 + 1))
        spread = rng.uniform(0.0, 12.0, n).tolist()
        out.append(Spectrum((zeros + repeated + spread)[:n]))
    return out


def _large_spectra() -> list[Spectrum]:
    return [closed_form_spectrum("hypercube", 14), closed_form_spectrum("complete", 2000),
            closed_form_spectrum("wheel", 1000)]


def _out_of_place_tree(lam: np.ndarray) -> np.ndarray:
    """The FFT product tree with every level buffer live until the next
    level: the same operations in the same order, each into a new array."""
    p = 1.0 / (1.0 + lam)
    rows = np.stack((lam * p, p), axis=1)
    while len(rows) > 1:
        if len(rows) % 2:
            rows = np.vstack((rows, np.eye(1, rows.shape[1])))
        fft_len = 2 * rows.shape[1] - 2
        top = rows[0::2, -1] * rows[1::2, -1]
        level = np.fft.rfft(rows, fft_len)
        wrapped = np.fft.irfft(level[0::2] * level[1::2], fft_len)
        wrapped[:, 0] -= top
        rows = np.column_stack((wrapped, top))
    probs = np.clip(rows[0, :lam.size + 1], 0.0, None)
    return probs / probs.sum()


def _max_gap(a, b) -> float:
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b))


class TestProductTree:
    @pytest.mark.parametrize("spectra", [_corpus_spectra, _seeded_spectra])
    def test_matches_log_domain_reference(self, spectra):
        for s in spectra():
            assert _max_gap(probabilities_from_spectrum(s),
                            _log_domain_probabilities(s.values)) <= 1e-12

    @pytest.mark.parametrize("spectra", [_corpus_spectra, _seeded_spectra, _large_spectra])
    def test_a_probability_vector(self, spectra):
        for s in spectra():
            probs = probabilities_from_spectrum(s)
            assert len(probs) == len(s) + 1
            assert probs.dtype == np.float64 and bool(np.all(probs >= 0.0))
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-14)

    def test_zero_eigenvalues_leave_no_low_mass(self):
        # each zero eigenvalue is a factor x: the low coefficients vanish
        probs = probabilities_from_spectrum(closed_form_spectrum("matching_union", 300))
        assert max(probs[:300]) <= 1e-15

    @pytest.mark.parametrize("family, size", [
        ("path", (3000,)), ("complete", (2000,)), ("star", (1000,)),
        ("complete_bipartite", (200, 300)), ("matching_union", (1000,))])
    def test_no_further_from_exact_than_reference(self, family, size):
        s = closed_form_spectrum(family, *size)
        exact_probs = normalized_probabilities(closed_form_coefficients(family, *size))
        tree = _max_gap(probabilities_from_spectrum(s), exact_probs)
        assert tree <= 1e-12
        assert tree <= _max_gap(_log_domain_probabilities(s.values), exact_probs)

    def test_edge_cases(self):
        assert probabilities_from_spectrum(Spectrum(())).tolist() == [1.0]
        assert probabilities_from_spectrum(Spectrum((0.0,))).tolist() == [0.0, 1.0]
        with pytest.raises(InputError):
            probabilities_from_spectrum(Spectrum((3.0, 1.0, -1e-3)))

    def test_level_buffers_are_dropped_without_moving_a_bit(self):
        s = closed_form_spectrum("path", 1 << 16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = probabilities_from_spectrum(s)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # each level's rows, transform and product held at once: 11x the output
        assert peak <= 9 * probs.nbytes
        assert probs.tobytes() == _out_of_place_tree(s.values).tobytes()

    def test_hypercube_16_row_matches_closed_form(self, capsys):
        started = time.perf_counter()
        assert cli.main(["diagnose", "--family", "hypercube", "--n", "16"]) == 0
        elapsed = time.perf_counter() - started
        (row,) = json.loads(capsys.readouterr().out)
        d = 16
        mu = math.fsum(math.comb(d, k) / (1 + 2 * k) for k in range(d + 1))
        sigma2 = math.fsum(math.comb(d, k) * 2 * k / (1 + 2 * k) ** 2 for k in range(d + 1))
        assert row["n"] == 1 << d
        assert row["mu"] == pytest.approx(mu, rel=1e-13)
        assert row["sigma2"] == pytest.approx(sigma2, rel=1e-13)
        # Berry-Esseen for a Poisson-binomial law, Shevtsova's constant
        assert row["clt_distance"] <= 0.56 / math.sqrt(sigma2)
        # the O(n^2) expansion took about a minute at this size, the tree
        # well under a second
        assert elapsed < 15.0


class TestCltDistance:
    def test_k2_by_hand(self):
        # two jump points; the sup is at k=1: F(1) - Phi(-1/sqrt(2))
        probs = [0.0, 2 / 3, 1 / 3]
        stats = LimitStats(mu=4 / 3, sigma2=2 / 9, n=2)
        want = 2 / 3 - 0.5 * math.erfc(0.5)
        assert clt_distance(probs, stats) == pytest.approx(want, rel=1e-12)

    def test_point_mass_is_far_from_gaussian(self):
        probs = [0.0, 1.0, 0.0]
        stats = LimitStats(mu=1.0, sigma2=1e-6, n=2)
        assert clt_distance(probs, stats) >= 0.5

    def test_scale_invariance(self):
        g = fam("wheel", 8)
        coeffs = laplacian_coefficients(g)
        stats = mean_variance(numeric_spectra([g])[0])
        base = clt_distance(normalized_probabilities(coeffs), stats)
        scaled = clt_distance(normalized_probabilities([c * 1000 for c in coeffs]), stats)
        assert abs(base - scaled) <= 1e-12

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(InputError):
            clt_distance([1.0], LimitStats(mu=0.0, sigma2=0.0, n=0))

    def test_golden_path_values(self):
        # pinned regression values; the trend itself is asserted in the
        # acceptance suite
        golden = {25: 0.1001370153429682, 100: 0.05035344870129321,
                  400: 0.02516384318301884}
        for n, want in golden.items():
            probs = normalized_probabilities(closed_form_coefficients("path", n))
            stats = mean_variance(closed_form_spectrum("path", n))
            assert clt_distance(probs, stats) == pytest.approx(want, rel=1e-12)


class TestLltDistance:
    def test_k2_by_hand(self):
        # sup attained at the left limit of the jump at k=1, where p is 0,
        # so the gap is the density value itself
        probs = [0.0, 2 / 3, 1 / 3]
        stats = LimitStats(mu=4 / 3, sigma2=2 / 9, n=2)
        want = math.exp(-0.25) / math.sqrt(2 * math.pi)
        assert llt_distance(probs, stats) == pytest.approx(want, rel=1e-12)

    def test_concentrated_distribution_magnitude(self):
        # all mass in one cell: the gap at the mode is |sigma - pdf(0)|
        probs = [0.0, 1.0, 0.0]
        stats = LimitStats(mu=1.0, sigma2=0.04, n=2)
        floor = abs(0.2 - 1.0 / math.sqrt(2 * math.pi))
        assert llt_distance(probs, stats) >= floor - 1e-12

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(InputError):
            llt_distance([1.0], LimitStats(mu=0.0, sigma2=0.0, n=0))

    def test_golden_path_values(self):
        golden = {25: 0.10593211653197665, 100: 0.05334102970644394,
                  400: 0.026747578386424803}
        for n, want in golden.items():
            probs = normalized_probabilities(closed_form_coefficients("path", n))
            stats = mean_variance(closed_form_spectrum("path", n))
            assert llt_distance(probs, stats) == pytest.approx(want, rel=1e-12)

    def test_cycle_far_below_complete_at_same_order(self):
        # normal regime versus poisson regime at n = 200
        values = {}
        for family in ("cycle", "complete"):
            probs = normalized_probabilities(closed_form_coefficients(family, 200))
            stats = mean_variance(closed_form_spectrum(family, 200))
            values[family] = llt_distance(probs, stats)
        assert values["cycle"] < values["complete"] / 3


class TestPoisson:
    def test_reference_mean_one_shift_one(self):
        ref = poisson_reference(1.0, 1, 5)
        e = math.exp(-1.0)
        assert ref == pytest.approx([0.0, e, e, e / 2, e / 6], rel=1e-15)

    def test_reference_mean_two(self):
        assert poisson_reference(2.0, 1, 2)[1] == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_k50_close_to_poisson(self):
        probs = normalized_probabilities(closed_form_coefficients("complete", 50))
        assert poisson_distance(probs, 1.0, 1) <= 0.02

    def test_balanced_bipartite_close_to_poisson_two(self):
        probs = normalized_probabilities(closed_form_coefficients("complete_bipartite", 25, 25))
        assert poisson_distance(probs, 2.0, 1) <= 0.05

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            poisson_reference(0.0, 1, 3)
        with pytest.raises(InputError):
            poisson_reference(1.0, -1, 3)


class TestVarianceBounds:
    def test_regular_substitution(self):
        g = fam("cycle", 10)  # 2-regular, |E| = 10
        assert variance_lower_bound(g) == pytest.approx(10 * 2 / (1 + 4) ** 2, rel=1e-15)

    def test_edgeless_is_zero(self):
        assert variance_lower_bound(Graph(5)) == 0.0

    def test_bound_holds_on_spectra(self):
        for family, params in (("wheel", (9,)), ("hypercube", (4,)), ("path", (30,))):
            g = make_family(FamilySpec(family, params))
            stats = mean_variance(closed_form_spectrum(family, *params))
            assert stats.sigma2 >= variance_lower_bound(g) - 1e-12

    def test_cone_bound_on_wheels(self):
        for n in (3, 8, 20):
            stats = mean_variance(closed_form_spectrum("wheel", n))
            assert stats.sigma2 >= cone_variance_lower_bound(n, 2) - 1e-12


class TestFamilyConstants:
    def test_advertised_values(self):
        assert family_limit_constants("path") == pytest.approx((0.2236068, 0.0894427), abs=1e-7)
        assert family_limit_constants("cycle") == pytest.approx((0.4472136, 0.1788854), abs=1e-7)

    def test_cycle_variance_is_twice_path_constant(self):
        _, path_var = family_limit_constants("path")
        _, cycle_var = family_limit_constants("cycle")
        assert cycle_var == pytest.approx(2 * path_var, rel=1e-15)

    def test_unsupported(self):
        with pytest.raises(InputError):
            family_limit_constants("star")

    def test_cycle_per_vertex_stats_converge(self):
        mu_c, s2_c = family_limit_constants("cycle")
        stats = mean_variance(closed_form_spectrum("cycle", 2000))
        assert stats.mu / 2000 == pytest.approx(mu_c, abs=1e-12)
        assert stats.sigma2 / 2000 == pytest.approx(s2_c, abs=1e-12)

    def test_path_per_vertex_stats_approach_cycle_constants(self):
        # paths and cycles share a limiting spectral density, so their
        # per-vertex mean and variance converge to the same constants
        mu_c, s2_c = family_limit_constants("cycle")
        for n in (500, 2000):
            stats = mean_variance(closed_form_spectrum("path", n))
            assert stats.mu / n == pytest.approx(mu_c, abs=1.0 / n)
            assert stats.sigma2 / n == pytest.approx(s2_c, abs=1.0 / n)


def test_moment_consistency_links_both_routes():
    for family, params in (("wheel", (7,)), ("complete_bipartite", (3, 4)), ("path", (9,))):
        g = make_family(FamilySpec(family, params))
        stats = mean_variance(numeric_spectra([g])[0])
        probs = normalized_probabilities(laplacian_coefficients(g))
        mean = math.fsum(k * p for k, p in enumerate(probs))
        var = math.fsum((k - mean) ** 2 * p for k, p in enumerate(probs))
        assert mean == pytest.approx(stats.mu, abs=1e-8)
        assert var == pytest.approx(stats.sigma2, abs=1e-8)


# ---------------------------------------------------------------------------
# The former per-k loops of mean_variance, clt_distance, llt_distance and
# poisson_reference, kept as the reference: the array route must equal them
# bit for bit, so no output byte moves.


def reference_mean_variance(values) -> tuple[float, float]:
    for v in values:
        if v < 0.0:
            raise InputError(f"negative eigenvalue {v!r}")
    mu = math.fsum(1.0 / (1.0 + v) for v in values)
    sigma2 = math.fsum(v / ((1.0 + v) * (1.0 + v)) for v in values)
    return mu, sigma2


def _gauss_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _gauss_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def reference_clt_distance(probs, stats: LimitStats) -> float:
    sigma = stats.sigma
    worst = 0.0
    cdf = 0.0
    for k, pk in enumerate(probs):
        before = cdf
        cdf += pk
        gauss = _gauss_cdf((k - stats.mu) / sigma)
        worst = max(worst, abs(cdf - gauss), abs(before - gauss))
    return worst


def reference_llt_distance(probs, stats: LimitStats) -> float:
    sigma = stats.sigma
    n = len(probs) - 1
    worst = 0.0
    for k in range(n + 2):
        x = (k - stats.mu) / sigma
        density = _gauss_pdf(x)
        at_k = probs[k] if k <= n else 0.0
        left_of_k = probs[k - 1] if k >= 1 else 0.0
        worst = max(worst, abs(sigma * at_k - density), abs(sigma * left_of_k - density))
    mode_cell = math.floor(stats.mu)
    if 0 <= mode_cell <= n:
        worst = max(worst, abs(sigma * probs[mode_cell] - _gauss_pdf(0.0)))
    return worst


def reference_poisson_reference(mean: float, k_shift: int, length: int) -> list[float]:
    ref = [0.0] * length
    term = math.exp(-mean)
    for k in range(k_shift, length):
        ref[k] = term
        term *= mean / (k - k_shift + 1)
    return ref


def reference_poisson_distance(probs, mean: float, k_shift: int) -> float:
    ref = reference_poisson_reference(mean, k_shift, len(probs))
    return max(abs(p - r) for p, r in zip(probs, ref))


def reference_row(family: str, params: tuple[int, ...]) -> DiagnosticsRow:
    """``diagnose``'s row with every statistic recomputed by the
    reference loops, from the same spectrum and probability vector."""
    row = diagnose(FamilySpec(family, params))
    record = family_record(family)
    s = closed_form_spectrum(family, *params)
    mu, sigma2 = reference_mean_variance(s.values)
    stats = LimitStats(mu=mu, sigma2=sigma2, n=len(s))
    probs = probabilities_from_spectrum(s).tolist()
    fields = {"mu": mu, "sigma2": sigma2,
              "clt_distance": reference_clt_distance(probs, stats),
              "llt_distance": reference_llt_distance(probs, stats)}
    if record.poisson is not None and record.poisson(*params) is not None:
        fields["poisson_distance"] = reference_poisson_distance(probs, *record.poisson(*params))
    if record.limits is not None:
        mu_c, s2_c = record.limits
        fields["mu_per_vertex_err"] = abs(mu / row.n - mu_c)
        fields["sigma2_per_vertex_err"] = abs(sigma2 / row.n - s2_c)
    return dataclasses.replace(row, **fields)


REFERENCE_MEMBERS = [
    ("path", (3000,)), ("star", (3000,)), ("complete", (2000,)),
    ("complete_bipartite", (500, 500)), ("wheel", (1000,)), ("wheel", (4000,)),
    ("wheel", (10000,)), ("hypercube", (12,))]


class TestReferenceLoops:
    @pytest.mark.parametrize("family, params", REFERENCE_MEMBERS,
                             ids=[f"{f}-{p}" for f, p in REFERENCE_MEMBERS])
    def test_array_route_equals_reference(self, family, params):
        s = closed_form_spectrum(family, *params)
        stats = mean_variance(s)
        assert (stats.mu, stats.sigma2) == reference_mean_variance(s.values)
        probs = probabilities_from_spectrum(s)
        as_list = probs.tolist()
        for given in (probs, as_list):
            assert clt_distance(given, stats) == reference_clt_distance(as_list, stats)
            assert llt_distance(given, stats) == reference_llt_distance(as_list, stats)
            for mean, shift in ((1.0, 1), (2.0, 1), (2.5, 4)):
                assert (poisson_distance(given, mean, shift)
                        == reference_poisson_distance(as_list, mean, shift))
        assert diagnose(FamilySpec(family, params)) == reference_row(family, params)

    @pytest.mark.parametrize("f", [math.erfc, math.exp], ids=["erfc", "exp"])
    def test_libm_keeps_the_bits_and_holds_only_its_output(self, f):
        # both signs, zeros, tiny and huge magnitudes, NaN and infinities
        # (no exp argument reaches libm's overflow at 709.8)
        rng = np.random.default_rng(19)
        x = rng.uniform(-40.0, 40.0, 1 << 16)
        x[:9] = (0.0, -0.0, 5e-324, -1e-300, 1e-9, -700.0, np.nan, -np.inf, np.inf)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = limits._libm(f, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([f(v) for v in x.tolist()]).tobytes()
        # the float64 output and at most 64 KiB besides: no array of Python
        # floats, whole or in blocks
        assert peak <= got.nbytes + (64 << 10)

    @pytest.mark.parametrize("family, params", [
        ("path", (3000,)), ("star", (3000,)), ("complete", (2000,)),
        ("complete_bipartite", (500, 500))])
    def test_exact_probability_lists(self, family, params):
        # verify passes the list that normalized_probabilities returns
        probs = normalized_probabilities(closed_form_coefficients(family, *params))
        stats = mean_variance(closed_form_spectrum(family, *params))
        assert clt_distance(probs, stats) == reference_clt_distance(probs, stats)
        assert llt_distance(probs, stats) == reference_llt_distance(probs, stats)
        assert poisson_distance(probs, 1.0, 1) == reference_poisson_distance(probs, 1.0, 1)

    @pytest.mark.parametrize("values", [(), (0.0,), (2.0,), (7.5,)])
    def test_empty_and_single_eigenvalue_spectra(self, values):
        s = Spectrum(values)
        stats = mean_variance(s)
        assert (stats.mu, stats.sigma2) == reference_mean_variance(values)
        probs = probabilities_from_spectrum(s).tolist()
        if stats.sigma2 > 0.0:
            assert clt_distance(probs, stats) == reference_clt_distance(probs, stats)
            assert llt_distance(probs, stats) == reference_llt_distance(probs, stats)

    def test_empty_probability_vector(self):
        stats = LimitStats(mu=0.3, sigma2=0.5, n=0)
        assert clt_distance([], stats) == reference_clt_distance([], stats) == 0.0
        assert llt_distance([], stats) == reference_llt_distance([], stats)

    def test_first_negative_eigenvalue_is_named(self):
        values = (1.0, -0.5, -2.0)
        with pytest.raises(InputError) as want:
            reference_mean_variance(values)
        with pytest.raises(InputError) as got:
            mean_variance(Spectrum(values))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("length, shift", [(5, 5), (5, 9), (0, 0), (0, 3), (1, 0),
                                               (2, 1), (6, 0), (40, 3)])
    def test_poisson_reference_past_the_end(self, length, shift):
        for mean in (0.5, 1.0, 2.0, 17.25):
            got = poisson_reference(mean, shift, length)
            assert got.tolist() == reference_poisson_reference(mean, shift, length)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.4, 1.7, 2.0, 2.9, 3.2])
    def test_mode_cell_at_both_ends(self, mu):
        # floor(mu) = 0 and floor(mu) = n take the mode term; -1 and n + 1 do not
        probs = [0.5, 0.3, 0.2]
        for sigma2 in (0.04, 0.6, 3.0):
            stats = LimitStats(mu=mu, sigma2=sigma2, n=2)
            assert llt_distance(probs, stats) == reference_llt_distance(probs, stats)
            assert clt_distance(probs, stats) == reference_clt_distance(probs, stats)
