"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
Criterion 4 is expected to fail in part: the advertised per-vertex limit
constants for paths do not match the computed asymptotics (paths converge
to the cycle constants; see the README known-issues note), and the cycle
errors sit at the double-precision floor where a strict decrease is not
observable. The checks are asserted as stated anyway.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from lapstats.corpus import corpus_graphs, corpus_trees
from lapstats.diagnostics import run_sweep
from lapstats.exact import (
    coefficients_from_eigenvalues,
    forest_sum_oracle,
    laplacian_coefficients,
    matching_counts,
    spanning_tree_count,
    wiener_index,
)
from lapstats.families import (
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    family_limit_constants,
    make_family,
)
from lapstats.graphs import (
    component_count,
    is_bipartite,
    subdivision,
)
from lapstats.limits import (
    clt_distance,
    cone_variance_lower_bound,
    llt_distance,
    mean_variance,
    normalized_probabilities,
    poisson_reference,
    variance_lower_bound,
)
from lapstats.spectra import (
    anderson_morley_bound,
    cone_spectrum,
    gershgorin_bound,
    numeric_spectra,
    trace_check,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="module")
def corpus_bundles():
    out = []
    for label, g in corpus_graphs():
        out.append((label, g, laplacian_coefficients(g), numeric_spectra([g])[0]))
    return out


def test_criterion_01_exact_identities():
    started = time.perf_counter()
    failures = []
    graphs = corpus_graphs()
    for label, g in graphs:
        c = laplacian_coefficients(g)
        n = g.n
        if c[n] != 1 or c[n - 1] != 2 * g.edge_count or (n >= 1 and c[0] != 0):
            failures.append(f"{label}: basic identities")
            continue
        if c[1] != n * spanning_tree_count(g):
            failures.append(f"{label}: c[1] != n*tau")
            continue
        r = component_count(g)
        if any((c[k] == 0) != (k < r) for k in range(n + 1)):
            failures.append(f"{label}: zero pattern")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(1, "exact-identities", ok, f"{len(graphs)} graphs in {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_02_oracle_equivalence():
    started = time.perf_counter()
    small = [(label, g) for label, g in corpus_graphs() if g.n <= 7]
    failures = [label for label, g in small
                if forest_sum_oracle(g) != laplacian_coefficients(g)]
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(2, "forest-oracle-equivalence", ok,
            f"{len(small)} graphs <= 7 vertices in {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_03_star_statistics():
    worst = 0.0
    for n in range(3, 201):
        stats = mean_variance(closed_form_spectrum("star", n))
        mu = (n * n + n + 2) / (2 * (n + 1))
        s2 = (n - 1) * (n * n + n + 2) / (4 * (n + 1) ** 2)
        worst = max(worst, abs(stats.mu - mu) / mu, abs(stats.sigma2 - s2) / s2)
    ok = worst <= 1e-12
    _report(3, "star-statistics", ok, f"worst relative error {worst:.3e}")
    assert ok


def test_criterion_04_path_cycle_limits():
    targets = {"path": family_limit_constants("path"),
               "cycle": family_limit_constants("cycle")}
    errs: dict[tuple[str, int], tuple[float, float]] = {}
    for family, (mu_c, s2_c) in targets.items():
        for n in (200, 2000):
            stats = mean_variance(closed_form_spectrum(family, n))
            errs[(family, n)] = (abs(stats.mu / n - mu_c), abs(stats.sigma2 / n - s2_c))
    failures = []
    for family in ("path", "cycle"):
        mu_err, s2_err = errs[(family, 2000)]
        if mu_err > 5e-4:
            failures.append(f"{family} mean error {mu_err:.3e} > 5e-4")
        if s2_err > 5e-4:
            failures.append(f"{family} variance error {s2_err:.3e} > 5e-4")
        for which, idx in (("mean", 0), ("variance", 1)):
            if not errs[(family, 2000)][idx] < errs[(family, 200)][idx]:
                failures.append(f"{family} {which} error not strictly smaller at n=2000")
    ok = not failures
    _report(4, "path-cycle-limits", ok, "; ".join(failures) or "all eight clauses hold")
    assert ok, failures


def test_criterion_05_clt_llt_trend():
    started = time.perf_counter()
    failures = []
    for family in ("path", "cycle"):
        clt_values, llt_values = [], []
        for n in (25, 100, 400, 1600):
            probs = normalized_probabilities(closed_form_coefficients(family, n))
            stats = mean_variance(closed_form_spectrum(family, n))
            clt_values.append(clt_distance(probs, stats))
            llt_values.append(llt_distance(probs, stats))
        if not all(a > b for a, b in zip(clt_values, clt_values[1:])):
            failures.append(f"{family} clt not decreasing: {clt_values}")
        if not all(a > b for a, b in zip(llt_values, llt_values[1:])):
            failures.append(f"{family} llt not decreasing: {llt_values}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _report(5, "clt-llt-trend", ok, f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_06_poisson_regime():
    failures = []
    probs = normalized_probabilities(closed_form_coefficients("complete", 50))
    ref = poisson_reference(1.0, 1, len(probs))
    k50 = max(abs(probs[k] - ref[k]) for k in range(1, 11))
    if k50 > 0.02:
        failures.append(f"K_50 distance {k50:.4f} > 0.02")
    probs = normalized_probabilities(closed_form_coefficients("complete_bipartite", 25, 25))
    ref = poisson_reference(2.0, 1, len(probs))
    k2525 = max(abs(p - r) for p, r in zip(probs, ref))
    if k2525 > 0.05:
        failures.append(f"K_25,25 distance {k2525:.4f} > 0.05")

    bounded = run_sweep("complete", (20, 40, 80))
    if not all(r.verdict == "poisson-regime" for r in bounded):
        failures.append("complete family not labeled poisson-regime")
    if not max(r.sigma2 for r in bounded) < 1.0:
        failures.append("complete family variance not bounded")
    for family, ladder in (("path", (20, 40, 80)), ("cycle", (20, 40, 80)),
                           ("hypercube", (3, 4, 5))):
        rows = run_sweep(family, ladder)
        sigmas = [r.sigma2 for r in rows]
        if not all(a < b for a, b in zip(sigmas, sigmas[1:])):
            failures.append(f"{family} variance not increasing")
        if not all(r.verdict == "normal-regime" for r in rows):
            failures.append(f"{family} not labeled normal-regime")
    ok = not failures
    _report(6, "poisson-regime", ok,
            f"K_50 {k50:.4f}, K_25,25 {k2525:.4f}" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_07_tree_identities():
    failures = []
    for label, t in corpus_trees(max_n=9):
        n = t.n
        c = laplacian_coefficients(t)
        m = matching_counts(subdivision(t))
        for k in range(n + 1):
            want = m[n - k] if n - k < len(m) else 0
            if c[k] != want:
                failures.append(f"{label}: subdivision identity at k={k}")
                break
    trees12 = corpus_trees(max_n=12)
    for label, t in trees12:
        n = t.n
        c = laplacian_coefficients(t)
        lower = closed_form_coefficients("star", n)
        upper = closed_form_coefficients("path", n)
        if any(not lower[k] <= c[k] <= upper[k] for k in range(n + 1)):
            failures.append(f"{label}: sandwich")
        if c[2] != wiener_index(t):
            failures.append(f"{label}: wiener")
    ok = not failures
    _report(7, "tree-identities", ok, f"{len(trees12)} trees")
    assert not failures, failures[:5]


def test_criterion_08_spectral_transforms():
    failures = []
    for n in range(3, 41):
        cycle = make_family(FamilySpec("cycle", (n,)))
        wheel = make_family(FamilySpec("wheel", (n,)))
        got = cone_spectrum(numeric_spectra([cycle])[0], n)
        want = numeric_spectra([wheel])[0]
        gap = max(abs(a - b) for a, b in zip(got.values, want.values))
        if gap > 1e-8:
            failures.append(f"wheel-{n}: gap {gap:.3e}")
    for d in (3, 4):
        eigs = [2 * k for k in range(d + 1) for _ in range(math.comb(d, k))]
        expanded = coefficients_from_eigenvalues(eigs)
        direct = laplacian_coefficients(make_family(FamilySpec("hypercube", (d,))))
        if expanded != direct:
            failures.append(f"hypercube-{d}: multiplicity expansion mismatch")
    ok = not failures
    _report(8, "spectral-transforms", ok, "cones 3..40 and 2 hypercubes")
    assert not failures, failures[:5]


def test_criterion_09_bounds(corpus_bundles):
    failures = []
    for label, g, _, spectrum in corpus_bundles:
        lam_max = spectrum.values[0] if len(spectrum) else 0.0
        if g.edges:
            am = anderson_morley_bound(g)
            if not (lam_max <= am + 1e-9 and am <= gershgorin_bound(g)):
                failures.append(f"{label}: bound chain")
        if trace_check(spectrum, g) > 1e-8:
            failures.append(f"{label}: trace residual")
        if mean_variance(spectrum).sigma2 + 1e-12 < variance_lower_bound(g):
            failures.append(f"{label}: variance bound")
    for n in range(3, 12):
        stats = mean_variance(closed_form_spectrum("wheel", n))
        if stats.sigma2 + 1e-12 < cone_variance_lower_bound(n, 2):
            failures.append(f"wheel-{n}: cone bound")
    ok = not failures
    _report(9, "eigenvalue-bounds", ok, f"{len(corpus_bundles)} graphs + wheels")
    assert not failures, failures[:5]


def test_criterion_10_bipartite_cross_check(corpus_bundles):
    failures = []
    checked = 0
    for label, g, coeffs, _ in corpus_bundles:
        if not is_bipartite(g):
            continue
        checked += 1
        if laplacian_coefficients(g, signless=True) != coeffs:
            failures.append(label)
    for label, g, _, _ in corpus_bundles[::25]:
        s = subdivision(g)
        checked += 1
        if laplacian_coefficients(s, signless=True) != laplacian_coefficients(s):
            failures.append(f"subdivision-of-{label}")
    ok = not failures
    _report(10, "bipartite-cross-check", ok, f"{checked} bipartite graphs")
    assert not failures, failures[:5]


def test_criterion_11_moment_consistency(corpus_bundles):
    failures = []
    for label, g, coeffs, spectrum in corpus_bundles:
        stats = mean_variance(spectrum)
        probs = normalized_probabilities(coeffs)
        mean = math.fsum(k * p for k, p in enumerate(probs))
        var = math.fsum((k - mean) ** 2 * p for k, p in enumerate(probs))
        if abs(mean - stats.mu) > 1e-8 or abs(var - stats.sigma2) > 1e-8:
            failures.append(label)
    ok = not failures
    _report(11, "moment-consistency", ok, f"{len(corpus_bundles)} graphs")
    assert not failures, failures[:5]


def _run(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "lapstats", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_12_determinism():
    failures = []
    code1, verify1 = _run(["verify"])
    code2, verify2 = _run(["verify"])
    code3, verify4 = _run(["verify", "--jobs", "4"])
    if not (code1 == code2 == code3 == 0):
        failures.append(f"verify exit codes {code1}/{code2}/{code3}")
    if not (verify1 == verify2 == verify4):
        failures.append("verify output not byte-identical")
    sweep_args = ["sweep", "--family", "wheel", "--ladder", "5,50,500"]
    _, sweep1 = _run(sweep_args)
    _, sweep2 = _run(sweep_args)
    _, sweep4 = _run(sweep_args + ["--jobs", "4"])
    if not (sweep1 == sweep2 == sweep4):
        failures.append("sweep json not byte-identical")
    _, csv1 = _run(sweep_args + ["--format", "csv"])
    _, csv2 = _run(sweep_args + ["--format", "csv", "--jobs", "3"])
    if csv1 != csv2:
        failures.append("sweep csv not byte-identical")
    rows = json.loads(sweep1)
    if [r["n"] for r in rows] != [6, 51, 501]:
        failures.append("sweep rows out of order")
    ok = not failures
    _report(12, "determinism", ok, "verify x3, sweep x5")
    assert not failures, failures
