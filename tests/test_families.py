import dataclasses
import hashlib
import math
import time

import pytest

from lapstats import cli, families
from lapstats.corpus import _FAMILY_MEMBERS
from lapstats.errors import GuardExceeded, InputError
from lapstats.exact import coefficients_from_eigenvalues
from lapstats.families import (
    FAMILIES,
    MAX_EDGES,
    MAX_OUTPUT_DIGITS,
    MAX_VERTICES,
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    family_shape,
    make_family,
)

_EXTRA_MEMBERS = [
    ("path", (100,), None),
    ("wheel", (50,), None),
    ("hypercube", (6,), None),
    ("complete_binary_tree", (5,), None),
    ("random_regular", (20, 3), 7),
    ("random_tree", (30,), 7),
]


@pytest.mark.parametrize(
    "family, size, seed",
    [(f, p, None) for f, p in _FAMILY_MEMBERS] + _EXTRA_MEMBERS,
)
def test_table_shape_matches_built_graph(family, size, seed):
    spec = FamilySpec(family, size, seed)
    shape = family_shape(spec)
    g = make_family(spec)
    assert (shape.n, shape.edge_count) == (g.n, g.edge_count)
    if shape.max_degree is not None:
        assert shape.max_degree == g.max_degree


@pytest.mark.parametrize("call", [
    lambda: closed_form_spectrum("hypercube", -1),
    lambda: closed_form_spectrum("path", 2, 3),
    lambda: closed_form_coefficients("complete_bipartite", 2),
    lambda: closed_form_coefficients("cycle", 2),
    lambda: closed_form_spectrum("random_tree", 5),
])
def test_closed_form_size_rule(call):
    with pytest.raises(InputError):
        call()


def test_vertex_budget_checked_before_building(no_graphs):
    with pytest.raises(GuardExceeded):
        FamilySpec("hypercube", (30,))
    with pytest.raises(GuardExceeded):
        FamilySpec("path", (MAX_VERTICES + 1,))
    with pytest.raises(GuardExceeded):
        FamilySpec("complete_binary_tree", (10 ** 12,))


def test_edge_budget_checked_before_building(no_graphs):
    spec = FamilySpec("complete", (2049,))
    assert family_shape(spec).edge_count > MAX_EDGES
    with pytest.raises(GuardExceeded):
        make_family(spec)


@pytest.mark.parametrize("argv", [
    ["stats", "--family", "hypercube", "--n", "30"],
    ["spectrum", "--family", "complete_binary_tree", "--n", "40"],
    # no closed-form spectrum and above the dense guard
    ["diagnose", "--family", "random_tree", "--n", "200000", "--seed", "1"],
    ["stats", "--family", "complete_binary_tree", "--n", "12"],
    ["sweep", "--family", "random_regular", "--ladder", "5000:3", "--seed", "1"],
    # coeffs and spectrum check their guards on the closed-form shape: the
    # exact charpoly from n and the maximum degree, the dense matrix from n
    ["coeffs", "--family", "complete", "--n", "2000"],
    ["coeffs", "--family", "complete", "--n", "2000", "--signless"],
    ["coeffs", "--family", "path", "--n", "1000000"],
    # no maximum degree in the table, so only the dense guard applies
    ["coeffs", "--family", "random_tree", "--n", "1000000", "--seed", "1"],
    ["spectrum", "--family", "random_tree", "--n", "1000000", "--seed", "1"],
])
def test_cli_guard_exits_3_before_building(capsys, no_graphs, argv):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["stats", "--family", "complete", "--n", "2000"],
    ["diagnose", "--family", "complete_bipartite", "--n", "500,500"],
    ["spectrum", "--family", "wheel", "--n", "40", "--closed-form"],
    ["sweep", "--family", "path", "--ladder", "10,20"],
])
def test_closed_form_commands_never_build(capsys, no_graphs, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("family, size", [
    (f, p) for f, p in _FAMILY_MEMBERS if FAMILIES[f].coefficients is not None
] + [("path", (500,)), ("cycle", (400,)), ("star", (400,)), ("complete", (300,)),
     ("complete_bipartite", (40, 60)), ("matching_union", (300,))])
def test_output_digits_bound_the_closed_form(family, size):
    coeffs = closed_form_coefficients(family, *size)
    bound = families._output_digits(closed_form_spectrum(family, *size))
    assert sum(len(str(c)) for c in coeffs) <= bound


@pytest.mark.parametrize("family, size, admitted", [
    ("path", (2000,), True),  # 1.67M digits
    ("complete", (1500,), True),  # 7.1M; coeffs prints it in test_cli
    ("complete", (2000,), True),  # 13.2M
    ("path", (12000,), True),  # 60.2M
    ("star", (20000,), False),  # 121M
    ("path", (20000,), False),  # 167M
    ("matching_union", (20000,), False),  # 382M
    ("path", (1 << 20,), False),
])
def test_output_guard_threshold(family, size, admitted):
    digits = families._output_digits(closed_form_spectrum(family, *size))
    assert (digits <= MAX_OUTPUT_DIGITS) == admitted


@pytest.mark.parametrize("n", ["20000", str(1 << 20)])
def test_closed_form_output_guard_exits_3_before_the_formula(capsys, monkeypatch, n):
    def refuse(*size):
        raise AssertionError("the formula ran")

    monkeypatch.setitem(FAMILIES, "path", dataclasses.replace(FAMILIES["path"], coefficients=refuse))
    started = time.perf_counter()
    assert cli.main(["coeffs", "--family", "path", "--n", n, "--closed-form"]) == 3
    # the closed-form spectrum of 2^20 vertices is the guard's whole cost
    assert time.perf_counter() - started < 10.0
    assert capsys.readouterr().err.startswith("error: closed-form output guard")


# ---------------------------------------------------------------------------
# the closed-form coefficients against the binomial formulas they replaced,
# which cost one math.comb per k, and against the expanded spectrum


def _comb0(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _cycle_oracle(n):
    out = [0]
    for k in range(1, n + 1):
        q, r = divmod(2 * n * math.comb(n + k, n - k), n + k)
        assert r == 0
        out.append(q)
    return out


_BINOMIAL_ORACLES = {
    "path": lambda n: [_comb0(n - 1 + k, 2 * k - 1) for k in range(n + 1)],
    "cycle": _cycle_oracle,
    "star": lambda n: [0, 1] if n == 1 else [
        _comb0(n - 2, k - 2) + n * _comb0(n - 2, k - 1) for k in range(n + 1)],
    "complete": lambda n: [0] + [n ** (n - k) * _comb0(n - 1, k - 1)
                                 for k in range(1, n + 1)],
    "matching_union": lambda copies: [_comb0(copies, k - copies) * 2 ** (2 * copies - k)
                                      for k in range(2 * copies + 1)],
}


def test_every_coefficient_family_has_an_oracle():
    assert set(_BINOMIAL_ORACLES) | {"complete_bipartite"} == {
        f for f, r in FAMILIES.items() if r.coefficients is not None}


@pytest.mark.parametrize("family", sorted(_BINOMIAL_ORACLES))
def test_closed_form_matches_binomial_oracle(family):
    oracle = _BINOMIAL_ORACLES[family]
    for n in range(FAMILIES[family].minimum[0], 201):
        assert closed_form_coefficients(family, n) == oracle(n), n


def test_complete_bipartite_matches_expanded_spectrum():
    for n in range(1, 41):
        for m in range(1, n + 1):
            want = coefficients_from_eigenvalues([0, m + n] + [n] * (m - 1) + [m] * (n - 1))
            assert closed_form_coefficients("complete_bipartite", m, n) == want, (m, n)
            assert closed_form_coefficients("complete_bipartite", n, m) == want, (n, m)


def test_recurrence_refuses_an_inexact_step():
    with pytest.raises(ArithmeticError):
        families._exact_quotient(7, 2)


# ---------------------------------------------------------------------------
# exact identities at sizes where the binomial formulas took seconds


def _fibonacci_lucas(n):
    """(F_n, L_n)."""
    f, g = 0, 1
    for _ in range(n):
        f, g = g, f + g
    return f, 2 * g - f


def _tau(family, size):
    """Spanning trees of a member."""
    if family in ("path", "star"):
        return 1
    if family == "cycle":
        return size[0]
    if family == "complete":
        return size[0] ** (size[0] - 2)
    if family == "complete_bipartite":
        m, n = size
        return m ** (n - 1) * n ** (m - 1)
    return int(size[0] == 1)  # matching_union: a forest unless one edge


_LARGE = [("path", (6000,)), ("cycle", (6000,)), ("star", (6000,)), ("complete", (2000,)),
          ("complete_bipartite", (1000, 1000)), ("complete_bipartite", (500, 1500)),
          ("matching_union", (3000,))]


@pytest.mark.parametrize("family, size", _LARGE)
def test_large_closed_form_identities(family, size):
    started = time.perf_counter()
    c = closed_form_coefficients(family, *size)
    r = FAMILIES[family]
    n = r.order(*size)
    assert len(c) == n + 1
    assert c[n] == 1 and c[n - 1] == 2 * r.edges(*size) and c[0] == 0
    assert c[1] == n * _tau(family, size)
    spectrum = closed_form_spectrum(family, *size)
    if spectrum.exact:
        assert sum(c) == math.prod(1 + int(lam) for lam in spectrum.values)
    elif family == "path":
        assert sum(c) == _fibonacci_lucas(2 * n)[0]
    else:
        assert sum(c) == _fibonacci_lucas(2 * n)[1] - 2
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# SHA-256 of `coeffs --family F --n N --closed-form --format csv` stdout as
# the math.comb formulas printed it


_PINNED_CSV = {
    ("path", "2000"): "dc0268002dbfd76c42cd53f2db4c7b13e4da5993dff45ac9c0011181bd33f9ba",
    ("cycle", "1500"): "7e0ae420a30171a0c8e05c609039c683d3c617943e622cec35b8edce12e9e546",
    ("star", "1500"): "9dffcbd3137b646ecc408f98192ee9bf43bf527544bec747b98e566e7b9f1068",
    ("complete", "300"): "5fd536450429b53305b50cfeae94e2f4552c7e8488272be089c607bf06d09a93",
    ("complete_bipartite", "200,300"):
        "20374d912de5c2014242c4183e4aa10ba936071aa31fd76abbaa1bea176757d6",
    ("matching_union", "800"): "02b50c27c14a9c6bc4caa16a4f0a1a448ec530650335a824267a0c29f97d1726",
}


@pytest.mark.parametrize("family, n", sorted(_PINNED_CSV))
def test_closed_form_csv_bytes_pinned(capsys, family, n):
    assert cli.main(["coeffs", "--family", family, "--n", n, "--closed-form",
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _PINNED_CSV[family, n]


def _sine_generator(n, m):
    """The former per-j closed form: Python floats, squared by ``** 2``."""
    return sorted((4.0 * math.sin(j * math.pi / m) ** 2 for j in range(n)), reverse=True)


_SINE_SIZES = sorted(set(range(3, 200)) | {
    (1 << k) + d for k in range(8, 17) for d in (-1, 0, 1) if (1 << k) + d <= 1 << 16})


def test_hypercube_spectrum_equals_the_bit_count_generator():
    # eigenvalue 2k with multiplicity C(d, k), bit for bit
    for d in range(17):
        want = sorted((2.0 * v.bit_count() for v in range(1 << d)), reverse=True)
        assert closed_form_spectrum("hypercube", d).values.tolist() == want


def test_sine_spectra_equal_the_generator():
    # path, cycle and (through the cone) wheel eigenvalues, bit for bit
    assert closed_form_spectrum("path", 1).values.tolist() == _sine_generator(1, 2)
    assert closed_form_spectrum("path", 2).values.tolist() == _sine_generator(2, 4)
    for n in _SINE_SIZES:
        assert closed_form_spectrum("path", n).values.tolist() == _sine_generator(n, 2 * n)
        cycle = _sine_generator(n, n)
        assert closed_form_spectrum("cycle", n).values.tolist() == cycle
        wheel = sorted([0.0, n + 1.0] + [1 + v for v in cycle[:-1]], reverse=True)
        assert closed_form_spectrum("wheel", n).values.tolist() == wheel
