import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from lapstats import cli, families
from lapstats.corpus import _FAMILY_MEMBERS
from lapstats.errors import GuardExceeded, InputError
from lapstats.exact import coefficients_from_eigenvalues, laplacian_coefficients_many
from lapstats.families import (
    FAMILIES,
    MAX_EDGES,
    MAX_OUTPUT_DIGITS,
    MAX_VERTICES,
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    family_coefficients,
    make_family,
)
from lapstats.graphs import Graph

_EXTRA_MEMBERS = [
    ("path", (100,), None),
    ("wheel", (50,), None),
    ("hypercube", (6,), None),
    ("complete_binary_tree", (5,), None),
    ("random_regular", (20, 3), 7),
    ("random_tree", (30,), 7),
    # a degree at which a whole pairing is rarely simple; a round keeps its
    # simple pairs and re-pairs only the rest
    ("random_regular", (20, 6), 1),
]


@pytest.mark.parametrize(
    "family, size, seed",
    [(f, p, None) for f, p in _FAMILY_MEMBERS] + _EXTRA_MEMBERS,
)
def test_table_shape_matches_built_graph(family, size, seed):
    spec = FamilySpec(family, size, seed)
    g = make_family(spec)
    assert (spec.n, spec.edge_count) == (g.n, g.edge_count)
    if spec.max_degree is not None:
        assert spec.max_degree == g.max_degree


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


# each used to end in a TypeError traceback from inside a builder or formula
@pytest.mark.parametrize("call", [
    lambda: make_family(FamilySpec("path", (2.5,))),
    lambda: closed_form_coefficients("complete", 3.0),
    lambda: closed_form_coefficients("path", "3"),
    lambda: family_coefficients(FamilySpec("wheel", (4.0,))),
    lambda: FamilySpec("complete_bipartite", (2, None)),
    lambda: FamilySpec("path", 3),
], ids=["float-path", "float-complete", "text-path", "float-wheel", "none", "not-a-tuple"])
def test_non_integer_sizes_are_an_input_error(call):
    with pytest.raises(InputError, match="size parameters must be integers"):
        call()


def test_numpy_integer_sizes_are_accepted():
    spec = FamilySpec("complete_bipartite", (np.int64(2), np.uint8(3)))
    assert spec == FamilySpec("complete_bipartite", (2, 3))
    assert all(type(s) is int for s in spec.size)
    assert closed_form_coefficients("path", np.int32(4)) == closed_form_coefficients("path", 4)
    assert make_family(FamilySpec("random_tree", [np.intp(6)], 1)) == make_family(
        FamilySpec("random_tree", (6,), 1))


# random.Random hashes a float or a text seed, which no --seed reproduces
@pytest.mark.parametrize("call", [
    lambda: make_family(FamilySpec("random_tree", (6,), 1.5)),
    lambda: make_family(FamilySpec("random_tree", (6,), "a")),
    lambda: make_family(FamilySpec("random_regular", (8, 3), "a")),
], ids=["float-tree", "text-tree", "text-regular"])
def test_non_integer_seeds_are_an_input_error(call):
    with pytest.raises(InputError, match="seed must be an integer"):
        call()


def test_numpy_integer_seeds_are_stored_as_int():
    spec = FamilySpec("random_tree", (6,), np.int64(3))
    assert spec == FamilySpec("random_tree", (6,), 3) and type(spec.seed) is int
    assert make_family(spec) == make_family(FamilySpec("random_tree", (6,), 3))


def _assert_regular(g: Graph, n: int, d: int) -> None:
    # Graph refuses loops and drops repeats, so d at every vertex and nd/2
    # edges make a simple d-regular graph
    assert g.n == n and g.edge_count == n * d // 2, (n, d)
    assert g.degrees() == [d] * n, (n, d)


def test_random_regular_draws_every_admitted_member():
    grid = [(n, d) for n in range(1, 17) for d in range(n) if n * d % 2 == 0]
    # d > (n - 1)/2 takes the complement of an (n - 1 - d)-regular draw
    assert any(2 * d > n - 1 for n, d in grid)
    for n, d in grid:
        for seed in range(10):
            spec = FamilySpec("random_regular", (n, d), seed)
            g = make_family(spec)
            _assert_regular(g, n, d)
            assert make_family(spec).edges == g.edges, (n, d, seed)


@pytest.mark.parametrize("n, d, seed, digest", [
    (10, 3, 0, "feced73e16463a4cf0b15a4727c669f058d9ae32149fb72248ddc52e0b86adf8"),
    (12, 7, 1, "5fdf84be694358d65660cff9803d55fb7338ad52172dded0d29ca429d949e5ce"),
    (20, 6, 1, "c7ba48accdab25db22843c5f492352f8c3e2a453cd1931d969c1026eab3ac946"),
], ids=["10-3-0", "12-7-1", "20-6-1"])
def test_random_regular_draws_are_pinned(n, d, seed, digest):
    edges = sorted(make_family(FamilySpec("random_regular", (n, d), seed)).edges)
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


# degrees at which a whole pairing is simple about once in exp((d^2 - 1)/4)
# tries; each draw stays well under a second
@pytest.mark.parametrize("n, d", [(100, 7), (30, 9), (2000, 6), (4096, 6)])
def test_random_regular_draws_large_degrees_quickly(n, d):
    for seed in (1, 2, 3):
        start = time.perf_counter()
        g = make_family(FamilySpec("random_regular", (n, d), seed))
        assert time.perf_counter() - start < 1.0
        _assert_regular(g, n, d)


# no degree is refused; the row's edges and maximum degree, and the
# coefficient of x^(n-1), which is 2|E|, are the graph's
@pytest.mark.parametrize("command, n, d", [("diagnose", 100, 7), ("coeffs", 30, 9)])
def test_random_regular_admits_every_degree(capsys, command, n, d):
    argv = [command, "--family", "random_regular", "--n", f"{n},{d}", "--seed", "1"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    if command == "diagnose":
        assert (out[0]["n"], out[0]["edges"], out[0]["max_degree"]) == (n, n * d // 2, d)
    else:
        assert len(out) == n + 1 and out[-2:] == [str(n * d), "1"]


def test_random_regular_past_the_edge_budget_exits_3_before_a_shuffle(capsys, monkeypatch):
    def refuse(self, x):
        raise AssertionError("a pairing was shuffled")

    monkeypatch.setattr(families.random.Random, "shuffle", refuse)
    # 4096 * 1026 / 2 edges, above MAX_EDGES and within the dense guard
    argv = ["diagnose", "--family", "random_regular", "--n", "4096,1026", "--seed", "1"]
    assert cli.main(argv) == 3
    assert "above the budget" in capsys.readouterr().err


def test_regular_rule_checked_when_the_spec_is_made(no_graphs):
    FamilySpec("random_regular", (100, 7), 1)
    # every input error on the spec comes before the vertex budget
    with pytest.raises(InputError, match="seed must be given"):
        FamilySpec("random_regular", (100, 7))
    with pytest.raises(InputError, match="odd degree sum"):
        FamilySpec("random_regular", (101, 7), 1)
    with pytest.raises(InputError, match="0 <= d < n"):
        FamilySpec("random_regular", (10, 10), 1)
    # the vertex budget, with no float made of the sizes however large
    with pytest.raises(GuardExceeded):
        FamilySpec("random_regular", (10 ** 400, 10 ** 399), 1)


def test_vertex_budget_checked_before_building(no_graphs):
    with pytest.raises(GuardExceeded):
        FamilySpec("hypercube", (30,))
    with pytest.raises(GuardExceeded):
        FamilySpec("path", (MAX_VERTICES + 1,))
    with pytest.raises(GuardExceeded):
        FamilySpec("complete_binary_tree", (10 ** 12,))


def test_spec_keeps_its_repr_and_equality():
    spec = FamilySpec("path", (3,))
    assert repr(spec) == "FamilySpec(family='path', size=(3,), seed=None)"
    assert spec == FamilySpec("path", (3,)) and hash(spec) == hash(FamilySpec("path", (3,)))
    assert spec != FamilySpec("path", (4,))
    assert (spec.n, spec.edge_count, spec.max_degree) == (3, 2, 2)
    assert FamilySpec("random_tree", (5,), 1).max_degree is None


def test_edge_budget_checked_before_building(no_graphs):
    spec = FamilySpec("complete", (2049,))
    assert spec.edge_count > MAX_EDGES
    with pytest.raises(GuardExceeded):
        make_family(spec)


@pytest.mark.parametrize("argv", [
    ["stats", "--family", "hypercube", "--n", "30"],
    ["spectrum", "--family", "complete_binary_tree", "--n", "40"],
    # no closed-form spectrum and above the dense guard
    ["diagnose", "--family", "random_tree", "--n", "200000", "--seed", "1"],
    ["stats", "--family", "complete_binary_tree", "--n", "12"],
    ["sweep", "--family", "random_regular", "--ladder", "5000:3", "--seed", "1"],
    # without a formula (a random tree's, any signless one) coeffs and
    # spectrum check their guards on the spec's closed forms: the exact
    # charpoly from n and |E|, the dense matrix from n
    ["coeffs", "--family", "random_tree", "--n", "200", "--seed", "1"],
    ["coeffs", "--family", "complete", "--n", "2000", "--signless"],
    # the seed decides the maximum degree, which the guards do not need
    ["coeffs", "--family", "random_tree", "--n", "1000000", "--seed", "1"],
    ["spectrum", "--family", "random_tree", "--n", "1000000", "--seed", "1"],
    # the closed-form output guard, from the spectrum alone
    ["coeffs", "--family", "hypercube", "--n", "13", "--closed-form"],
    ["coeffs", "--family", "path", "--n", "1000000"],
    # one past the charpoly guard's largest tree, and a random tree within
    # the dense guard but past the charpoly's
    ["coeffs", "--family", "random_tree", "--n", "164", "--seed", "1"],
    ["coeffs", "--family", "random_tree", "--n", "300", "--seed", "1"],
    # one past the output guard's largest wheel
    ["coeffs", "--family", "wheel", "--n", "10828"],
])
def test_cli_guard_exits_3_before_building(capsys, no_graphs, argv):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["stats", "--family", "complete", "--n", "2000"],
    ["diagnose", "--family", "complete_bipartite", "--n", "500,500"],
    ["spectrum", "--family", "wheel", "--n", "40", "--closed-form"],
    ["sweep", "--family", "path", "--ladder", "10,20"],
    # past the charpoly and dense guards, which the formulas do not need
    ["coeffs", "--family", "path", "--n", "200"],
    ["spectrum", "--family", "path", "--n", "5000"],
])
def test_closed_form_commands_never_build(capsys, no_graphs, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


_WITH_FORMULA = [(f, p) for f, p in _FAMILY_MEMBERS if FAMILIES[f].coefficients is not None]


# hypercubes and then wheels last, so that the earlier cases keep their
# parametrize ids
@pytest.mark.parametrize("family, size", [
    c for c in _WITH_FORMULA if c[0] not in ("hypercube", "wheel")] + [
    ("path", (500,)), ("cycle", (400,)), ("star", (400,)), ("complete", (300,)),
    ("complete_bipartite", (40, 60)), ("matching_union", (300,))] + [
    c for c in _WITH_FORMULA if c[0] == "hypercube"] + [("hypercube", (9,))] + [
    c for c in _WITH_FORMULA if c[0] == "wheel"] + [("wheel", (400,))])
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
    ("hypercube", (12,), True),  # 18.4M
    ("hypercube", (13,), False),  # 75.8M
    ("wheel", (10827,), True),  # 67,107,313
    ("wheel", (10828,), False),  # 67,113,510
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
# one closed-form route: the spec route holds the formulas and the output
# guard, and the name-and-size functions go through it


def _count_specs(monkeypatch):
    """Count the FamilySpec objects checked from here on."""
    made = []
    real = FamilySpec.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(FamilySpec, "__post_init__", counted)
    return made


@pytest.mark.parametrize("what", ["spectrum", "coefficients"])
@pytest.mark.parametrize("family, size", [("path", (300,)), ("complete_bipartite", (40, 60)),
                                          ("hypercube", (10,))])
def test_closed_form_route_builds_no_graph(no_graphs, what, family, size):
    work = families.route(FamilySpec(family, size), what)
    if what == "spectrum":
        assert work()[1].values.tolist() == closed_form_spectrum(family, *size).values.tolist()
    else:
        assert work() == closed_form_coefficients(family, *size)


@pytest.mark.parametrize("source, what, signless", [
    (FamilySpec("random_tree", (4097,), 1), "spectrum", False),
    (FamilySpec("path", (5000,)), "spectrum", True),
    (FamilySpec("random_tree", (300,), 1), "coefficients", False),
    (FamilySpec("path", (200,)), "coefficients", True),
    (FamilySpec("path", (20000,)), "coefficients", False),
])
def test_route_refuses_before_returning_the_work(no_graphs, source, what, signless):
    with pytest.raises(GuardExceeded):
        families.route(source, what, signless)


def test_engine_route_builds_only_in_the_call(monkeypatch):
    built = []
    monkeypatch.setattr(families, "make_family", lambda spec: built.append(spec) or Graph(3))
    work = families.route(FamilySpec("random_tree", (3,), 1), "coefficients")
    assert built == []
    assert work() == [0, 0, 0, 1] and built == [FamilySpec("random_tree", (3,), 1)]


def test_family_coefficients_checks_no_further_spec(monkeypatch):
    spec = FamilySpec("path", (200,))
    made = _count_specs(monkeypatch)
    coeffs = families.family_coefficients(spec)
    assert made == []
    assert coeffs == closed_form_coefficients("path", 200)


@pytest.mark.parametrize("family, size", [("path", (7,)), ("complete_bipartite", (2, 3))])
def test_closed_form_coefficients_go_through_the_spec_route(monkeypatch, family, size):
    seen = []

    def route(spec):
        seen.append(spec)
        return ["from the spec route"]

    monkeypatch.setattr(families, "family_coefficients", route)
    assert closed_form_coefficients(family, *size) == ["from the spec route"]
    assert seen == [FamilySpec(family, size)]


def test_closed_form_output_guard_message():
    with pytest.raises(GuardExceeded) as info:
        closed_form_coefficients("path", 20000)
    assert str(info.value) == ("closed-form output guard: path (20000,) has up to 167208360 "
                               "decimal digits of coefficients, above 67108864")


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
    # the others: the expanded spectrum, and the charpoly with the wheel identities
    assert set(_BINOMIAL_ORACLES) | {"complete_bipartite", "hypercube", "wheel"} == {
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


def test_hypercube_matches_charpoly_and_expanded_spectrum():
    cubes = laplacian_coefficients_many([make_family(FamilySpec("hypercube", (d,)))
                                         for d in range(7)])
    for d, want in enumerate(cubes):
        assert closed_form_coefficients("hypercube", d) == want, d
    for d in range(7, 10):
        want = coefficients_from_eigenvalues([2 * v.bit_count() for v in range(1 << d)])
        assert closed_form_coefficients("hypercube", d) == want, d


def test_recurrence_refuses_an_inexact_step():
    # (2x + 3) f' = 2 f has the monic solution x + 3/2, not an integer one
    with pytest.raises(ArithmeticError, match="does not divide the step"):
        families._solve([[-2], [3, 2]], 1)


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
    if family == "hypercube":
        d = size[0]
        return 2 ** (2 ** d - d - 1) * math.prod(k ** math.comb(d, k) for k in range(1, d + 1))
    return int(size[0] == 1)  # matching_union: a forest unless one edge


_LARGE = [("path", (6000,)), ("cycle", (6000,)), ("star", (6000,)), ("complete", (2000,)),
          ("complete_bipartite", (1000, 1000)), ("complete_bipartite", (500, 1500)),
          ("matching_union", (3000,)), ("hypercube", (12,))]


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


@pytest.mark.parametrize("n", [2000, 10827])
def test_wheel_identities(n):
    # rims past the charpoly guard, up to the output guard's largest: c_1 = (n + 1) tau
    # with tau = L_2n - 2 (Myers 1971), c_n = 2 |E| = 4n and c_(n-1) = e_2 of the
    # spectrum, ((tr L)^2 - tr L^2) / 2 with tr L^2 = n^2 + 9n + 4n from the degrees
    c = closed_form_coefficients("wheel", n)
    assert len(c) == n + 2 and c[0] == 0 and c[n + 1] == 1
    assert c[1] == (n + 1) * (_fibonacci_lucas(2 * n)[1] - 2)
    assert c[n] == 4 * n and c[n - 1] == (15 * n * n - 13 * n) // 2


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
    # the hypercube had no formula before the multiplicity form; the values
    # are checked in test_hypercube_matches_charpoly_and_expanded_spectrum
    ("hypercube", "8"): "c3eae11158843eaa52271fdd334ae0b244862fa13d4e163bd20534916e008d83",
    # the exact charpoly's output, printed before the wheel had a formula
    ("wheel", "150"): "d3e7b8ed099fd49839fca3a695889a49dd7fa7447deef25fedf6dd8d80ae5154",
}


def test_every_coefficient_family_is_pinned():
    assert {f for f, _ in _PINNED_CSV} == {
        f for f, r in FAMILIES.items() if r.coefficients is not None}


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


# the eigenvalue lists the (eigenvalue, multiplicity) pairs replaced, with
# the sizes to check: every edge size and one larger member
_FORMER_SPECTRA = {
    "hypercube": (lambda d: [2 * v.bit_count() for v in range(1 << d)],
                  [(d,) for d in range(17)]),
    "star": (lambda n: [0] if n == 1 else [0, n] + [1] * (n - 2), [(1,), (2,), (3,), (50,)]),
    "complete": (lambda n: [0] + [n] * (n - 1), [(1,), (2,), (12,)]),
    "complete_bipartite": (lambda m, n: [0, m + n] + [n] * (m - 1) + [m] * (n - 1),
                           [(1, 1), (1, 5), (5, 1), (3, 5), (6, 6)]),
    "matching_union": (lambda copies: [0] * copies + [2] * copies, [(1,), (4,)]),
}


@pytest.mark.parametrize("family", sorted(_FORMER_SPECTRA))
def test_integer_spectra_equal_the_former_lists(family):
    former, sizes = _FORMER_SPECTRA[family]
    for size in sizes:
        want = sorted(map(float, former(*size)), reverse=True)
        s = closed_form_spectrum(family, *size)
        assert s.exact and s.values.tolist() == want, size


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
