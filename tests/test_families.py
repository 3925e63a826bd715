import dataclasses
import time

import pytest

from lapstats import cli, families
from lapstats.corpus import _FAMILY_MEMBERS
from lapstats.errors import GuardExceeded, InputError
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
