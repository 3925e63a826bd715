import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lapstats import cli, diagnostics, exact, families, serialize
from lapstats.errors import GuardExceeded
from lapstats.families import FamilySpec, make_family
from test_limits import reference_row


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_complete_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "complete", "--n", "3")
        assert code == 0
        assert json.loads(out) == ["0", "9", "6", "1"]

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "path", "--n", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["k", "c_k"], ["0", "0"], ["1", "3"], ["2", "4"], ["3", "1"]]

    def test_closed_form_byte_identical(self, capsys):
        # path 200 is past the charpoly guard; both runs take the formula
        code, direct, _ = run_cli(capsys, "coeffs", "--family", "path", "--n", "200")
        _, closed, _ = run_cli(capsys, "coeffs", "--family", "path", "--n", "200",
                               "--closed-form")
        assert code == 0 and direct == closed

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text("# one edge\n2 1\n0 1\n")
        code, out, _ = run_cli(capsys, "coeffs", "--edge-list", str(path))
        assert code == 0
        assert json.loads(out) == ["0", "2", "1"]

    def test_wheel_at_the_charpoly_guard(self, capsys):
        # a rim of 150, the largest the charpoly guard admits, which the
        # formula now serves; check c_(n-1) = 2 |E| and c_1 = n tau, where the
        # tree count is tau(W_m) = L_2m - 2 for a rim of m, L the Lucas numbers
        code, out, _ = run_cli(capsys, "coeffs", "--family", "wheel", "--n", "150")
        assert code == 0
        values = [int(v) for v in json.loads(out)]
        lucas = [2, 1]
        while len(lucas) <= 300:
            lucas.append(lucas[-1] + lucas[-2])
        assert len(values) == 152 and values[150:] == [600, 1]
        assert values[1] == 151 * (lucas[300] - 2)

    def test_star_edge_list_at_the_charpoly_guard(self, capsys, tmp_path):
        # 163 vertices, the most the guard admits; the edge list takes the
        # charpoly and the named star its formula
        path = tmp_path / "star163.txt"
        path.write_text("163 162\n" + "".join(f"0 {i}\n" for i in range(1, 163)))
        code, listed, _ = run_cli(capsys, "coeffs", "--edge-list", str(path))
        _, named, _ = run_cli(capsys, "coeffs", "--family", "star", "--n", "163")
        assert code == 0 and listed == named

    def test_signless_odd_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "cycle", "--n", "5",
                               "--signless")
        assert code == 0
        assert json.loads(out)[0] == "4"  # det Q(C5) = 4, unsigned

    def test_huge_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "complete", "--n", "50",
                               "--closed-form")
        assert code == 0
        values = json.loads(out)
        assert values[1] == str(50 ** 49)  # n * tau = 50 * 50^48

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_past_the_int_str_digit_limit(self, capsys, fmt):
        # c_1 of K_1500 is 1500^1499, about 4760 decimal digits, above
        # CPython's default cap of 4300 on str(int)
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "coeffs", "--family", "complete", "--n", "1500",
                               "--closed-form", "--format", fmt)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            values = json.loads(out)
        else:
            values = [row[1] for row in csv.reader(io.StringIO(out))][1:]
        assert len(values) == 1501
        sys.set_int_max_str_digits(0)
        try:
            assert values[1] == str(1500 ** 1499)
        finally:
            sys.set_int_max_str_digits(limit)


class TestSpectrum:
    def test_star_json(self, capsys, tmp_path):
        # the named star takes its closed form; its edge list the eigensolver
        code, out, _ = run_cli(capsys, "spectrum", "--family", "star", "--n", "5")
        payload = json.loads(out)
        assert code == 0 and payload["exact"] is True
        assert payload["values"] == [5.0, 1.0, 1.0, 1.0, 0.0]
        assert payload["trace_residual"] == 0.0
        path = tmp_path / "star5.txt"
        path.write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run_cli(capsys, "spectrum", "--edge-list", str(path))
        payload = json.loads(out)
        assert code == 0 and payload["exact"] is False
        assert payload["values"] == sorted(payload["values"], reverse=True)
        assert payload["values"][0] == pytest.approx(5.0, abs=1e-9)
        assert payload["trace_residual"] <= 1e-8

    def test_closed_form_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--family", "complete", "--n", "6",
                               "--closed-form")
        payload = json.loads(out)
        assert code == 0 and payload["exact"] is True
        assert payload["trace_residual"] == 0.0

    def test_signless_differs_on_odd_cycle(self, capsys):
        _, lap, _ = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "5")
        _, signless, _ = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "5",
                                 "--signless")
        low = json.loads(signless)["values"][-1]
        assert json.loads(lap)["values"] != json.loads(signless)["values"]
        assert low > 0.1  # Q of an odd cycle is nonsingular


class TestStats:
    def test_star(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--family", "star", "--n", "10")
        payload = json.loads(out)
        assert code == 0
        assert payload["mu"] == pytest.approx(112 / 22, rel=1e-12)
        assert payload["sigma2"] == pytest.approx(9 * 112 / (4 * 121), rel=1e-12)


class TestDiagnoseAndSweep:
    def test_diagnose_complete_50(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--family", "complete", "--n", "50")
        row = json.loads(out)[0]
        assert code == 0
        assert row["verdict"] == "poisson-regime"
        assert row["poisson_distance"] <= 0.02

    def test_sweep_csv_and_json_carry_identical_values(self, capsys):
        args = ("sweep", "--family", "path", "--ladder", "10,20,40")
        _, json_text, _ = run_cli(capsys, *args)
        _, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
        json_rows = json.loads(json_text)
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(json_rows) == len(csv_rows) == 3
        for jrow, crow in zip(json_rows, csv_rows):
            for key, value in jrow.items():
                if isinstance(value, float):
                    assert crow[key] == repr(value)
                else:
                    assert crow[key] == str(value)

    def test_sweep_rows_ascending(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "cycle",
                               "--ladder", "40,10,20", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["10", "20", "40"]

    def test_sweep_random_regular_takes_colon_joined_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "random_regular",
                               "--ladder", "12:3,10:3", "--seed", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["edges"], r["max_degree"]) for r in rows] == [
            ("10", "15", "3"), ("12", "18", "3")]

    def test_plain_ladder_entry_fills_every_parameter(self, capsys):
        _, plain, _ = run_cli(capsys, "sweep", "--family", "complete_bipartite",
                              "--ladder", "4,3")
        _, joined, _ = run_cli(capsys, "sweep", "--family", "complete_bipartite",
                               "--ladder", "3:3,4:4")
        assert plain == joined and len(json.loads(plain)) == 2

    @pytest.mark.parametrize("ladder", ["10:x", "10::3", "10:3:1", "10"])
    def test_sweep_malformed_ladder_entry(self, capsys, ladder):
        code, out, err = run_cli(capsys, "sweep", "--family", "random_regular",
                                 "--ladder", ladder, "--seed", "1")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("family, ladder", [
        ("path", "10,1048577"), ("hypercube", "30,3"), ("complete_bipartite", "3:3,1048576:1")])
    def test_sweep_checks_every_entry_before_the_first_row(self, capsys, monkeypatch,
                                                           family, ladder):
        diagnosed = []
        diagnose = diagnostics.diagnose
        monkeypatch.setattr(diagnostics, "diagnose",
                            lambda spec: diagnosed.append(spec) or diagnose(spec))
        code, out, err = run_cli(capsys, "sweep", "--family", family, "--ladder", ladder)
        assert code == 3 and out == "" and "budget" in err
        assert diagnosed == []

    # each entry is refused further along its route than its spec: the dense
    # guard on its numeric spectrum
    @pytest.mark.parametrize("family, ladder, guard", [
        ("random_tree", "4096,4097", "dense matrix guard"),
        ("random_regular", "10:3,5000:3", "dense matrix guard")])
    def test_sweep_routes_every_entry_before_the_first_row(self, capsys, monkeypatch,
                                                           family, ladder, guard):
        def refuse(spec):
            raise AssertionError(f"a row was computed for {spec!r}")

        monkeypatch.setattr(diagnostics, "diagnose", refuse)
        code, out, err = run_cli(capsys, "sweep", "--family", family, "--ladder", ladder,
                                 "--seed", "1")
        assert code == 3 and out == "" and guard in err

    # every entry passes its own route; the ladder is past its entry bound
    # (33 entries) or its vertex bound (2^21 + 2 vertices in three)
    @pytest.mark.parametrize("family, ladder, seed", [
        ("path", ",".join(map(str, range(2, 35))), None),
        ("random_tree", ",".join(["10"] * 33), "1"),
        ("path", "2,1048576,1048576", None),
        ("hypercube", "1,20,20", None)])
    def test_sweep_ladder_bounds_exit_3_before_the_first_row(self, capsys, monkeypatch,
                                                            family, ladder, seed):
        def refuse(spec):
            raise AssertionError(f"a row was computed for {spec!r}")

        monkeypatch.setattr(diagnostics, "diagnose", refuse)
        argv = ["sweep", "--family", family, "--ladder", ladder]
        code, out, err = run_cli(capsys, *argv, *(["--seed", seed] if seed else []))
        assert code == 3 and out == "" and "sweep ladder guard" in err

    # an edgeless member has no variance: refused as an input error from its
    # |E| alone, before a spectrum or a row
    @pytest.mark.parametrize("argv, patched", [
        (["diagnose", "--family", "random_regular", "--n", "4000,0", "--seed", "1"], "eigvalsh"),
        (["sweep", "--family", "random_regular", "--ladder", "100:3,4000:0", "--seed", "1"],
         "diagnose"),
        (["diagnose", "--edge-list", "EDGELESS"], "eigvalsh"),
    ], ids=["member", "sweep", "edge-list"])
    def test_edgeless_input_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                    argv, patched):
        def refuse(*args):
            raise AssertionError(f"{patched} was called")

        monkeypatch.setattr(*((np.linalg, "eigvalsh") if patched == "eigvalsh"
                              else (diagnostics, "diagnose")), refuse)
        edgeless = tmp_path / "edgeless.txt"
        edgeless.write_text("3 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *(str(edgeless) if a == "EDGELESS" else a for a in argv))
        assert (code, out, err) == (2, "", "error: degenerate variance\n")

    def test_edgeless_stats_keep_their_zero_variance(self, capsys, tmp_path):
        edgeless = tmp_path / "edgeless.txt"
        edgeless.write_text("3 0\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "stats", "--edge-list", str(edgeless))
        assert code == 0 and json.loads(out)["sigma2"] == 0.0

    def test_seeded_family_is_reproducible(self, capsys):
        args = ("diagnose", "--family", "random_tree", "--n", "30", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        _, other, _ = run_cli(capsys, "diagnose", "--family", "random_tree",
                              "--n", "30", "--seed", "6")
        assert first != other

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "diagnose", "--family", "star", "--n", "6",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())[0]["family"] == "star"


@pytest.mark.parametrize("family, n, seed", [("complete_binary_tree", 4, None),
                                             ("random_tree", 30, 2)])
def test_family_and_its_edge_list_take_one_route(capsys, tmp_path, family, n, seed):
    family_args = ["--family", family, "--n", str(n)] + ([] if seed is None else ["--seed", str(seed)])
    g = make_family(FamilySpec(family, (n,), seed))
    path = tmp_path / "member.txt"
    path.write_text(f"{g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)),
                    encoding="utf-8")
    for command, keys in (("stats", ("n", "mu", "sigma2")),
                          ("diagnose", ("n", "mu", "sigma2", "clt_distance", "llt_distance"))):
        named = json.loads(run_cli(capsys, command, *family_args)[1])
        listed = json.loads(run_cli(capsys, command, "--edge-list", str(path))[1])
        if command == "diagnose":
            (named,), (listed,) = named, listed
        assert [named[k] for k in keys] == [listed[k] for k in keys]


class TestExitCodes:
    def test_bad_family_size(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "cycle", "--n", "2")
        assert code == 2 and "error" in err

    def test_both_inputs_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        code, _, err = run_cli(capsys, "coeffs", "--family", "path", "--n", "3",
                               "--edge-list", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["coeffs", "spectrum", "stats", "diagnose"])
    @pytest.mark.parametrize("extra", [["--n", "99"], ["--seed", "4"], ["--n", "99", "--seed", "4"]])
    def test_edge_list_refuses_n_and_seed(self, capsys, tmp_path, command, extra):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, err = run_cli(capsys, command, "--edge-list", str(path), *extra)
        assert code == 2 and out == "" and "--edge-list takes neither" in err

    def test_closed_form_needs_supported_family(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        code, _, _ = run_cli(capsys, "coeffs", "--edge-list", str(path), "--closed-form")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--edge-list", "G", "--closed-form"],
        ["spectrum", "--family", "complete_binary_tree", "--n", "3", "--closed-form"],
        ["coeffs", "--family", "random_tree", "--n", "5", "--seed", "1", "--closed-form"],
    ])
    def test_closed_form_refused_without_a_formula(self, capsys, tmp_path, argv):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        code, out, err = run_cli(capsys, *(str(path) if a == "G" else a for a in argv))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_missing_seed_for_random_family(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--family", "random_tree", "--n", "6")
        assert code == 2

    def test_missing_seed_comes_before_the_edge_budget(self, capsys):
        # 4096 * 1026 / 2 edges are past the edge budget (exit 3), but an
        # input error comes first
        code, _, err = run_cli(capsys, "diagnose", "--family", "random_regular",
                               "--n", "4096,1026")
        assert code == 2 and "seed must be given" in err

    def test_garbage_size(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--family", "path", "--n", "many")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--edge-list", "/nonexistent/g.txt")
        assert code == 2

    def test_non_utf8_edge_list(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"2 1\n0 1\n\xff\n")
        code, _, err = run_cli(capsys, "diagnose", "--edge-list", str(path))
        assert code == 2 and err.startswith("error:")

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.json"
        code, out, err = run_cli(capsys, "stats", "--family", "path", "--n", "3",
                                 "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("broken", ["raises", "misses_trace"])
    def test_eigensolver_failure_maps_to_exit_3(self, capsys, monkeypatch, broken):
        def fake(a):
            if broken == "raises":
                raise np.linalg.LinAlgError("no convergence")
            return np.zeros(a.shape[:-1])  # a matrix or a stack of them

        monkeypatch.setattr(np.linalg, "eigvalsh", fake)
        code, out, err = run_cli(capsys, "spectrum", "--family", "complete_binary_tree",
                                 "--n", "2")
        assert code == 3 and out == "" and err.startswith("error:")

    def test_guard_maps_to_exit_3(self, capsys, monkeypatch):
        def explode(g, signless=False):
            raise GuardExceeded("boom")

        # a family without a formula, so that coeffs runs the exact charpoly
        monkeypatch.setattr(exact, "laplacian_coefficients", explode)
        code, _, err = run_cli(capsys, "coeffs", "--family", "random_tree", "--n", "6",
                               "--seed", "1")
        assert code == 3 and "boom" in err

    @pytest.mark.parametrize("broken", ["closed-form step", "charpoly sign"])
    def test_exactness_failure_maps_to_exit_3(self, capsys, monkeypatch, broken):
        if broken == "closed-form step":
            # x + 3/2 solves (2x + 3) f' = 2 f, so the one step leaves a remainder
            monkeypatch.setitem(families.FAMILIES, "path", dataclasses.replace(
                families.FAMILIES["path"], coefficients=lambda n: families._solve([[-2], [3, 2]], 1)))
            argv = ["coeffs", "--family", "path", "--n", "5"]
        else:
            # a charpoly of all-ones coefficients, half of them negative as c_k
            monkeypatch.setattr(exact, "_faddeev_leverrier",
                                lambda stack, primes: [[1] * (stack.shape[1] + 1)] * len(stack))
            argv = ["coeffs", "--family", "random_tree", "--n", "6", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "path", "--ladder", "10", "--jobs", "0"],
        ["verify", "--jobs", "0"],
    ])
    def test_jobs_below_one_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2


# SHA-256 of stdout for outputs made only of exact integers, integer-valued
# floats or PASS lines, so no change of route, of argument handling or of the
# float formatting at the serialiser may move a byte of them
PINNED_STDOUT = [
    (["coeffs", "--family", "complete", "--n", "5"],
     "efca0a0d254f437809ba4f8bafca01c82078a7a4798af4548d309293346acdd6"),
    (["coeffs", "--family", "path", "--n", "2000", "--closed-form", "--format", "csv"],
     "dc0268002dbfd76c42cd53f2db4c7b13e4da5993dff45ac9c0011181bd33f9ba"),
    (["coeffs", "--family", "cycle", "--n", "7", "--signless"],
     "75a88cb11af591cd517fa52bf86e085b4cbce2ec5941e481122b03a2d6e1f475"),
    (["coeffs", "--family", "random_tree", "--n", "30", "--seed", "2"],
     "77f7c118bac6edc4a2011ff19eb9a89dbae0e649c54d9f60c8fb348288f98ce1"),
    (["coeffs", "--edge-list", "PATH5", "--signless"],
     "d4257dadae5e112067ac34ab493cdd21f033c604ad3ccfa0167de96ddf0b259c"),
    (["verify"],
     "b759441c49ccaaf10610d79ad63f71abaa7aa39d845a199e378712a3db550b53"),
    (["spectrum", "--family", "hypercube", "--n", "10", "--closed-form"],
     "6d8466a18574c5d9db588574ce7086527f31a9d03bfcd9d4c776bd5fa51af9c4"),
    (["spectrum", "--family", "hypercube", "--n", "10", "--closed-form", "--format", "csv"],
     "11895e165d10fef50205ecf7ef31e9ff29d7d7efe35515d98de401db7b4235d1"),
    (["spectrum", "--family", "complete_bipartite", "--n", "3,5", "--closed-form",
      "--format", "csv"],
     "ac67f22769fbab46e2c02da5ef834459b7068ef4a67ece1d4c110bef444bcaee"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_exact_stdout_is_pinned(capsys, tmp_path, argv, digest):
    path5 = tmp_path / "path5.txt"
    path5.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, *(str(path5) if a == "PATH5" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _sine_spectrum_csv(n: int, m: int) -> str:
    """The CSV of the former per-j closed form: Python floats from
    ``4 sin(j pi / m) ** 2``, sorted descending and written by repr."""
    values = sorted((4.0 * math.sin(j * math.pi / m) ** 2 for j in range(n)), reverse=True)
    return "i,lambda\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values))


# stdout of the array route against rows rebuilt by the former per-k loops:
# a route change that moves one bit of a distance or a moment fails here
REFERENCE_STDOUT = [
    (["diagnose", "--family", "path", "--n", "3000"],
     lambda: serialize.rows_json([reference_row("path", (3000,))])),
    (["diagnose", "--family", "complete_bipartite", "--n", "500,500"],
     lambda: serialize.rows_json([reference_row("complete_bipartite", (500, 500))])),
    (["sweep", "--family", "wheel", "--ladder", "1000,4000,10000", "--format", "csv"],
     lambda: serialize.rows_csv([reference_row("wheel", (n,)) for n in (1000, 4000, 10000)])),
    (["spectrum", "--family", "path", "--n", "4096", "--closed-form", "--format", "csv"],
     lambda: _sine_spectrum_csv(4096, 8192)),
]


@pytest.mark.parametrize("argv, expected", REFERENCE_STDOUT,
                         ids=[" ".join(a) for a, _ in REFERENCE_STDOUT])
def test_stdout_equals_reference_loops(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected()


def _readme_cli_lines():
    """The ``lapstats ...`` lines of the first code block under README's
    ``## CLI`` heading, each without its trailing comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("lapstats ")]
    assert lines, "no lapstats lines under README's ## CLI"
    return lines


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_run(capsys, tmp_path, argv):
    graph = tmp_path / "graph.txt"
    graph.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *(str(graph) if a == "graph.txt" else a for a in argv[1:]))
    assert code == 0 and out, err
