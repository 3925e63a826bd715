import json
import math

import numpy as np
import pytest

from lapstats import cli
from lapstats.errors import ConvergenceError, InputError
from lapstats.exact import coefficients_from_eigenvalues, laplacian_coefficients, laplacian_matrix
from lapstats.families import FamilySpec, closed_form_spectrum, make_family, random_regular
from lapstats.graphs import cone, empty_graph
from lapstats.spectra import (
    SNAP_TOL,
    Spectrum,
    anderson_morley_bound,
    cone_spectrum,
    gershgorin_bound,
    join_spectrum,
    numeric_spectrum,
    trace_check,
)


def fam(name, *size):
    return make_family(FamilySpec(name, tuple(size)))


def lap_spectrum(g):
    return numeric_spectrum(laplacian_matrix(g))


class TestNumericSolver:
    def test_k2(self):
        s = lap_spectrum(fam("complete", 2))
        assert s.values == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_star(self):
        s = lap_spectrum(fam("star", 6))
        assert s.values == pytest.approx((6.0, 1.0, 1.0, 1.0, 1.0, 0.0), abs=1e-10)

    def test_c4(self):
        s = lap_spectrum(fam("cycle", 4))
        assert s.values == pytest.approx((4.0, 2.0, 2.0, 0.0), abs=1e-10)

    def test_identity_matrix(self):
        assert numeric_spectrum([[1, 0], [0, 1]]).values.tolist() == [1.0, 1.0]

    def test_zero_matrix(self):
        values = numeric_spectrum([[0] * 3 for _ in range(3)]).values.tolist()
        assert values == [0.0, 0.0, 0.0]
        assert all(math.copysign(1.0, v) == 1.0 for v in values)  # +0.0, never -0.0
        assert numeric_spectrum(np.zeros((0, 0))).values.tolist() == []

    def test_non_symmetric_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            numeric_spectrum([[0, 1], [2, 0]])

    def test_no_negative_eigenvalues_after_clamp(self):
        for g in (fam("wheel", 9), fam("complete", 12), fam("hypercube", 4)):
            assert all(v >= 0.0 for v in lap_spectrum(g).values)

    def test_descending_order(self):
        vals = lap_spectrum(fam("wheel", 8)).values
        assert list(vals) == sorted(vals, reverse=True)

    def test_trace_residual_random_regular_50(self):
        g = random_regular(50, 3, seed=11)
        assert trace_check(lap_spectrum(g), g) <= 1e-8

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="eigvalsh"):
            lap_spectrum(fam("path", 5))

    def test_trace_certificate(self, monkeypatch):
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + 1e-6)
        with pytest.raises(ConvergenceError, match="trace"):
            lap_spectrum(fam("path", 5))

    def test_snap_matches_per_value_rule(self, monkeypatch):
        # -0.0 stays, tiny negatives become 0.0, larger ones and positives stay
        raw = np.array([-1e-3, -1e-13, -0.0, 0.0, 1e-13, 2.0 - 1e-3, 2.0])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: raw)
        a = np.diag([0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0 - 2e-3])  # trace = sum(raw)
        snap = 10.0 * SNAP_TOL * float(np.linalg.norm(a))
        want = sorted((0.0 if -snap < v < 0.0 else v for v in raw.tolist()), reverse=True)
        got = numeric_spectrum(a).values.tolist()
        assert [repr(v) for v in got] == [repr(v) for v in want]


class TestFromValues:
    def test_ties_keep_sorted_order(self):
        # 0.0 and -0.0 compare equal: both orders must match sorted()'s
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = rng.choice([0.0, -0.0, 1.5, 2.0, -1e-300, 3.0], size=30).tolist()
            got = Spectrum(values).values.tolist()
            want = sorted(values, reverse=True)
            assert [repr(v) for v in got] == [repr(v) for v in want]

    @pytest.mark.parametrize("values", [
        [3, 0, 3, 1], (2.5, -0.0, 0.0), np.array([0.0, 7.0, -0.0]),
        np.array([2, 0, 2], dtype=np.int64), [], (0.0, 2.0)])
    def test_any_iterable_gives_a_read_only_float64_array(self, values):
        want = sorted((float(v) for v in values), reverse=True)
        for given in (values, iter(values)):
            got = Spectrum(given).values
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]
            with pytest.raises(ValueError, match="read-only"):
                got[:] = 5.0

    @pytest.mark.parametrize("given", [[0.0, 3.0, 1.0], [3.0, 1.0, 0.0]])
    def test_a_callers_array_is_copied_not_frozen(self, given):
        a = np.array(given)
        s = Spectrum(a)
        assert a.flags.writeable and a.tolist() == given
        a[:] = 9.0
        assert s.values.tolist() == [3.0, 1.0, 0.0]


class TestLargeNumeric:
    """Sizes far beyond what a pure-Python eigensolver reaches in a test run."""

    @pytest.mark.parametrize(
        "family,params",
        [
            ("path", (256,)),
            ("cycle", (256,)),
            ("wheel", (255,)),
            ("hypercube", (8,)),
            ("complete_bipartite", (100, 156)),
        ],
    )
    def test_matches_closed_form(self, family, params):
        g = make_family(FamilySpec(family, params))
        want = closed_form_spectrum(family, *params).values
        got = lap_spectrum(g).values
        assert len(got) == len(want) == g.n
        assert max(abs(a - b) for a, b in zip(want, got)) <= 1e-9

    def test_diagnose_complete_binary_tree_511(self, capsys):
        assert cli.main(["diagnose", "--family", "complete_binary_tree", "--n", "8"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["n"] == 511
        g = fam("complete_binary_tree", 8)
        assert trace_check(lap_spectrum(g), g) < 1e-8


class TestClosedForms:
    def test_path_2_matches_k2(self):
        s = closed_form_spectrum("path", 2)
        assert s.values == pytest.approx((2.0, 0.0), abs=1e-15)

    def test_complete(self):
        s = closed_form_spectrum("complete", 5)
        assert s.exact and s.values.tolist() == [5.0, 5.0, 5.0, 5.0, 0.0]

    def test_hypercube_multiplicities(self):
        s = closed_form_spectrum("hypercube", 3)
        assert s.values.tolist() == [6.0, 4.0, 4.0, 4.0, 2.0, 2.0, 2.0, 0.0]

    def test_unsupported_family(self):
        with pytest.raises(InputError):
            closed_form_spectrum("complete_binary_tree", 3)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("path", (17,)),
            ("cycle", (17,)),
            ("star", (17,)),
            ("complete", (17,)),
            ("hypercube", (4,)),
            ("matching_union", (8,)),
            ("complete_bipartite", (5, 9)),
            ("wheel", (16,)),
        ],
    )
    def test_matches_numeric(self, family, params):
        g = make_family(FamilySpec(family, params))
        want = closed_form_spectrum(family, *params).values
        got = lap_spectrum(g).values
        assert max(abs(a - b) for a, b in zip(want, got)) <= 1e-8

    def test_trace_residual_exact_forms(self):
        for family, params in (("star", (9,)), ("complete", (7,)), ("hypercube", (4,))):
            g = make_family(FamilySpec(family, params))
            assert trace_check(closed_form_spectrum(family, *params), g) == 0.0


class TestTransforms:
    def test_cone_over_triangle(self):
        got = cone_spectrum(Spectrum((3.0, 3.0, 0.0)), 3)
        assert got.values.tolist() == [4.0, 4.0, 4.0, 0.0]

    def test_join_of_singletons(self):
        got = join_spectrum(Spectrum((0.0,)), 1, Spectrum((0.0,)), 1)
        assert got.values.tolist() == [2.0, 0.0]

    def test_cone_matches_direct_wheel(self):
        for n in (3, 10, 25):
            got = cone_spectrum(lap_spectrum(fam("cycle", n)), n)
            want = lap_spectrum(fam("wheel", n))
            assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-8

    def test_disconnected_input_keeps_extra_zeros(self):
        s = lap_spectrum(fam("matching_union", 2))
        got = cone_spectrum(s, 4)
        want = lap_spectrum(cone(fam("matching_union", 2)))
        assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-8

    def test_cone_over_unsorted_input(self):
        assert cone_spectrum(Spectrum((0.0, 2.0)), 2).values.tolist() == [3.0, 3.0, 0.0]

    def test_missing_zero_rejected(self):
        with pytest.raises(InputError, match=r"no zero eigenvalue \(smallest 1\.0\)") as info:
            cone_spectrum(Spectrum((2.0, 1.0)), 2)
        assert "np." not in str(info.value)


class TestBounds:
    def test_star_anderson_morley_tight(self):
        for n in (3, 6, 11):
            g = fam("star", n)
            assert anderson_morley_bound(g) == n
            assert lap_spectrum(g).values[0] == pytest.approx(n, abs=1e-9)

    def test_regular_bounds_coincide(self):
        g = fam("cycle", 9)
        assert anderson_morley_bound(g) == gershgorin_bound(g) == 4

    def test_p4(self):
        g = fam("path", 4)
        assert gershgorin_bound(g) == 4 and anderson_morley_bound(g) == 4

    def test_chain(self):
        for g in (fam("wheel", 7), fam("complete_bipartite", 2, 5), fam("hypercube", 3)):
            lam = lap_spectrum(g).values[0]
            assert lam <= anderson_morley_bound(g) + 1e-9 <= gershgorin_bound(g) + 1e-9

    def test_edgeless_rejected(self):
        with pytest.raises(InputError):
            anderson_morley_bound(empty_graph(3))


def test_reconstruction_from_spectrum():
    g = fam("wheel", 6)
    approx = coefficients_from_eigenvalues(lap_spectrum(g).values)
    exact = laplacian_coefficients(g)
    for a, c in zip(approx, exact):
        assert abs(a - c) <= 1e-6 * max(1.0, float(c))


def test_trace_check_empty_graph():
    assert trace_check(numeric_spectrum([[0] * 2 for _ in range(2)]), empty_graph(2)) == 0.0
