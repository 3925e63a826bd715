import csv
import dataclasses
import io

import numpy as np
import pytest

from lapstats import diagnostics, serialize
from lapstats.corpus import REGULAR_SEEDS, REGULAR_SHAPES, corpus_trees
from lapstats.diagnostics import (
    MAX_SWEEP_ENTRIES,
    MAX_SWEEP_VERTICES,
    VERDICT_NORMAL,
    VERDICT_POISSON,
    VERDICT_UNKNOWN,
    DiagnosticsRow,
    diagnose,
    run_sweep,
)
from lapstats.errors import InputError
from lapstats.exact import laplacian_coefficients, laplacian_matrix
from lapstats.families import (
    FAMILIES,
    FamilySpec,
    closed_form_coefficients,
    closed_form_spectrum,
    make_family,
)
from lapstats.graphs import Graph
from lapstats.limits import (
    clt_distance,
    cone_variance_lower_bound,
    llt_distance,
    mean_variance,
    normalized_probabilities,
)
from lapstats.spectra import cone_spectrum, numeric_spectrum


class TestDiagnose:
    def test_complete_50_is_poisson_regime(self):
        row = diagnose(FamilySpec("complete", (50,)))
        assert row.verdict == VERDICT_POISSON
        assert row.poisson_distance is not None and row.poisson_distance <= 0.02
        assert row.n == 50 and row.edges == 1225 and row.max_degree == 49

    def test_balanced_bipartite_gets_poisson_distance(self):
        row = diagnose(FamilySpec("complete_bipartite", (25, 25)))
        assert row.verdict == VERDICT_POISSON
        assert row.poisson_distance is not None and row.poisson_distance <= 0.05

    def test_unbalanced_bipartite_has_no_reference(self):
        assert diagnose(FamilySpec("complete_bipartite", (3, 7))).poisson_distance is None

    def test_path_is_normal_regime_with_convergence_columns(self):
        row = diagnose(FamilySpec("path", (100,)))
        assert row.verdict == VERDICT_NORMAL
        assert row.poisson_distance is None
        assert row.mu_per_vertex_err is not None and row.sigma2_per_vertex_err is not None

    def test_star_has_no_convergence_columns(self):
        row = diagnose(FamilySpec("star", (40,)))
        assert row.mu_per_vertex_err is None

    def test_arbitrary_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        row = diagnose(g)
        assert row.family is None and row.verdict == VERDICT_UNKNOWN
        assert row.sigma2 >= row.sigma2_lower_bound - 1e-12

    def test_row_is_built_whole(self):
        row = diagnose(FamilySpec("path", (10,)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.verdict = VERDICT_UNKNOWN

    def test_large_wheel_uses_spectral_probabilities(self):
        # vertex count above the exact-pipeline cap; distances must still
        # be finite and the variance bound must hold
        row = diagnose(FamilySpec("wheel", (300,)))
        assert 0.0 < row.clt_distance < 1.0
        assert row.llt_distance > 0.0
        assert row.sigma2 >= cone_variance_lower_bound(300, 2) - 1e-9


class TestSweep:
    def test_rows_sorted_by_size(self):
        rows = run_sweep("path", (40, 10, 20))
        assert [r.n for r in rows] == [10, 20, 40]

    def test_wheel_variance_grows_and_cone_bound_holds(self):
        rows = run_sweep("wheel", (10, 100, 1000))
        sigmas = [r.sigma2 for r in rows]
        assert sigmas[0] < sigmas[1] < sigmas[2]
        for size, row in zip((10, 100, 1000), rows):
            assert row.sigma2 >= cone_variance_lower_bound(size, 2) - 1e-9
            assert row.n == size + 1

    def test_complete_variance_stays_bounded(self):
        rows = run_sweep("complete", (10, 100, 400))
        assert all(r.sigma2 < 1.0 for r in rows)
        assert all(r.verdict == VERDICT_POISSON for r in rows)

    @pytest.mark.parametrize("ladder", [
        tuple(range(2, 2 + MAX_SWEEP_ENTRIES)),
        (MAX_SWEEP_VERTICES // 2,) * 2,
        tuple(1 << k for k in range(1, 21))])  # a doubling ladder to the 2^20 budget
    def test_ladders_at_the_bounds_admitted(self, monkeypatch, ladder):
        monkeypatch.setattr(diagnostics, "diagnose", lambda spec: spec)
        assert [spec.size[0] for spec in run_sweep("path", ladder)] == sorted(ladder)

    def test_empty_ladder_rejected(self):
        with pytest.raises(InputError):
            run_sweep("path", ())

    def test_hypercube_sweep(self):
        rows = run_sweep("hypercube", (3, 5, 7))
        assert [r.n for r in rows] == [8, 32, 128]
        assert rows[0].sigma2 < rows[1].sigma2 < rows[2].sigma2

    def test_path_convergence_column_decreases(self):
        rows = run_sweep("path", (100, 400, 1600))
        errs = [r.mu_per_vertex_err for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_random_family_sweep(self):
        rows = run_sweep("random_tree", (10, 20, 40), seed=3)
        assert [r.n for r in rows] == [10, 20, 40]
        assert all(r.edges == r.n - 1 for r in rows)


class TestExactRouteOracle:
    """Rows take their probabilities from the spectrum; the exact integer
    coefficients must give the same distances."""

    @staticmethod
    def _assert_close(row, coeffs, stats):
        probs = normalized_probabilities(coeffs)
        assert abs(row.clt_distance - clt_distance(probs, stats)) <= 1e-12
        assert abs(row.llt_distance - llt_distance(probs, stats)) <= 1e-12

    def test_arbitrary_graphs(self):
        graphs = [g for _, g in corpus_trees(max_n=9)]
        graphs += [make_family(FamilySpec("random_regular", (n, d), s))
                   for n, d in REGULAR_SHAPES for s in REGULAR_SEEDS]
        graphs.append(make_family(FamilySpec("random_tree", (60,), 11)))
        for g in graphs:
            stats = mean_variance(numeric_spectrum(laplacian_matrix(g)))
            self._assert_close(diagnose(g), laplacian_coefficients(g), stats)

    @pytest.mark.parametrize("family, size", [
        ("path", (3000,)), ("star", (3000,)), ("complete_bipartite", (500, 500)),
        ("complete", (2000,))])
    def test_large_families(self, family, size):
        row = diagnose(FamilySpec(family, size))
        stats = mean_variance(closed_form_spectrum(family, *size))
        self._assert_close(row, closed_form_coefficients(family, *size), stats)


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRow) if "float" in str(f.type)]


class TestPythonFloatsOnly:
    """Under numpy 2, repr(np.float64(0.1)) is 'np.float64(0.1)', and the
    CSV encoder writes floats by repr: no numpy scalar may reach a row or a
    spectrum."""

    def _rows(self):
        g = make_family(FamilySpec("random_regular", (30, 4), 3))
        members = [("complete", (50,)), ("complete_bipartite", (25, 25)), ("path", (100,)),
                   ("wheel", (30,)), ("hypercube", (5,))]
        return [diagnose(FamilySpec(f, size)) for f, size in members] + [
            diagnose(g), diagnose(make_family(FamilySpec("random_tree", (40,), 2)))]

    def test_row_float_fields(self):
        assert {"mu", "clt_distance", "poisson_distance", "mu_per_vertex_err"} <= set(_FLOAT_FIELDS)
        rows = self._rows()
        for row in rows:
            for name in _FLOAT_FIELDS:
                value = getattr(row, name)
                assert value is None or type(value) is float, (row.family, name)
        # every optional field is set on some row
        assert all(any(getattr(r, name) is not None for r in rows) for name in _FLOAT_FIELDS)
        assert "np." not in serialize.rows_csv(rows) + serialize.rows_json(rows)

    def test_spectrum_values(self):
        spectra = [closed_form_spectrum(name, *[4] * record.arity)
                   for name, record in FAMILIES.items() if record.spectrum is not None]
        g = make_family(FamilySpec("random_regular", (30, 4), 3))
        spectra += [numeric_spectrum(laplacian_matrix(g)), cone_spectrum(spectra[0], 4)]
        for s in spectra:
            assert s.values.dtype == np.float64 and not s.values.flags.writeable
            assert bool(np.all(s.values[:-1] >= s.values[1:]))
            assert "np." not in serialize.spectrum_csv(s) + serialize.spectrum_json(s, 0.0)


def _csv_writer_text(table: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def test_csv_join_equals_csv_writer(monkeypatch):
    """The CSV encoders join cells without quoting; on every table they build,
    the bytes are those of ``csv.writer``."""
    tables = []
    join = serialize._csv_text
    monkeypatch.setattr(serialize, "_csv_text", lambda table: tables.append(table) or join(table))
    stats = mean_variance(closed_form_spectrum("cycle", 10))
    rows = TestPythonFloatsOnly()._rows()
    outputs = [
        serialize.coefficients_csv(closed_form_coefficients("path", 300)),
        serialize.spectrum_csv(closed_form_spectrum("wheel", 30)),
        serialize.stats_csv({"family": None, "n": 10, "mu": stats.mu, "sigma2": stats.sigma2}),
        serialize.rows_csv(rows),
    ]
    assert len(tables) == len(outputs)
    for table, text in zip(tables, outputs):
        assert text == _csv_writer_text(table)
    # an empty family cell, and an optional column empty in some rows only
    assert tables[2][1][0] == ""
    column = tables[3][0].index("poisson_distance")
    assert {row[column] == "" for row in tables[3][1:]} == {True, False}
