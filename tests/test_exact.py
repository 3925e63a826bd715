import math
import tracemalloc

import pytest

from lapstats.corpus import corpus_graphs
from lapstats.errors import GuardExceeded, InputError
from lapstats.exact import (
    charpoly_monic,
    coefficients_from_eigenvalues,
    forest_sum_oracle,
    laplacian_coefficients,
    laplacian_matrix,
    matching_counts,
    signless_coefficients,
    signless_laplacian_matrix,
    spanning_tree_count,
    wiener_index,
)
from lapstats.families import FamilySpec, closed_form_coefficients, make_family, random_tree
from lapstats.graphs import (
    empty_graph,
    graph_from_edge_list,
    subdivision,
)
from lapstats.spectra import numeric_spectrum


def fam(name, *size):
    return make_family(FamilySpec(name, tuple(size)))


def reference_matrix(g, sign):
    """Degree matrix plus sign times adjacency, as Python lists, one edge at
    a time: the oracle of the ndarray builder."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u][v] = m[v][u] = sign
        m[u][u] += 1
        m[v][v] += 1
    return m


class TestMatrices:
    def test_k2_laplacian(self):
        assert laplacian_matrix(fam("complete", 2)).tolist() == [[1, -1], [-1, 1]]

    def test_k2_signless(self):
        assert signless_laplacian_matrix(fam("complete", 2)).tolist() == [[1, 1], [1, 1]]

    def test_empty_graph_is_zero_matrix(self):
        assert laplacian_matrix(empty_graph(3)).tolist() == [[0] * 3 for _ in range(3)]

    def test_laplacian_rows_sum_to_zero(self):
        for row in laplacian_matrix(fam("wheel", 6)).tolist():
            assert sum(row) == 0

    @pytest.mark.parametrize("build, sign", [(laplacian_matrix, -1), (signless_laplacian_matrix, 1)])
    def test_corpus_matches_list_builder(self, build, sign):
        for label, g in corpus_graphs():
            m = build(g)
            want = reference_matrix(g, sign)
            assert m.dtype == float and m.tolist() == want, label
            got, expected = numeric_spectrum(m).values, numeric_spectrum(want).values
            assert got.tolist() == expected.tolist(), label

    def test_spectrum_of_built_matrix_peaks_near_one_matrix(self):
        n = 1024
        g = fam("path", n)
        tracemalloc.start()
        try:
            numeric_spectrum(laplacian_matrix(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix itself is 8 n^2 bytes; a second full copy would double it
        assert peak < 1.5 * 8 * n * n


class TestCharpoly:
    def test_two_by_two_by_hand(self):
        # det(xI - [[1,-1],[-1,1]]) = (x-1)^2 - 1 = x^2 - 2x
        assert charpoly_monic([[1, -1], [-1, 1]]) == [0, -2, 1]

    def test_zero_matrix(self):
        assert charpoly_monic([[0] * 4 for _ in range(4)]) == [0, 0, 0, 0, 1]

    def test_identity(self):
        assert charpoly_monic([[1, 0], [0, 1]]) == [1, -2, 1]

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            charpoly_monic([[1, 2, 3], [4, 5, 6]])


class TestCoefficients:
    def test_k3(self):
        # x(x-3)^2 expanded, unsigned
        assert laplacian_coefficients(fam("complete", 3)) == [0, 9, 6, 1]

    def test_p3(self):
        assert laplacian_coefficients(fam("path", 3)) == [0, 3, 4, 1]

    def test_empty(self):
        assert laplacian_coefficients(empty_graph(4)) == [0, 0, 0, 0, 1]

    def test_edge_and_leading_identities(self):
        for g in (fam("wheel", 7), fam("hypercube", 3), fam("complete_bipartite", 3, 4)):
            c = laplacian_coefficients(g)
            assert c[g.n] == 1
            assert c[g.n - 1] == 2 * g.edge_count

    def test_zero_pattern_tracks_components(self):
        g = fam("matching_union", 3)
        c = laplacian_coefficients(g)
        assert c[:3] == [0, 0, 0] and c[3] > 0


class TestForestOracle:
    def test_k3_tree_count_term(self):
        assert forest_sum_oracle(fam("complete", 3))[1] == 9

    def test_p3_by_hand(self):
        # one-edge forests: two choices, components {2,1}, product 2 each
        assert forest_sum_oracle(fam("path", 3))[2] == 4

    def test_empty_forest_term(self):
        for g in (fam("cycle", 5), fam("star", 4)):
            assert forest_sum_oracle(g)[g.n] == 1

    def test_agrees_with_charpoly(self):
        for g in (fam("wheel", 5), fam("complete", 5), fam("complete_bipartite", 2, 3)):
            assert forest_sum_oracle(g) == laplacian_coefficients(g)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            forest_sum_oracle(fam("complete", 8))  # 28 edges


class TestMatchings:
    def test_p4_by_hand(self):
        assert matching_counts(fam("path", 4)) == [1, 3, 1]

    def test_empty_matching_always_counted(self):
        for g in (empty_graph(3), fam("cycle", 6), fam("star", 5)):
            assert matching_counts(g)[0] == 1

    def test_path_binomial_identity(self):
        for n in range(1, 21):
            got = matching_counts(fam("path", n))
            for k, value in enumerate(got):
                assert value == (math.comb(n - k, k) if n - k >= k else 0)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            matching_counts(fam("complete", 13))  # 78 edges


class TestSpanningTrees:
    def test_cayley(self):
        for n in range(2, 8):
            assert spanning_tree_count(fam("complete", n)) == n ** (n - 2)

    def test_trees_have_one(self):
        for seed in range(5):
            assert spanning_tree_count(random_tree(9, seed)) == 1

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(fam("matching_union", 2)) == 0

    def test_single_vertex(self):
        assert spanning_tree_count(empty_graph(1)) == 1


class TestClosedForms:
    def test_complete_k3_term(self):
        assert closed_form_coefficients("complete", 3)[1] == 9

    def test_cycle_4(self):
        # spectrum {0, 2, 2, 4}: x(x+2)^2(x+4)
        assert closed_form_coefficients("cycle", 4) == [0, 16, 20, 8, 1]

    def test_path_3_matches_star(self):
        assert closed_form_coefficients("path", 3) == [0, 3, 4, 1]
        assert closed_form_coefficients("star", 3) == [0, 3, 4, 1]

    @pytest.mark.parametrize(
        "family,params",
        [
            ("complete", (1,)),
            ("complete", (7,)),
            ("star", (1,)),
            ("star", (2,)),
            ("star", (9,)),
            ("path", (1,)),
            ("path", (8,)),
            ("cycle", (3,)),
            ("cycle", (11,)),
            ("matching_union", (1,)),
            ("matching_union", (5,)),
            ("complete_bipartite", (1, 1)),
            ("complete_bipartite", (2, 3)),
            ("complete_bipartite", (4, 4)),
        ],
    )
    def test_matches_exact_pipeline(self, family, params):
        want = laplacian_coefficients(make_family(FamilySpec(family, params)))
        assert closed_form_coefficients(family, *params) == want

    def test_unknown_family(self):
        with pytest.raises(InputError):
            closed_form_coefficients("wheel", 4)

    def test_eigenvalue_expansion(self):
        assert coefficients_from_eigenvalues([0, 3, 3]) == [0, 9, 6, 1]


class TestWiener:
    def test_p3(self):
        assert wiener_index(fam("path", 3)) == 4

    def test_complete(self):
        for n in (2, 5, 9):
            assert wiener_index(fam("complete", n)) == n * (n - 1) // 2

    def test_star(self):
        for n in (2, 4, 8):
            assert wiener_index(fam("star", n)) == (n - 1) ** 2

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            wiener_index(fam("matching_union", 2))

    def test_tree_coefficient_identity(self):
        for seed in range(8):
            t = random_tree(8, seed)
            assert laplacian_coefficients(t)[2] == wiener_index(t)


class TestSignless:
    def test_bipartite_agreement(self):
        for g in (fam("path", 6), fam("cycle", 8), fam("complete_bipartite", 3, 4),
                  fam("hypercube", 3), subdivision(fam("complete", 4))):
            assert signless_coefficients(g) == laplacian_coefficients(g)

    def test_odd_cycle_differs(self):
        g = fam("cycle", 5)
        # Q(C5) is nonsingular, so the constant term is nonzero
        q = signless_coefficients(g)
        assert q != laplacian_coefficients(g)
        assert q[0] > 0

    def test_k3_constant_term(self):
        # det(Q(K3)) = det(A + 2I at degrees 2...) = product of eigenvalues {4,1,1}
        assert signless_coefficients(fam("complete", 3))[0] == 4


class TestTreeSubdivisionIdentity:
    def test_k2_case(self):
        t = fam("complete", 2)
        c = laplacian_coefficients(t)
        m = matching_counts(subdivision(t))
        assert c == [0, 2, 1] and list(m) == [1, 2]
        for k in range(3):
            want = m[2 - k] if 2 - k < len(m) else 0
            assert c[k] == want

    def test_random_trees(self):
        for n in (4, 6, 9):
            for seed in range(6):
                t = random_tree(n, seed)
                c = laplacian_coefficients(t)
                m = matching_counts(subdivision(t))
                for k in range(n + 1):
                    want = m[n - k] if n - k < len(m) else 0
                    assert c[k] == want


def test_coefficient_vector_edges_identity_on_arbitrary_input():
    g = graph_from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    c = laplacian_coefficients(g)
    assert c[5] == 1 and c[4] == 8 and c[0] == 0 and c[1] == 0 and c[2] > 0
