import itertools
import math
import random
import tracemalloc

import pytest

from lapstats import exact
from lapstats.corpus import corpus_graphs
from lapstats.errors import GuardExceeded, InputError
from lapstats.exact import (
    FOREST_STATE_GUARD,
    charpoly_guard,
    coefficients_from_eigenvalues,
    forest_sum_oracle,
    laplacian_coefficients,
    laplacian_matrix,
    matching_counts,
    spanning_tree_count,
    wiener_index,
)
from lapstats.families import FamilySpec, closed_form_coefficients, make_family
from lapstats.graphs import Graph, subdivision
from lapstats.spectra import numeric_spectra


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
        assert laplacian_matrix(fam("complete", 2), signless=True).tolist() == [[1, 1], [1, 1]]

    def test_empty_graph_is_zero_matrix(self):
        assert laplacian_matrix(Graph(3)).tolist() == [[0] * 3 for _ in range(3)]

    def test_laplacian_rows_sum_to_zero(self):
        for row in laplacian_matrix(fam("wheel", 6)).tolist():
            assert sum(row) == 0

    @pytest.mark.parametrize("signless, sign", [
        pytest.param(False, -1, id="laplacian_matrix--1"),
        pytest.param(True, 1, id="signless_laplacian_matrix-1"),
    ])
    def test_corpus_matches_list_builder(self, signless, sign, eigensolver):
        for label, g in corpus_graphs():
            m = laplacian_matrix(g, signless)
            want = reference_matrix(g, sign)
            assert m.dtype == float and m.tolist() == want, label
            got = numeric_spectra([g], signless)[0].values
            expected = eigensolver([want])[0].values
            assert got.tolist() == expected.tolist(), label

    def test_spectrum_of_built_matrix_peaks_near_one_matrix(self):
        n = 1024
        g = fam("path", n)
        tracemalloc.start()
        try:
            numeric_spectra([g])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix itself is 8 n^2 bytes; a second full copy would double it
        assert peak < 1.5 * 8 * n * n


class TestCharpoly:
    def test_two_by_two_by_hand(self, kernel):
        # det(xI - [[1,-1],[-1,1]]) = (x-1)^2 - 1 = x^2 - 2x
        assert kernel([[1, -1], [-1, 1]]) == [0, -2, 1]

    def test_zero_matrix(self, kernel):
        assert kernel([[0] * 4 for _ in range(4)]) == [0, 0, 0, 0, 1]

    def test_identity(self, kernel):
        assert kernel([[1, 0], [0, 1]]) == [1, -2, 1]


class TestCoefficients:
    def test_k3(self):
        # x(x-3)^2 expanded, unsigned
        assert laplacian_coefficients(fam("complete", 3)) == [0, 9, 6, 1]

    def test_p3(self):
        assert laplacian_coefficients(fam("path", 3)) == [0, 3, 4, 1]

    def test_empty(self):
        assert laplacian_coefficients(Graph(4)) == [0, 0, 0, 0, 1]

    def test_edge_and_leading_identities(self):
        for g in (fam("wheel", 7), fam("hypercube", 3), fam("complete_bipartite", 3, 4)):
            c = laplacian_coefficients(g)
            assert c[g.n] == 1
            assert c[g.n - 1] == 2 * g.edge_count

    def test_zero_pattern_tracks_components(self):
        g = fam("matching_union", 3)
        c = laplacian_coefficients(g)
        assert c[:3] == [0, 0, 0] and c[3] > 0


def _components(n, edges):
    """Union-find roots after adding ``edges``, or None if one closes a cycle."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[rv] = ru
    return [find(x) for x in range(n)]


def brute_forest_sum(g):
    """c[k] by every edge subset: acyclic ones with n - k edges add the
    product of their component orders."""
    c = [0] * (g.n + 1)
    edges = sorted(g.edges)
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            roots = _components(g.n, subset)
            if roots is not None:
                c[g.n - r] += math.prod(roots.count(x) for x in set(roots))
    return c


def brute_matching_counts(g):
    """k-matchings by every edge subset of size k with disjoint edges."""
    edges = sorted(g.edges)
    return [sum(1 for subset in itertools.combinations(edges, k)
                if len({v for e in subset for v in e}) == 2 * k)
            for k in range(g.n // 2 + 1)]


def seeded_graphs(count, max_n, max_edges):
    """Seeded random graphs on up to ``max_n`` vertices and ``max_edges``
    edges, so isolated vertices and several components occur."""
    rng = random.Random(17)
    out = [Graph(0), Graph(3),
           Graph(7, [(0, 1), (1, 2), (4, 5)]),
           Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (4, 7)])]
    while len(out) < count:
        n = rng.randint(1, max_n)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, max_edges)))
        out.append(Graph(n, edges))
    return out


class TestOraclesAgainstBruteForce:
    @pytest.mark.parametrize("g", seeded_graphs(40, 8, 12), ids=lambda g: f"n{g.n}-m{g.edge_count}")
    def test_forest_sum(self, g):
        assert forest_sum_oracle(g) == brute_forest_sum(g)

    @pytest.mark.parametrize("g", seeded_graphs(40, 8, 14), ids=lambda g: f"n{g.n}-m{g.edge_count}")
    def test_matching_counts(self, g):
        assert matching_counts(g) == brute_matching_counts(g)

    def test_isolated_vertices_beyond_a_byte(self):
        # each isolated vertex multiplies the polynomial by x; vertices that
        # touch no edge never enter a partition, so labels past 255 are fine
        g = Graph(600, [(0, 599), (599, 300), (3, 4)])
        compact = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert forest_sum_oracle(g) == [0] * 595 + brute_forest_sum(compact)
        assert matching_counts(g) == brute_matching_counts(compact) + [0] * 298


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
        # the partition guard alone bounds the DP, so a dense graph on at most
        # 9 vertices is served whatever its edge count (K9 has 36 edges)
        for family, size in (("complete", (8,)), ("complete", (9,)),
                             ("complete_bipartite", (4, 5))):
            assert forest_sum_oracle(fam(family, *size)) == closed_form_coefficients(family, *size)
        # 34 touched vertices and 2^17 edge subsets
        with pytest.raises(GuardExceeded, match="partition guard"):
            forest_sum_oracle(fam("matching_union", 17))

    def test_partition_guard_boundary(self):
        # path 17 has 2^16 edge subsets, at the partition guard; path 18 has
        # twice that on 18 vertices, Bell(18) partitions, and is refused
        assert forest_sum_oracle(fam("path", 17)) == closed_form_coefficients("path", 17)
        assert FOREST_STATE_GUARD == 1 << 16
        with pytest.raises(GuardExceeded, match="partition guard"):
            forest_sum_oracle(fam("path", 18))

    def test_partition_guard_refuses_before_work(self):
        # the DP on path 18 would hold 2^17 partitions, tens of MB
        dense10 = Graph(10, list(itertools.combinations(range(10), 2))[:24])
        cases = (fam("path", 18), fam("path", 25), fam("matching_union", 17), dense10)
        for g in cases:  # Bell(10) = 115975
            tracemalloc.start()
            try:
                with pytest.raises(GuardExceeded, match="partition guard"):
                    forest_sum_oracle(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16

    def test_partition_guard_stops_its_bell_triangle(self):
        # the triangle stops at Bell(10), past the guard; the full one on
        # 20000 rows would take hours
        with pytest.raises(GuardExceeded, match="partition guard"):
            forest_sum_oracle(fam("path", 20000))


class TestMatchings:
    def test_p4_by_hand(self):
        assert matching_counts(fam("path", 4)) == [1, 3, 1]

    def test_empty_matching_always_counted(self):
        for g in (Graph(3), fam("cycle", 6), fam("star", 5)):
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
            assert spanning_tree_count(make_family(FamilySpec("random_tree", (9,), seed))) == 1

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(fam("matching_union", 2)) == 0

    def test_single_vertex(self):
        assert spanning_tree_count(Graph(1)) == 1

    def test_no_laplacian_matrix_is_built(self, monkeypatch):
        # the minor comes from the degrees and the edges, not the charpoly's matrix
        def refuse(g, signless=False):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(exact, "laplacian_matrix", refuse)
        assert spanning_tree_count(fam("wheel", 5)) == 121
        assert spanning_tree_count(fam("complete_bipartite", 2, 3)) == 12

    @pytest.mark.parametrize("g", [
        Graph(4, [(0, 2), (2, 3)]),  # vertex 1 isolated: the first pivot is 0
        Graph(4, [(1, 2), (2, 3), (1, 3)]),  # vertex 0 isolated: the last pivot is 0
        # components {0, 2, 4, 5} and {1, 3}: the third pivot is 0, rows below it
        Graph(6, [(0, 2), (2, 4), (4, 5), (1, 3)]),
    ], ids=["vertex-1-isolated", "vertex-0-isolated", "interleaved-components"])
    def test_zero_pivot_is_zero(self, g):
        assert spanning_tree_count(g) == 0

    def test_matches_the_forest_oracle(self):
        # c(G, 1) = n tau(G) by the forest expansion, which shares no code
        # with the elimination; disconnected and edgeless graphs included
        rng = random.Random(35)
        for _ in range(150):
            n = rng.randint(1, 9)
            p = rng.random()
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            assert g.n * spanning_tree_count(g) == forest_sum_oracle(g)[1]


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
            ("wheel", (3,)),
            ("wheel", (4,)),
            ("wheel", (11,)),
        ],
    )
    def test_matches_exact_pipeline(self, family, params):
        want = laplacian_coefficients(make_family(FamilySpec(family, params)))
        assert closed_form_coefficients(family, *params) == want

    # the largest member the exact charpoly guard admits of each family with a
    # formula (the complete bipartite graph balanced): coeffs --family takes
    # the formula where it used to take the charpoly, and the next size up is
    # refused by the guard
    @pytest.mark.parametrize("family, size, larger", [
        ("path", (163,), (164,)),
        ("cycle", (163,), (164,)),
        ("star", (163,), (164,)),
        ("complete", (121,), (122,)),
        ("complete_bipartite", (62, 62), (63, 63)),
        ("hypercube", (7,), (8,)),
        ("matching_union", (87,), (88,)),
        ("wheel", (150,), (151,)),
    ])
    def test_formula_equals_charpoly_at_the_guard(self, family, size, larger):
        want = laplacian_coefficients(make_family(FamilySpec(family, size)))
        assert closed_form_coefficients(family, *size) == want
        spec = FamilySpec(family, larger)
        with pytest.raises(GuardExceeded, match="charpoly guard"):
            charpoly_guard(spec.n, spec.edge_count)

    def test_unknown_family(self):
        with pytest.raises(InputError,
                           match="^no closed-form coefficients for family 'random_tree'$"):
            closed_form_coefficients("random_tree", 4)

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
            t = make_family(FamilySpec("random_tree", (8,), seed))
            assert laplacian_coefficients(t)[2] == wiener_index(t)


class TestSignless:
    def test_bipartite_agreement(self):
        for g in (fam("path", 6), fam("cycle", 8), fam("complete_bipartite", 3, 4),
                  fam("hypercube", 3), subdivision(fam("complete", 4))):
            assert laplacian_coefficients(g, signless=True) == laplacian_coefficients(g)

    def test_odd_cycle_differs(self):
        g = fam("cycle", 5)
        # Q(C5) is nonsingular, so the constant term is nonzero
        q = laplacian_coefficients(g, signless=True)
        assert q != laplacian_coefficients(g)
        assert q[0] > 0

    def test_k3_constant_term(self):
        # det(Q(K3)) = det(A + 2I at degrees 2...) = product of eigenvalues {4,1,1}
        assert laplacian_coefficients(fam("complete", 3), signless=True)[0] == 4


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
                t = make_family(FamilySpec("random_tree", (n,), seed))
                c = laplacian_coefficients(t)
                m = matching_counts(subdivision(t))
                for k in range(n + 1):
                    want = m[n - k] if n - k < len(m) else 0
                    assert c[k] == want


def test_coefficient_vector_edges_identity_on_arbitrary_input():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    c = laplacian_coefficients(g)
    assert c[5] == 1 and c[4] == 8 and c[0] == 0 and c[1] == 0 and c[2] > 0
