import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lapstats
from lapstats.errors import InputError
from lapstats.exact import laplacian_coefficients
from lapstats.families import FamilySpec, make_family
from lapstats.graphs import (
    cartesian_product,
    component_count,
    Graph,
    cone,
    is_bipartite,
    join,
    parse_edge_list,
    subdivision,
)


def fam(name, *size, seed=None):
    return make_family(FamilySpec(name, tuple(size), seed))


class TestEdgeListConstruction:
    def test_path_from_pairs(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.edge_count == 2

    def test_duplicates_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_out_of_range_reports_pair(self):
        with pytest.raises(InputError, match=r"\(0, 2\)"):
            Graph(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            Graph(3, [(1, 1)])

    # a float endpoint used to be truncated by the matrix builder, (0.5, 1)
    # counting as (0, 1); the others ended in builtin tracebacks, or later
    @pytest.mark.parametrize("n, edges", [
        (3, [(0.5, 1)]),
        (3, [(0, 1, 2)]),
        (3, [("0", 1)]),
        (3, [(0,)]),
        (2.5, []),
        ("3", [(0, 1)]),
        (3, [5]),
    ], ids=["float-endpoint", "triple", "text-endpoint", "single", "float-n", "text-n",
            "not-a-pair"])
    def test_non_integer_vertices_are_an_input_error(self, n, edges):
        with pytest.raises(InputError):
            Graph(n, edges)

    def test_numpy_integer_vertices_are_accepted(self):
        g = Graph(np.int64(3), frozenset({(np.int32(1), np.int64(0)), (np.uint8(1), np.intp(2))}))
        assert g == Graph(3, [(0, 1), (1, 2)])
        assert laplacian_coefficients(g) == [0, 3, 4, 1]


class TestFamilies:
    @pytest.mark.parametrize(
        "name,size,vertices,edges",
        [
            ("path", (5,), 5, 4),
            ("cycle", (5,), 5, 5),
            ("star", (4,), 4, 3),
            ("complete", (6,), 6, 15),
            ("complete_bipartite", (2, 3), 5, 6),
            ("hypercube", (3,), 8, 12),
            ("matching_union", (2,), 4, 2),
            ("wheel", (5,), 6, 10),
            ("complete_binary_tree", (2,), 7, 6),
        ],
    )
    def test_sizes(self, name, size, vertices, edges):
        g = make_family(FamilySpec(name, size))
        assert (g.n, g.edge_count) == (vertices, edges)

    def test_star_degrees(self):
        assert sorted(fam("star", 4).degrees()) == [1, 1, 1, 3]
        assert fam("star", 9).max_degree == 8

    def test_matching_union_components(self):
        g = fam("matching_union", 2)
        assert component_count(g) == 2
        assert sorted(g.degrees()) == [1, 1, 1, 1]

    def test_hypercube_regular(self):
        for d in range(5):
            g = fam("hypercube", d)
            assert g.n == 2 ** d
            assert g.degrees() == [d] * g.n

    def test_cycle_minimum(self):
        with pytest.raises(InputError):
            fam("cycle", 2)

    def test_seed_rules(self):
        with pytest.raises(InputError):
            FamilySpec("path", (3,), seed=1)
        with pytest.raises(InputError):
            FamilySpec("random_tree", (3,))

    def test_bipartiteness(self):
        assert not is_bipartite(fam("cycle", 5))
        assert is_bipartite(fam("cycle", 6))
        assert is_bipartite(fam("hypercube", 4))


class TestCombinators:
    def test_join_of_singletons_is_k2(self):
        assert join(Graph(1), Graph(1)).edges == fam("complete", 2).edges

    def test_join_shifts_the_second_graphs_edges(self):
        assert join(fam("complete", 2), fam("complete", 2)).edges == fam("complete", 4).edges
        g = join(fam("path", 3), fam("complete", 2))
        assert g.edges == {(0, 1), (1, 2), (3, 4)} | {(u, v) for u in range(3) for v in (3, 4)}

    def test_cone_over_triangle_is_k4(self):
        g = cone(fam("cycle", 3))
        assert g.edge_count == 6 and g.n == 4

    def test_join_of_empties_is_bipartite(self):
        g = join(Graph(2), Graph(3))
        assert g.edges == fam("complete_bipartite", 2, 3).edges

    def test_cone_equals_join_with_k1(self):
        g = fam("path", 4)
        assert cone(g).edges == join(g, Graph(1)).edges

    def test_cone_apex_degree(self):
        g = fam("cycle", 7)
        assert cone(g).degrees()[g.n] == g.n

    def test_cone_over_empty_is_star(self):
        g = cone(Graph(4))
        assert sorted(g.degrees()) == sorted(fam("star", 5).degrees())

    def test_subdivision_of_path(self):
        g = subdivision(fam("path", 3))
        assert g.edge_count == fam("path", 5).edge_count
        assert g.edge_count == g.n - 1 and component_count(g) == 1

    def test_subdivision_of_k2_is_p3(self):
        g = subdivision(fam("complete", 2))
        assert g.n == 3 and g.edge_count == 2 and component_count(g) == 1

    def test_subdivision_of_cycle(self):
        g = subdivision(fam("cycle", 5))
        assert g.n == 10 and g.edge_count == 10
        assert g.degrees() == [2] * 10 and component_count(g) == 1

    def test_product_of_k2s_is_4cycle(self):
        g = cartesian_product(fam("complete", 2), fam("complete", 2))
        assert g.n == 4 and g.edge_count == 4
        assert g.degrees() == [2] * 4 and component_count(g) == 1

    def test_product_with_k2_builds_hypercube(self):
        for d in (1, 2, 3, 4):
            got = cartesian_product(fam("complete", 2), fam("hypercube", d - 1))
            assert got.edges == fam("hypercube", d).edges


class TestRandomGenerators:
    def test_regular_on_four_vertices_is_k4(self):
        for seed in (0, 1, 99):
            assert fam("random_regular", 4, 3, seed=seed).edges == fam("complete", 4).edges

    def test_regular_degrees(self):
        g = fam("random_regular", 6, 2, seed=1)
        assert g.degrees() == [2] * 6

    def test_regular_odd_sum_rejected(self):
        with pytest.raises(InputError, match="odd"):
            fam("random_regular", 5, 3, seed=0)

    def test_regular_reproducible(self):
        assert fam("random_regular", 10, 3, seed=7).edges == fam("random_regular", 10, 3, seed=7).edges
        assert fam("random_regular", 10, 3, seed=7).edges != fam("random_regular", 10, 3, seed=8).edges

    def test_tree_small_orders(self):
        assert fam("random_tree", 2, seed=5).edges == fam("complete", 2).edges
        assert fam("random_tree", 3, seed=5).edge_count == 2

    def test_tree_structure(self):
        g = fam("random_tree", 8, seed=42)
        assert g.edge_count == g.n - 1 and component_count(g) == 1

    def test_tree_reproducible(self):
        assert fam("random_tree", 12, seed=3).edges == fam("random_tree", 12, seed=3).edges
        assert fam("random_tree", 12, seed=3).edges != fam("random_tree", 12, seed=4).edges


@given(st.integers(2, 16), st.data())
def test_handshake_on_random_edge_lists(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=30,
        )
    )
    g = Graph(n, pairs)
    assert sum(g.degrees()) == 2 * g.edge_count
    assert is_bipartite(subdivision(g))


@given(st.integers(1, 8), st.integers(1, 8))
def test_join_edge_count(n1, n2):
    g1, g2 = Graph(n1), fam("path", n2)
    assert join(g1, g2).edge_count == g1.edge_count + g2.edge_count + n1 * n2


class TestEdgeListFormat:
    def test_round_trip(self):
        text = "# a comment\n3 2\n0 1\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges == fam("path", 3).edges

    def test_header_mismatch(self):
        with pytest.raises(InputError, match="declares"):
            parse_edge_list("2 2\n0 1\n")

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_edge_list("two vertices\n0 1\n")


@pytest.mark.parametrize("module, allowed", [
    ("lapstats", {"lapstats"}),
    ("lapstats.graphs", {"lapstats", "lapstats.errors", "lapstats.graphs"}),
], ids=["package", "graphs"])
def test_import_loads_no_numpy_and_no_other_module(module, allowed):
    """The package re-exports nothing, so importing it loads no submodule,
    and the graph layer runs without numpy."""
    src = str(Path(lapstats.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}, json; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('lapstats', 'numpy')))))")
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True).stdout)
    assert set(loaded) <= allowed
