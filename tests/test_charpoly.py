"""The multi-modular charpoly against independent oracles: the Python-integer
Faddeev-LeVerrier recurrence it replaced, sympy, networkx, and the invariants
of its prime table and work guard."""

import random
import tracemalloc

import pytest

from lapstats import cli, exact
from lapstats.corpus import corpus_graphs, corpus_trees
from lapstats.errors import GuardExceeded
from lapstats.exact import (
    CHARPOLY_PRIMES,
    MAX_CHARPOLY_SCALE,
    MAX_CHARPOLY_WORK,
    MAX_DENSE_VERTICES,
    laplacian_coefficients,
    laplacian_coefficients_many,
    laplacian_matrix,
)
from lapstats.families import FamilySpec, make_family


def faddeev_leverrier(matrix):
    """det(xI - M) ascending, by the Faddeev-LeVerrier recurrence over Python
    integers; O(n^4), every division asserted exact. The small-n oracle."""
    n = len(matrix)
    coeffs = [0] * n + [1]
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*aux))
        prod = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in matrix]
        q, r = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert r == 0, f"inexact division at step {k}"
        coeffs[n - k] = q
        for i in range(n):
            prod[i][i] += q
        aux = prod
    return coeffs


def _sympy_charpoly(matrix):
    sympy = pytest.importorskip("sympy")
    return [int(c) for c in reversed(sympy.Matrix(matrix).charpoly().all_coeffs())]


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (the first 13 prime bases)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_corpus_matches_python_integer_oracle(kernel):
    for label, g in corpus_graphs():
        for signless in (False, True):
            m = laplacian_matrix(g, signless)
            assert kernel(m) == faddeev_leverrier(m.astype(int).tolist()), (
                label, signless)


def _unsigned_oracle(matrix):
    """(-1)^(n-k) times the Python-integer charpoly: the unsigned coefficients."""
    poly = faddeev_leverrier(matrix.astype(int).tolist())
    n = len(poly) - 1
    return [c if (n - k) % 2 == 0 else -c for k, c in enumerate(poly)]


@pytest.mark.parametrize("signless", [
    pytest.param(False, id="laplacian_coefficients_many-laplacian_matrix"),
    pytest.param(True, id="signless_coefficients_many-signless_laplacian_matrix"),
])
def test_stacked_route_matches_oracle_in_input_order(signless):
    # the corpus and the trees of orders 10..12, shuffled so that each order's
    # members are scattered through one call with mixed n
    graphs = [g for _, g in corpus_graphs()]
    graphs += [t for _, t in corpus_trees(max_n=12) if t.n >= 10]
    random.Random(3).shuffle(graphs)
    assert {g.n for g in graphs} == set(range(1, 13))
    got = laplacian_coefficients_many(graphs, signless)
    assert len(got) == len(graphs)
    for g, coeffs in zip(graphs, got):
        assert coeffs == _unsigned_oracle(laplacian_matrix(g, signless))


def _fam(family, *size):
    return make_family(FamilySpec(family, size))


def test_stack_takes_primes_for_its_largest_edge_count():
    # alone, the path needs one prime and K_16 two, since sum c = 17^15 is
    # past the first prime; in one stack, path first, both are exact
    assert len(exact.charpoly_guard(16, 15)) == 1
    assert len(exact.charpoly_guard(16, 120)) == 2
    assert 17 ** 15 > CHARPOLY_PRIMES[0]
    graphs = [_fam("path", 16), _fam("complete", 16), _fam("path", 16)]
    got = laplacian_coefficients_many(graphs)
    assert got == [_unsigned_oracle(laplacian_matrix(g)) for g in graphs]
    assert got[1] == laplacian_coefficients(graphs[1])


def _count_primes(monkeypatch):
    """Record the primes of each ``_faddeev_leverrier`` call by order."""
    seen = []
    real = exact._faddeev_leverrier

    def counted(a, primes):
        seen.append((a.shape[1], primes))
        return real(a, primes)

    monkeypatch.setattr(exact, "_faddeev_leverrier", counted)
    return seen


def test_laplacian_stacks_take_primes_from_the_am_gm_bound(monkeypatch, kernel):
    # 4-regular: the trace's (1 + 4)^n against the row sums' (1 + 8)^n
    assert len(exact.charpoly_guard(128, 256)) == 7
    assert len(exact._moduli(128, 9 ** 128)) == 10
    seen = _count_primes(monkeypatch)
    g = make_family(FamilySpec("random_regular", (64, 4), 11))
    got = laplacian_coefficients(g)
    assert [len(primes) for _, primes in seen] == [4] and len(exact._moduli(64, 9 ** 64)) == 5
    # the kernel on all five primes of the row-sum bound agrees
    assert got == [abs(c) for c in kernel(laplacian_matrix(g))]


def test_kernel_takes_the_guards_primes_for_every_corpus_order(monkeypatch):
    graphs = [g for _, g in corpus_graphs()]
    largest = {}
    for g in graphs:
        largest[g.n] = max(largest.get(g.n, 0), g.edge_count)
    seen = _count_primes(monkeypatch)
    laplacian_coefficients_many(graphs)
    assert seen == [(n, exact.charpoly_guard(n, edges)) for n, edges in largest.items()]


def test_spectral_bound_covers_every_corpus_vector():
    assert exact._spectral_bound(3, 1) == 3  # ceil(64 / 27)
    assert exact._spectral_bound(0, 0) == 1
    graphs = [g for _, g in corpus_graphs()]
    for g, coeffs in zip(graphs, laplacian_coefficients_many(graphs)):
        assert sum(coeffs) <= exact._spectral_bound(g.n, 2 * g.edge_count)


def test_stack_split_by_entry_budget(monkeypatch):
    graphs = [g for _, g in corpus_graphs()]
    want = laplacian_coefficients_many(graphs)
    # 12-vertex members, 144 entries a prime, go one by one; 5-vertex ones in
    # stacks of up to eight
    monkeypatch.setattr(exact, "MAX_STACK_ENTRIES", 200)
    assert laplacian_coefficients_many(graphs) == want


def test_stack_certificate_catches_a_modulus_too_small(monkeypatch):
    monkeypatch.setattr(exact, "_moduli", lambda n, bound: (7,))
    with pytest.raises(ArithmeticError, match="matrix"):
        laplacian_coefficients_many([_fam("path", 5), _fam("complete", 5)])


def test_stack_guards_every_graph_before_any_matrix(monkeypatch):
    def refuse(g):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(exact, "laplacian_matrix", refuse)
    graphs = [_fam("path", 5), _fam("path", MAX_CHARPOLY_SCALE + 1), _fam("star", 4)]
    with pytest.raises(GuardExceeded):
        laplacian_coefficients_many(graphs)


def test_random_integer_matrices_match_oracle(kernel):
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(0, 9)
        m = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]
        assert kernel(m) == faddeev_leverrier(m)


@pytest.mark.parametrize("n, d", [(64, 4), (96, 3), (128, 4)])
def test_regular_graphs_match_sympy(n, d):
    g = make_family(FamilySpec("random_regular", (n, d), 11))
    m = laplacian_matrix(g)
    assert laplacian_coefficients(g) == [abs(c) for c in _sympy_charpoly(m.astype(int).tolist())]


def test_general_integer_matrix_matches_sympy(kernel):
    # non-symmetric, negative entries, row sums far above 2 * max degree
    rng = random.Random(8)
    m = [[rng.randint(-40, 40) for _ in range(12)] for _ in range(12)]
    r = max(sum(map(abs, row)) for row in m)
    assert r > 100
    assert kernel(m) == _sympy_charpoly(m)


def test_spanning_trees_match_networkx():
    nx = pytest.importorskip("networkx")
    for spec in (FamilySpec("random_regular", (40, 3), 2), FamilySpec("random_tree", (30,), 4),
                 FamilySpec("random_regular", (24, 5), 1)):
        g = make_family(spec)
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        c1, rest = divmod(laplacian_coefficients(g)[1], g.n)
        assert rest == 0
        assert nx.number_of_spanning_trees(ng) == pytest.approx(c1, rel=1e-9)


def test_prime_table_invariants():
    assert len(set(CHARPOLY_PRIMES)) == len(CHARPOLY_PRIMES)
    largest_n = max(n for n in range(1, 1000) if n ** 4 <= MAX_CHARPOLY_WORK)
    for p in CHARPOLY_PRIMES:
        assert _is_prime(p)
        assert p > largest_n
        assert p * max(MAX_CHARPOLY_SCALE, largest_n) < 2 ** 53


def test_table_covers_every_admitted_size():
    # (1 + R)^n at the largest admitted row sum needs the most primes, and
    # bounds every Laplacian's AM-GM bound too; the work guard must refuse
    # before the table runs out
    for n in range(0, 300):
        try:
            primes = exact._moduli(n, (1 + MAX_CHARPOLY_SCALE) ** n)
        except GuardExceeded:
            continue
        assert len(primes) * n ** 4 <= MAX_CHARPOLY_WORK


def test_guard_admits_128_vertex_4_regular():
    primes = exact.charpoly_guard(128, 256)
    assert len(primes) == 7 and len(primes) * 128 ** 4 <= MAX_CHARPOLY_WORK


def test_certificate_catches_a_modulus_too_small(monkeypatch, kernel):
    monkeypatch.setattr(exact, "_moduli", lambda n, bound: (7,))
    with pytest.raises(ArithmeticError):
        kernel([[5, 1, 0], [1, 4, 1], [0, 1, 3]])


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def test_coeffs_on_500_vertex_path_exits_3_before_any_matrix(capsys, monkeypatch, tmp_path):
    def refuse(g):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(exact, "laplacian_matrix", refuse)
    path = tmp_path / "p500.txt"
    path.write_text("500 499\n" + "".join(f"{i} {i + 1}\n" for i in range(499)))
    code, err = _run(capsys, ["coeffs", "--edge-list", str(path)])
    assert code == 3 and err.startswith("error:")


@pytest.mark.parametrize("command", ["coeffs", "spectrum", "stats", "diagnose"])
def test_huge_edge_list_header_exits_3_before_building(capsys, no_graphs, tmp_path, command):
    path = tmp_path / "huge.txt"
    # past the vertex budget; past the edge budget, refused before the missing
    # edge lines are noticed
    for header in ("1000000000 0", "10 3000000"):
        path.write_text(header + "\n")
        code, err = _run(capsys, [command, "--edge-list", str(path)])
        assert code == 3 and err.startswith("error:"), header


@pytest.mark.parametrize("command", ["coeffs", "spectrum", "stats", "diagnose"])
def test_dense_routes_refuse_before_allocating(capsys, tmp_path, command):
    n = MAX_DENSE_VERTICES + 1
    path = tmp_path / "wide.txt"
    # one edge, as diagnose refuses an edgeless graph before any guard
    path.write_text(f"{n} 1\n0 1\n")
    tracemalloc.start()
    try:
        code, err = _run(capsys, [command, "--edge-list", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("error:")
    # one n x n float matrix would take 8 n^2 bytes, 134 MB
    assert peak < 8 * n * n // 64
