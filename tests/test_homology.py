"""Smith normal form and simplicial homology on known spaces."""

import importlib
import random

import pytest

from operadkit.errors import InvariantBroken
from operadkit.homology import (
    ChainComplex,
    _sparse_factors,
    connected_components,
    homology,
)
from operadkit.quasicat import build_j, build_q, cellular_q, nerve, order_complex
from oracles import (
    bar_complex,
    determinant,
    determinantal_factors,
    euler_characteristic,
    mod2_betti,
    mod2_from_integral,
    salvetti_complex,
    snf_diagonal,
)
from reference import j_betti, q_betti, same_betti
from workloads import Q_SIZES


def columns(matrix):
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(len(matrix[0]))]


def test_snf_worked_example():
    m = [[2, 4], [6, 8]]
    assert _sparse_factors(columns(m)) == (2, 4)
    assert snf_diagonal(m) == determinantal_factors(m) == (2, 4)


def test_snf_degenerate_inputs():
    assert _sparse_factors(columns([[0, 0], [0, 0]])) == ()
    assert _sparse_factors(columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, 1, 1)
    assert len(_sparse_factors(columns([[3, 6], [2, 4], [1, 2]]))) == 1
    assert _sparse_factors(columns([[6]])) == (6,)
    assert _sparse_factors(columns([[-6]])) == (6,)


def test_snf_random_matrices():
    rng = random.Random(20240517)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        factors = _sparse_factors(columns(m))
        assert all(x > 0 for x in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == determinantal_factors(m) == snf_diagonal(m)


# Entries without a unit: an SNF that keeps a pivot rather than re-picking
# the least entry lets entries like these grow without bound.
UNIT_FREE = (0, 2, -2, 3, -3, 4, 5, 6, -6, 9, 10, 15)
M = [
    [9, 6, 4, -6, 5, -6, 4, -3, 3],
    [-2, 15, 3, 2, 5, -3, 9, -6, 4],
    [15, -6, -3, 5, 2, 2, 9, 6, -2],
    [4, -2, -6, 6, 0, 10, 2, 9, 5],
    [4, 4, 15, 4, 5, -6, 5, -6, 2],
    [2, -3, -6, 15, 10, 2, 0, 15, 15],
    [-3, 10, 5, 10, -6, -3, 15, 6, 10],
    [4, 0, -6, 4, -2, 5, 2, -6, 0],
    [3, -3, -2, 15, 3, 6, 6, -6, 2],
]


def test_snf_of_a_unit_free_matrix_stays_small():
    # determinantal_factors(M) gives these too, but its 48,619 minors are slow
    assert _sparse_factors(columns(M)) == (1, 1, 1, 1, 1, 1, 2, 2, 826261152)
    assert 2 * 2 * 826261152 == abs(determinant(M))
    assert snf_diagonal(M) == _sparse_factors(columns(M))


def test_snf_matches_determinantal_divisors_on_unit_free_matrices():
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(4, 6), rng.randint(4, 6)
        m = [[rng.choice(UNIT_FREE) for _ in range(nc)] for _ in range(nr)]
        assert _sparse_factors(columns(m)) == determinantal_factors(m), m


def circle(tag=""):
    v = [f"a{tag}", f"b{tag}"]
    e = [f"e1{tag}", f"e2{tag}"]

    def face_list(d, cell):
        if d == 0:
            return []
        return [(1, f"b{tag}"), (-1, f"a{tag}")]

    return ChainComplex.from_cells([v, e], face_list)


def test_circle_homology():
    c = circle()
    h = homology(c)
    assert h.groups == ((1, ()), (1, ()))
    assert str(h) == "H0 = Z, H1 = Z"
    assert euler_characteristic(c.cells) == 0
    assert connected_components(c) == 1


def test_two_circles():
    a = circle("x")
    b = circle("y")

    def face_list(d, cell):
        if d == 0:
            return []
        tag = cell[-1]
        return [(1, f"b{tag}"), (-1, f"a{tag}")]

    c = ChainComplex.from_cells(
        [list(a.cells[0]) + list(b.cells[0]), list(a.cells[1]) + list(b.cells[1])],
        face_list,
    )
    assert homology(c).groups == ((2, ()), (2, ()))
    assert connected_components(c) == 2


def test_torus_homology():
    # one vertex, edges a b c, two triangles both with boundary a + b - c
    def face_list(d, cell):
        if d == 0:
            return []
        if d == 1:
            return [(1, "v"), (-1, "v")]
        return [(1, "a"), (1, "b"), (-1, "c")]

    c = ChainComplex.from_cells([["v"], ["a", "b", "c"], ["U", "L"]], face_list)
    h = homology(c)
    assert h.groups == ((1, ()), (2, ()), (1, ()))
    assert euler_characteristic(c.cells) == 0


def test_projective_plane_homology():
    # two vertices, edges a b (v -> w) and c (loop at v)
    def face_list(d, cell):
        if d == 0:
            return []
        if d == 1:
            if cell == "c":
                return [(1, "v"), (-1, "v")]
            return [(1, "w"), (-1, "v")]
        if cell == "U":
            return [(-1, "a"), (1, "b"), (1, "c")]
        return [(1, "a"), (-1, "b"), (1, "c")]

    c = ChainComplex.from_cells(
        [["v", "w"], ["a", "b", "c"], ["U", "L"]], face_list
    )
    h = homology(c)
    assert h.groups == ((1, ()), (0, (2,)), (0, ()))
    assert str(h) == "H0 = Z, H1 = Z/2, H2 = 0"
    assert euler_characteristic(c.cells) == 1


def test_boundary_squared_must_vanish():
    def face_list(d, cell):
        if d == 0:
            return []
        if d == 1:
            return [(1, "b"), (-1, "a")]
        return [(1, "e")]

    with pytest.raises(InvariantBroken):
        ChainComplex.from_cells([["a", "b"], ["e"], ["t"]], face_list)


def test_missing_face_is_rejected():
    def face_list(d, cell):
        return [(1, "ghost"), (-1, "a")] if d else []

    with pytest.raises(InvariantBroken):
        ChainComplex.from_cells([["a", "b"], ["e"]], face_list)


def test_empty_complex_has_no_degrees():
    c = ChainComplex.from_cells([[]], lambda d, cell: [])
    assert c.dimension == -1
    assert homology(c).groups == ()
    assert homology(c).to_json() == {"H": []}


def test_zero_dimensional_complex():
    c = ChainComplex.from_cells([["p", "q", "r"]], lambda d, cell: [])
    assert homology(c).groups == ((3, ()),)
    assert connected_components(c) == 3


# -- the sparse engine against the dense reference and closed forms ---------


def _complex(category, n, k):
    return nerve(build_q(n, k)) if category == "Q" else order_complex(build_j(n, k))


@pytest.mark.parametrize(
    "category, n, k", [("Q", 3, 2), ("Q", 2, 3), ("J", 2, 3), ("J", 4, 2)]
)
def test_sparse_factors_match_snf_of_dense_boundaries(category, n, k):
    cx = _complex(category, n, k)
    for d in range(1, cx.dimension + 1):
        dense = [[0] * cx.size(d) for _ in range(cx.size(d - 1))]
        for j, col in enumerate(cx.boundaries[d]):
            for r, v in col.items():
                dense[r][j] = v
        assert _sparse_factors(cx.boundaries[d]) == snf_diagonal(dense)


def test_sparse_factors_match_snf_on_random_sparse_matrices(monkeypatch):
    homology_module = importlib.import_module("operadkit.homology")
    residues = []
    residue_factors = homology_module._residue_factors

    def recording_residue_factors(cols, rows):
        if cols:
            residues.append(len(cols))
        return residue_factors(cols, rows)

    monkeypatch.setattr(homology_module, "_residue_factors", recording_residue_factors)
    rng = random.Random(20261018)
    for _ in range(60):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        m = [
            [rng.choice((1, -1, 1, -1, 2, -2, 3, -3)) if rng.random() < 0.3 else 0
             for _ in range(nc)]
            for _ in range(nr)
        ]
        assert _sparse_factors(columns(m)) == snf_diagonal(m)
    assert len(residues) >= 10  # planted non-units leave a residue


@pytest.mark.parametrize(
    "n, k", [(n, 2) for n in range(1, 7)] + [(2, 3), (3, 3), (2, 4)]
)
def test_milgram_poset_homology_is_cohen_polynomial(n, k):
    groups = homology(_complex("J", n, k)).groups
    assert all(not torsion for _, torsion in groups)
    assert same_betti([rank for rank, _ in groups], j_betti(n, k))


@pytest.mark.parametrize("n, k", Q_SIZES["full"])
def test_quasibijection_nerve_has_unordered_configuration_betti(n, k):
    groups = homology(_complex("Q", n, k)).groups
    assert same_betti([rank for rank, _ in groups], q_betti(n, k))
    assert mod2_from_integral(groups) == mod2_betti(n, k)


def test_quasibijection_nerve_torsion_is_frozen():
    assert homology(_complex("Q", 3, 3)).groups == (
        (1, ()), (0, (2,)), (0, ()), (0, (3,)), (0, ())
    )
    # H_2(Br_4; Z) = Z/2
    assert homology(_complex("Q", 2, 4)).groups == (
        (1, ()), (1, ()), (0, (2,)), (0, ())
    )


# -- Milgram's cells for Q_n(k) against closed forms ---------------------------


@pytest.mark.parametrize("k", range(2, 10))
def test_cellular_q2_is_the_salvetti_complex_of_the_braid_group(k):
    # Q_2(k) is a K(B_k, 1); odd torsion starts with Z/3 in H_4 at k = 6
    salvetti = homology(ChainComplex.from_cells(*salvetti_complex(k)))
    assert homology(cellular_q(2, k)) == salvetti
    odd = [t for _, torsion in salvetti.groups for t in torsion if t % 3 == 0]
    assert bool(odd) == (k >= 6)
    assert k != 6 or salvetti.groups[4] == (0, (3,))


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(1, 7) for k in range(2, 11)
     if n ** (k - 1) <= 3000 and (n - 1) * (k - 1) <= 16],
)
def test_cellular_q_has_unordered_configuration_betti_and_mod2_homology(n, k):
    groups = homology(cellular_q(n, k)).groups
    assert len(groups) == (n - 1) * (k - 1) + 1
    assert same_betti([rank for rank, _ in groups], q_betti(n, k))
    assert mod2_from_integral(groups) == mod2_betti(n, k)


@pytest.mark.parametrize(
    "n, k, groups",
    [(7, 3, ((1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ()), (0, (2,)))),
     (4, 4, ((1, ()), (0, (2,)), (0, (2,))))],
    ids=["Q(7,3) through H5", "Q(4,4) through H2"],
)
def test_cellular_q_has_the_homology_of_the_symmetric_group_in_the_stable_range(
    n, k, groups
):
    # Conf_k(R^n) is (n - 2)-connected (Fadell & Neuwirth 1962), so
    # H_i(Q_n(k)) = H_i(S_k) for i < n - 1; the bar complex of S_k sees the
    # Z/3 inside H_3(S_3) = Z/6, which the mod-2 oracle cannot
    assert len(groups) == n - 1
    bar = homology(ChainComplex.from_cells(*bar_complex(k, n - 1))).groups
    assert bar[: n - 1] == groups
    assert homology(cellular_q(n, k)).groups[: n - 1] == groups


@pytest.mark.parametrize(
    "n, k, groups",
    [(5, 3, ((1, ()), (0, (2,)), (0, ()), (0, (6,)), (0, ()), (0, ()), (0, ()), (0, (3,)),
             (0, ()))),
     (3, 7, ((1, ()), (0, (2,)), (0, (2,)), (0, (2, 12)), (0, (2,)), (0, (2, 2)), (0, (2,)),
             (0, (30,)), (0, ()), (0, ()), (0, ()), (0, (7,)), (0, ()))),
     (2, 11, ((1, ()), (1, ()), (0, (2,)), (0, (2,)), (0, (6,)), (0, (6,)), (0, (2,)),
              (0, (2,)), (0, (5,)), (0, ()), (0, ())))],
    ids=["Q(5,3)", "Q(3,7)", "Q(2,11)"],
)
def test_cellular_q_torsion_is_frozen(n, k, groups):
    # the nerve of Q(5,3) took 525 s to give its value.  Q(3,7) and Q(2,11)
    # came out the same from the closed-form signs and from the diamond
    # walk's; the mod-2 and Betti oracles above are blind to odd torsion
    # and do not tell Z/2 from Z/4
    assert homology(cellular_q(n, k)).groups == groups
