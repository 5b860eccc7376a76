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
    invariant_factors,
    matrix_rank,
    smith_normal_form,
)
from operadkit.quasicat import build_j, build_q, nerve, order_complex
from oracles import mod2_betti, mod2_from_integral
from reference import j_betti, q_betti, same_betti
from workloads import Q_SIZES


def det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
    return total


def mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_worked_example():
    m = [[2, 4], [6, 8]]
    d, u, v = smith_normal_form(m)
    assert invariant_factors(m) == (2, 4)
    assert d == [[2, 0], [0, 4]]
    assert mul(mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1


def test_snf_degenerate_inputs():
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert invariant_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert matrix_rank([[3, 6], [2, 4], [1, 2]]) == 1
    assert invariant_factors([[6]]) == (6,)
    assert invariant_factors([[-6]]) == (6,)


def test_snf_random_matrices():
    rng = random.Random(20240517)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        d, u, v = smith_normal_form(m)
        assert mul(mul(u, m), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert tuple(nonzero) == invariant_factors(m)


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
    assert c.euler_characteristic() == 0
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
    assert c.euler_characteristic() == 0


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
    assert c.euler_characteristic() == 1


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


# -- the sparse engine against the dense SNF and closed forms ----------------


def _complex(category, n, k):
    return nerve(build_q(n, k)) if category == "Q" else order_complex(build_j(n, k))


def _snf_diagonal(m):
    d, _, _ = smith_normal_form(m)
    return tuple(x for x in (d[i][i] for i in range(min(len(d), len(d[0])))) if x)


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
        assert _sparse_factors(cx.boundaries[d]) == _snf_diagonal(dense)


def test_sparse_factors_match_snf_on_random_sparse_matrices(monkeypatch):
    homology_module = importlib.import_module("operadkit.homology")
    residues = []
    snf = homology_module._snf

    def recording_snf(matrix, transforms):
        if matrix:
            residues.append(len(matrix))
        return snf(matrix, transforms)

    monkeypatch.setattr(homology_module, "_snf", recording_snf)
    rng = random.Random(20261018)
    for _ in range(60):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        m = [
            [rng.choice((1, -1, 1, -1, 2, -2, 3, -3)) if rng.random() < 0.3 else 0
             for _ in range(nc)]
            for _ in range(nr)
        ]
        assert invariant_factors(m) == _snf_diagonal(m)
    assert len(residues) >= 10  # planted non-units leave a residue for _snf


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
