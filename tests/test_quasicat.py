"""The quasibijection category, the labeled poset, and their spaces."""

import importlib
import re

import pytest

import reference
from oracles import covers_from_masks, diamond_walk

from operadkit.errors import (
    LIST_CAP,
    AntisymmetryViolation,
    EndoFound,
    InvariantBroken,
    ResourceLimit,
    StrictnessRequired,
)
from operadkit.homology import ChainComplex, connected_components, homology
from operadkit.ordinal_maps import OrdinalMap
from operadkit.ordinals import make_ordinal
from operadkit.quasicat import (
    MilgramPoset,
    QuasiCategory,
    assert_strict,
    build_j,
    build_q,
    cellular_j,
    cellular_q,
    chain_counts,
    nerve,
    order_complex,
    verify_quotient_correspondence,
    _arrows,
    _cells,
    _chain_counts,
)


@pytest.mark.parametrize(
    "n, k, predicted",
    [(6, 4, 5184**2), (3, 5, 9720**2), (2, 6, 23040**2),
     (2, 10**9, 23040**2), (10**6, 3, (2 * 10**6) ** 2)],
)
def test_build_j_refuses_pairs_past_the_cap(n, k, predicted):
    # J(5,4) has 3000 elements, so 9 M pairs, under the cap; the arities
    # past the first refused one report the partial count that passed it
    assert (5**3 * 24) ** 2 <= LIST_CAP
    with pytest.raises(ResourceLimit) as info:
        build_j(n, k)
    assert info.value.payload["predicted"] == predicted


@pytest.mark.parametrize(
    "n, k, predicted",
    [(2, 7, 20643840), (3, 6, 42515280), (2, 10**9, 20643840), (1, 10**9, 39916800)],
)
def test_build_q_refuses_candidate_maps_past_the_cap(n, k, predicted):
    # k! tables per ordered pair of n^(k-1) objects, multiplied up one arity
    # at a time: past the first refused arity the prediction is partial
    with pytest.raises(ResourceLimit) as info:
        build_q(n, k)
    assert info.value.payload == {"n": n, "k": k, "predicted": predicted, "cap": LIST_CAP}


@pytest.mark.parametrize("k", [2, 3, 10**9])
def test_an_empty_level_domain_builds_empty_structures_at_once(k):
    assert build_q(0, k) == QuasiCategory(0, k, (), {})
    assert build_j(0, k) == MilgramPoset(0, k, (), (), ())


def test_q22_shape():
    c = build_q(2, 2)
    assert [o.levels for o in c.objects] == [(0,), (1,)]
    # hom([0],[1]) holds both bijections, everything else is identities
    assert c.morphism_count() == 4
    assert len(c.hom[(0, 1)]) == 2
    assert (1, 0) not in c.hom
    assert_strict(c)


def test_q_hom_sizes_match_table():
    c = build_q(2, 3)
    sizes = {key: len(v) for key, v in c.hom.items()}
    flat, lo, hi, sharp = 0, 1, 2, 3  # lex order: 00, 01, 10, 11
    assert sizes[(flat, lo)] == 2
    assert sizes[(flat, hi)] == 2
    assert sizes[(flat, sharp)] == 6
    assert sizes[(lo, sharp)] == 3
    assert sizes[(hi, sharp)] == 3
    for i in range(4):
        assert sizes[(i, i)] == 1
    assert c.morphism_count() == 20


def test_strictness_rejects_planted_endo():
    c = build_q(2, 2)
    flat = c.objects[0]
    collapse = OrdinalMap(flat, flat, (0, 0))
    bad = QuasiCategory(2, 2, c.objects, {**c.hom, (0, 0): (collapse,)})
    with pytest.raises(EndoFound):
        assert_strict(bad)
    with pytest.raises(StrictnessRequired):
        nerve(bad)


def test_strictness_rejects_two_way_homs():
    c = build_q(2, 2)
    bad = QuasiCategory(2, 2, c.objects, {**c.hom, (1, 0): c.hom[(0, 1)]})
    with pytest.raises(AntisymmetryViolation):
        assert_strict(bad)


def test_nerve_without_a_composite_misses_a_face():
    # Q(2,3) without the arrows flat -> sharp: the composites through the
    # middle objects are no arrows, so a 2-cell loses its inner face
    c = build_q(2, 3)
    hom = {key: maps for key, maps in c.hom.items() if key != (0, 3)}
    with pytest.raises(InvariantBroken) as info:
        nerve(QuasiCategory(2, 3, c.objects, hom))
    assert info.value.message == "face of a cell is missing from the complex"
    assert info.value.payload == {"dim": 2}


def test_nerve_q22_is_a_circle():
    complex_ = nerve(build_q(2, 2))
    assert [len(layer) for layer in complex_.cells] == [2, 2]
    assert homology(complex_).groups == ((1, ()), (1, ()))


def test_nerve_q32_has_two_torsion():
    complex_ = nerve(build_q(3, 2))
    assert [len(layer) for layer in complex_.cells] == [3, 6, 4]
    assert homology(complex_).groups == ((1, ()), (0, (2,)), (0, ()))


def test_nerve_q23():
    complex_ = nerve(build_q(2, 3))
    assert [len(layer) for layer in complex_.cells] == [4, 16, 12]
    assert homology(complex_).groups == ((1, ()), (1, ()), (0, ()))


def test_nerve_truncation():
    complex_ = nerve(build_q(3, 2), max_dim=1)
    assert [len(layer) for layer in complex_.cells] == [3, 6]
    assert connected_components(complex_) == 1


def test_j_element_counts():
    for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        p = build_j(n, k)
        count = n ** (k - 1) if k > 1 else 1
        import math

        assert len(p.elements) == count * math.factorial(k)


def test_j32_is_an_octahedron():
    p = build_j(3, 2)
    complex_ = order_complex(p)
    assert [len(layer) for layer in complex_.cells] == [6, 12, 8]
    assert homology(complex_).groups == ((1, ()), (0, ()), (1, ()))
    # every covering pair steps one layer down
    assert len(p.covering_pairs()) == 8


def test_j23_homology():
    p = build_j(2, 3)
    complex_ = order_complex(p)
    assert [len(layer) for layer in complex_.cells] == [24, 96, 72]
    assert homology(complex_).groups == ((1, ()), (3, ()), (2, ()))


def test_j22_is_a_square_cycle():
    p = build_j(2, 2)
    complex_ = order_complex(p)
    assert [len(layer) for layer in complex_.cells] == [4, 4]
    assert homology(complex_).groups == ((1, ()), (1, ()))


def test_label_map_reads_off_positions():
    p = build_j(2, 2)
    idx = {(e.ordinal.levels, e.labels): i for i, e in enumerate(p.elements)}
    i = idx[((0,), (1, 0))]
    j = idx[((1,), (0, 1))]
    assert (i, j) in p.above
    assert p.label_map(i, j) == (1, 0)


def test_quotient_correspondence_small():
    for n, k in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 3), (3, 4)]:
        p = build_j(n, k)
        c = build_q(n, k)
        checked = verify_quotient_correspondence(p, c)
        assert checked == len(p.above)


def test_order_complex_truncation():
    p = build_j(2, 3)
    complex_ = order_complex(p, max_dim=1)
    assert [len(layer) for layer in complex_.cells] == [24, 96]
    assert connected_components(complex_) == 1


def test_poset_json_round_trip_fields():
    p = build_j(2, 2)
    blob = p.to_json()
    assert blob["n"] == 2 and blob["k"] == 2
    assert len(blob["elements"]) == 4
    assert len(blob["relations"]) == 4


def test_category_json_fields():
    blob = build_q(2, 2).to_json()
    assert blob["hom_sizes"] == {"0->0": 1, "0->1": 2, "1->1": 1}


@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(1, 5) for k in range(4)] + [(2, 4), (5, 3), (3, 4)],
)
def test_build_j_agrees_with_the_all_pairs_oracle(n, k):
    p = build_j(n, k)
    elements = reference.j_elements(n, k)
    assert [(e.ordinal.levels, e.labels) for e in p.elements] == elements
    relations = reference.j_relations(n, k)
    assert p.above == relations
    assert p.covering_pairs() == sorted(reference.covering_pairs(relations))
    assert p.to_json()["relations"] == sorted(list(r) for r in relations)


@pytest.mark.parametrize("n, k", [(2, 3), (6, 2), (3, 3), (4, 3), (2, 4)])
def test_chain_counts_predict_the_built_cells(n, k):
    p = build_j(n, k)
    cells = [len(layer) for layer in order_complex(p).cells]
    assert chain_counts(p) == cells
    assert chain_counts(p, max_dim=2) == cells[:3]


@pytest.mark.parametrize(
    "n, k",
    [(2, k) for k in range(2, 6)] + [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3)],
)
def test_chain_counts_predict_the_nerve_cells(n, k):
    # the count nerve refuses by, and the nerve command prints: paths of
    # non-identity arrows; building the complex also checks dd = 0
    c = build_q(n, k)
    heads, _ = _arrows(c)
    cells = [len(layer) for layer in nerve(c).cells]
    assert _chain_counts(heads, None, "nerve") == cells
    assert _chain_counts(heads, 2, "nerve") == cells[:3]


def test_order_complex_refuses_chains_past_the_cap():
    # J(5,4) is built (9 M ordered pairs), but its chains pass the cap at
    # dimension 2; J(3,4) and J(5,3) stay under it
    p = build_j(5, 4)
    with pytest.raises(ResourceLimit) as info:
        order_complex(p)
    assert info.value.payload == {
        "n": 5, "k": 4, "dim": 2, "predicted": 55178904, "cap": LIST_CAP}
    assert sum(chain_counts(build_j(3, 4))) == 9692472 <= LIST_CAP
    assert sum(chain_counts(build_j(5, 3))) == 8596614 <= LIST_CAP


# -- Milgram's cells against the definitional complexes ------------------------


@pytest.mark.parametrize(
    "n, k",
    [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)]
    + [(1, 4), (2, 4), (4, 3), (2, 5)],
)
def test_cellular_q_has_the_homology_of_the_nerve(n, k):
    assert homology(cellular_q(n, k)) == homology(nerve(build_q(n, k)))


@pytest.mark.parametrize(
    "n, k", [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 4)] + [(2, 4)]
)
def test_cellular_j_has_the_homology_of_the_order_complex(n, k):
    assert homology(cellular_j(n, k)) == homology(order_complex(build_j(n, k)))


@pytest.mark.parametrize(
    "n, k",
    [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 3), (3, 4), (5, 3), (2, 5), (4, 4)],
)
def test_facets_are_the_covering_pairs_of_j(n, k):
    # build_j keeps the facets it closes as the covering pairs, which holds
    # only if no facet is also reached through a chain of others: the
    # closure is graded.  Un-closing the masks finds the covers a second
    # way; the all-pairs oracle checks the order itself
    p = build_j(n, k)
    assert p.covering_pairs() == covers_from_masks(p.below)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 2)])
def test_cells_of_j_form_a_subcomplex_of_the_next_level_domain(n, k):
    # facets only lower levels, so J_n(k) keeps its boundaries inside J_(n+1)(k)
    small, big = cellular_j(n, k), cellular_j(n + 1, k)
    for d in range(1, small.dimension + 1):
        position = {cell: j for j, cell in enumerate(big.cells[d])}
        for cell, col in zip(small.cells[d], small.boundaries[d]):
            wide = big.boundaries[d][position[cell]]
            assert {big.cells[d - 1][r]: v for r, v in wide.items()} == {
                small.cells[d - 1][r]: v for r, v in col.items()
            }


def test_cellular_j_has_cohen_betti_numbers_and_no_torsion():
    # (1 + t^2)(1 + 2t^2)(1 + 3t^2); the order complex of J(3,4) has 9.7 M cells
    groups = homology(cellular_j(3, 4)).groups
    assert groups == tuple((b, ()) for b in (1, 0, 6, 0, 11, 0, 6))
    assert [b for b, _ in groups] == reference.j_betti(3, 4)


def test_q_at_one_level_is_a_single_cell():
    # with every level 0 no node has a facet, so Q_1(k) is one 0-cell at any
    # k the budget admits, and its k - 1 levels are all the work
    for k in (1, 2, 25, 1000):
        complex_ = cellular_q(1, k)
        assert complex_.cells == (((0,) * (k - 1),),)
        assert homology(complex_).groups == ((1, ()),)


# -- the closed-form signs against the diamond walk ----------------------------


@pytest.mark.parametrize(
    "n, k",
    [(n, 3) for n in range(2, 7)] + [(n, 4) for n in range(2, 6)]
    + [(2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7)],
)
def test_closed_form_signs_satisfy_the_diamond_condition(n, k):
    # the walk takes the listed sign of each cell's first facet, follows the
    # diamond rule through the shared faces, and fails where a listed sign
    # differs from the one it reaches.  Unsigned, it orients some cells
    # differently from n = 4 on, so its own signs are compared by homology
    layers, facets = _cells(n, k, labeled=False)
    assert diamond_walk(layers, facets) == facets
    walked = diamond_walk(layers, {t: [(s, rho) for s, rho, _ in own] for t, own in facets.items()})
    complex_ = ChainComplex.from_cells(layers, lambda d, t: [(sign, s) for s, _, sign in walked[t]])
    assert homology(complex_) == homology(cellular_q(n, k))


@pytest.mark.parametrize("n, k, levels", [(2, 3, (1, 1)), (3, 2, (1,)), (3, 3, (2, 1))])
def test_a_broken_facet_rule_is_caught_with_its_cell(monkeypatch, n, k, levels):
    # dropping one facet leaves a face of the cell in a single facet, and
    # takes a covering pair out of the poset that build_j closes
    layers, facets = _cells(n, k, labeled=False)
    facets[levels] = facets[levels][:-1]
    with pytest.raises(AssertionError, match=re.escape(f"exactly two facets: {levels}") + "$"):
        diamond_walk(layers, facets)
    quasicat = importlib.import_module("operadkit.quasicat")
    listed = quasicat._facets

    def drop_last(t):
        out = listed(t)
        return out[:-1] if t == levels else out

    monkeypatch.setattr(quasicat, "_facets", drop_last)
    assert build_j(n, k).above != reference.j_relations(n, k)


def test_facets_in_two_separate_rings_are_caught():
    # a 2-cell bounded by two disjoint bigons: every vertex is in two of its
    # facets, but the facets do not connect, so one ring would get no sign
    ident = (0, 1)
    rule = {
        "e": [("a", ident), ("b", ident)], "f": [("a", ident), ("b", ident)],
        "g": [("c", ident), ("d", ident)], "h": [("c", ident), ("d", ident)],
        "t": [(x, ident) for x in "efgh"],
    }
    layers = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["t"]]
    facets = {t: rule.get(t, []) for layer in layers for t in layer}
    with pytest.raises(AssertionError, match="the facets of a cell are not connected: t$"):
        diamond_walk(layers, facets)


@pytest.mark.parametrize("n, k, levels", [(2, 3, (1, 1)), (3, 2, (2,)), (3, 4, (1, 2, 1))])
def test_a_flipped_sign_fails_the_diamond_walk(n, k, levels):
    layers, facets = _cells(n, k, labeled=False)
    s, rho, sign = facets[levels][-1]
    facets[levels] = facets[levels][:-1] + [(s, rho, -sign)]
    with pytest.raises(AssertionError, match=re.escape(f"signs of a cell disagree: {levels}") + "$"):
        diamond_walk(layers, facets)


@pytest.mark.parametrize(
    "n, k, levels", [(2, 3, (1, 1)), (3, 2, (2,)), (3, 3, (2, 1)), (3, 4, (1, 2, 1))]
)
def test_a_flipped_sign_breaks_the_boundary_of_a_boundary(monkeypatch, n, k, levels):
    # J is regular, so one flipped incidence of a cell of dimension >= 2
    # leaves a codimension-2 face with a nonzero coefficient in dd; Q's
    # 1-cells have zero boundary, so there a flip on a 2-cell can go unseen
    quasicat = importlib.import_module("operadkit.quasicat")
    facets = quasicat._facets

    def flip_last(t):
        out = facets(t)
        if t != levels:
            return out
        s, rho, sign = out[-1]
        return out[:-1] + [(s, rho, -sign)]

    monkeypatch.setattr(quasicat, "_facets", flip_last)
    with pytest.raises(InvariantBroken) as info:
        cellular_j(n, k)
    assert info.value.message == "boundary of a boundary does not vanish"
    assert info.value.payload["dim"] == sum(levels)
