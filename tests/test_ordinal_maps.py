import itertools

import pytest

from operadkit.errors import (
    ComposeMismatch,
    DomainMismatch,
    NotAMorphism,
    OutOfRange,
)
from operadkit.ordinal_maps import (
    Factorization,
    OrdinalMap,
    compose,
    enumerate_maps,
    factorize,
    fiber,
    identity_map,
    induced,
    map_from_json,
    morphism_violation,
    restrict_map,
)
from operadkit.braids import invert
from operadkit.ordinals import enumerate_ordinals, make_ordinal


def quasi_tables(source, target):
    return sorted(m.table for m in enumerate_maps(source, target, "quasi"))


def test_hom_sets_by_hand():
    o00 = make_ordinal(2, [0, 0])
    o01 = make_ordinal(2, [0, 1])
    o10 = make_ordinal(2, [1, 0])
    o11 = make_ordinal(2, [1, 1])
    assert quasi_tables(o00, o01) == [(0, 1, 2), (0, 2, 1)]
    assert quasi_tables(o01, o10) == []
    got = quasi_tables(o01, o11)
    assert len(got) == 3 and all(t[1] < t[2] for t in got)
    assert len(quasi_tables(o00, o11)) == 6
    assert quasi_tables(o11, o00) == []


def test_morphism_witness():
    o01 = make_ordinal(2, [0, 1])
    o10 = make_ordinal(2, [1, 0])
    assert morphism_violation(o01, o01, (0, 1, 2)) is None
    with pytest.raises(NotAMorphism) as e:
        OrdinalMap(o01, o10, (2, 0, 1))
    assert tuple(e.value.pair) == (0, 1)


def test_map_constructor_errors():
    a = make_ordinal(2, [0])
    with pytest.raises(OutOfRange):
        OrdinalMap(a, a, (0,))
    with pytest.raises(OutOfRange):
        OrdinalMap(a, a, (0, 5))
    with pytest.raises(DomainMismatch):
        OrdinalMap(a, make_ordinal("inf", [0]), (0, 1))


def test_compose_and_identity():
    a = make_ordinal(2, [0, 0])
    b = make_ordinal(2, [0, 1])
    c = make_ordinal(2, [1, 1])
    f = OrdinalMap(a, b, (0, 2, 1))
    g = OrdinalMap(b, c, (2, 0, 1))
    assert compose(g, f).table == (2, 1, 0)
    assert compose(identity_map(b), f) == f
    assert compose(f, identity_map(a)) == f
    with pytest.raises(ComposeMismatch):
        compose(f, g)


def test_inverse():
    # a quasibijection that strictly raises a level has no inverse map
    o0 = make_ordinal(2, [0])
    o1 = make_ordinal(2, [1])
    for table in ((1, 0), (0, 1)):
        assert OrdinalMap(o0, o1, table).is_quasibijection
        with pytest.raises(NotAMorphism):
            OrdinalMap(o1, o0, invert(table))
    assert OrdinalMap(o1, o1, invert((0, 1))).is_identity


def test_rigidity_of_invertible_quasibijections():
    # a quasibijection whose inverse table is also a map forces source ==
    # target and sigma == id, for canonical ordinals
    for n in (1, 2):
        for k in (2, 3, 4):
            for s in enumerate_ordinals(n, k):
                for t in enumerate_ordinals(n, k):
                    for m in enumerate_maps(s, t, "quasi"):
                        inv_table = [0] * k
                        for i, v in enumerate(m.table):
                            inv_table[v] = i
                        if morphism_violation(t, s, inv_table) is None:
                            assert s == t and m.is_identity


def test_order_preserving_matches_monotone():
    s = make_ordinal(2, [0, 1])
    for t in enumerate_ordinals(2, 3):
        for m in enumerate_maps(s, t):
            mono = all(m.table[i] <= m.table[i + 1] for i in range(2))
            assert m.is_order_preserving == mono
    tables = set(m.table for m in enumerate_maps(s, s, "order"))
    assert tables <= set(m.table for m in enumerate_maps(s, s))
    assert all(t == tuple(sorted(t)) for t in tables)


def test_enumeration_refuses_an_unknown_kind():
    s = make_ordinal(2, [0, 1])
    with pytest.raises(OutOfRange) as info:
        next(enumerate_maps(s, s, "bijective"))
    assert info.value.payload == {"kind": "bijective"}


def test_onto_lists_the_surjective_maps():
    for s in enumerate_ordinals(2, 3):
        for m in range(1, 4):
            for t in enumerate_ordinals(2, m):
                onto = list(enumerate_maps(s, t, "onto"))
                assert onto == [f for f in enumerate_maps(s, t) if f.is_surjective]
                if m == 3:
                    assert onto == list(enumerate_maps(s, t, "quasi"))


@pytest.mark.parametrize(
    "source, target, kind",
    [
        (make_ordinal(2, [0, 1]), make_ordinal(2, [0]), "quasi"),
        (make_ordinal(2, [0]), make_ordinal(2, [1, 0]), "quasi"),
        (make_ordinal(2, [0]), make_ordinal(2, [1, 0]), "onto"),
    ],
    ids=["quasi-shorter", "quasi-longer", "onto-longer"],
)
def test_no_map_of_the_kind_lists_no_table(monkeypatch, source, target, kind):
    # a kind of which no map exists returns before any table is made: with
    # no itertools to draw tables from, the listing is still empty
    from operadkit import ordinal_maps

    monkeypatch.setattr(ordinal_maps, "itertools", None)
    assert list(enumerate_maps(source, target, kind)) == []


def test_induced_and_fibers():
    t = make_ordinal(2, [1, 0])
    assert induced(t, [0, 2]).levels == (0,)
    sigma = OrdinalMap(t, make_ordinal(2, [1]), (0, 1, 0))
    f0, pos0 = fiber(sigma, 0)
    assert pos0 == (0, 2) and f0.levels == (0,)
    f1, pos1 = fiber(sigma, 1)
    assert pos1 == (1,) and f1.arity == 1
    r = restrict_map(sigma, [0, 2], [0])
    assert r.table == (0, 0)
    with pytest.raises(OutOfRange):
        restrict_map(sigma, [0, 1], [0])


def test_factorize_worked_example():
    t = make_ordinal(2, [1, 0])
    s = make_ordinal(2, [1])
    sigma = OrdinalMap(t, s, (0, 1, 0))
    fac = factorize(sigma)
    assert fac.middle.levels == (1, 1)
    assert fac.pi.table == (0, 2, 1)
    assert fac.nu.table == (0, 0, 1)
    assert compose(fac.nu, fac.pi) == sigma


def test_factorize_contract_exhaustive():
    for n in (1, 2):
        for ks, kt in itertools.product((0, 1, 2, 3), repeat=2):
            for s in enumerate_ordinals(n, ks):
                for t in enumerate_ordinals(n, kt):
                    for sigma in enumerate_maps(s, t):
                        fac = factorize(sigma)
                        assert compose(fac.nu, fac.pi) == sigma
                        assert fac.pi.is_quasibijection
                        assert fac.nu.is_order_preserving
                        # source order survives inside every fiber
                        for v in range(kt):
                            ranks = [fac.pi.table[i] for i in range(ks) if sigma.table[i] == v]
                            assert ranks == sorted(ranks)


def test_factorize_degenerate_cases():
    # bijective sigma: middle is the target, nu the identity, pi is sigma
    s = make_ordinal(2, [0, 0])
    t = make_ordinal(2, [1, 1])
    for sigma in enumerate_maps(s, t, "quasi"):
        fac = factorize(sigma)
        assert fac.middle == t and fac.nu.is_identity and fac.pi.table == sigma.table
    # over a single level all maps are monotone, so pi is the identity
    a = make_ordinal(1, [0, 0])
    b = make_ordinal(1, [0])
    for sigma in enumerate_maps(a, b):
        assert factorize(sigma).pi.is_identity


def test_factorize_gives_a_fiber_the_top_level():
    # the top level is n - 1 over a finite domain and 0 over the infinite one
    for n, top in ((3, 2), ("inf", 0)):
        sigma = OrdinalMap(make_ordinal(n, [0]), make_ordinal(n, [], arity=1), (0, 0))
        assert factorize(sigma).middle == make_ordinal(n, [top])


def test_map_json_round_trip():
    t = make_ordinal(2, [1, 0])
    sigma = OrdinalMap(t, make_ordinal(2, [1]), (0, 1, 0))
    assert map_from_json(sigma.to_json()) == sigma
    assert sigma.to_json()["f"] == [0, 1, 0]
    with pytest.raises(OutOfRange):
        map_from_json({"f": [0]})


def test_factorization_json():
    t = make_ordinal(2, [1, 0])
    sigma = OrdinalMap(t, make_ordinal(2, [1]), (0, 1, 0))
    obj = factorize(sigma).to_json()
    assert set(obj) == {"pi", "middle", "nu"}
    assert obj["middle"]["levels"] == [1, 1]


def test_restriction_refuses_a_repeated_position():
    # a repeated position on either side would induce a sub-ordinal with a
    # point listed twice
    sigma = identity_map(make_ordinal(2, [0, 1]))
    with pytest.raises(OutOfRange) as info:
        restrict_map(sigma, [1, 0, 1], [0, 1])
    assert info.value.payload == {"positions": [0, 1, 1]}
    with pytest.raises(OutOfRange) as info:
        restrict_map(sigma, [0], [0, 0])
    assert info.value.payload == {"positions": [0, 0]}
