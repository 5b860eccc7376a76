import pytest

from operadkit.errors import (
    AxiomViolation,
    DomainMismatch,
    LevelOutOfDomain,
    MalformedTree,
    MissingPair,
    OutOfRange,
    SameElement,
    TargetTooSmall,
)
from operadkit.ordinals import (
    LevelDomain,
    NOrdinal,
    count_ordinals,
    enumerate_ordinals,
    from_relations,
    from_tree,
    make_ordinal,
    ordinal_from_json,
    ordinal_sum,
    suspend_horizontal,
    suspend_infinite,
    suspend_vertical,
    to_tree,
    unrank,
)

from oracles import count_all_structures, count_ascending_structures


def test_relation_table_of_a_2_ordinal():
    a = make_ordinal(2, [0, 1, 1])
    assert sorted(a.relations()) == [
        (0, 1, 0),
        (0, 2, 0),
        (0, 3, 0),
        (1, 2, 1),
        (1, 3, 1),
        (2, 3, 1),
    ]
    assert a.relation_of(3, 1) == 1
    assert a.rel(1, 3) == 1


def test_relation_errors():
    a = make_ordinal(2, [0, 1])
    with pytest.raises(SameElement):
        a.relation_of(1, 1)
    with pytest.raises(OutOfRange):
        a.relation_of(0, 3)


def test_level_domains():
    fin = LevelDomain.finite(3)
    assert fin.contains(0) and fin.contains(2) and not fin.contains(3)
    assert not fin.contains(-1)
    assert fin.top() == 2
    inf = LevelDomain.infinite()
    assert inf.contains(0) and inf.contains(-17) and not inf.contains(1)
    assert inf.top() == 0
    with pytest.raises(OutOfRange):
        LevelDomain.finite(0).top()


def test_level_out_of_domain():
    with pytest.raises(LevelOutOfDomain):
        make_ordinal(2, [0, 2])
    with pytest.raises(LevelOutOfDomain):
        make_ordinal("inf", [0, 1])
    # fine: non-positive levels over the infinite domain
    make_ordinal("inf", [0, -3, 0])


def test_small_arities():
    empty = make_ordinal(2, [], arity=0)
    single = make_ordinal(2, [], arity=1)
    assert empty.arity == 0 and single.arity == 1
    with pytest.raises(OutOfRange):
        NOrdinal(LevelDomain.finite(2), 3, (0,))


def test_enumeration_is_lexicographic():
    got = [list(a.levels) for a in enumerate_ordinals(2, 3)]
    assert got == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert len(list(enumerate_ordinals(3, 4))) == 27
    assert count_ordinals(3, 5) == 81
    assert count_ordinals(7, 1) == 1
    assert count_ordinals(7, 0) == 1


def test_unrank_is_the_enumeration_order():
    for n in range(5):
        for k in range(7):
            listed = list(enumerate_ordinals(n, k))
            assert [unrank(n, k, r) for r in range(count_ordinals(n, k))] == listed
            with pytest.raises(OutOfRange):
                unrank(n, k, len(listed))
    with pytest.raises(OutOfRange):
        unrank(2, 3, -1)


def test_counts_against_brute_force_structures():
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            assert count_ascending_structures(n, k) == count_ordinals(n, k)
    # direction plus level enumeration at tiny sizes
    for n in (1, 2):
        for k in (2, 3):
            import math

            assert count_all_structures(n, k) == math.factorial(k) * count_ordinals(n, k)


def test_ordinal_sum():
    a = make_ordinal(2, [0])
    b = make_ordinal(2, [1])
    assert ordinal_sum(a, b).levels == (0, 0, 1)
    empty = make_ordinal(2, [], arity=0)
    assert ordinal_sum(a, empty) == a
    assert ordinal_sum(empty, b) == b
    with pytest.raises(DomainMismatch):
        ordinal_sum(a, make_ordinal("inf", [0]))
    zero = make_ordinal(0, [], arity=1)
    with pytest.raises(LevelOutOfDomain):
        ordinal_sum(zero, zero)


def test_infinite_sum_keeps_level_zero_gap():
    a = make_ordinal("inf", [-1])
    b = make_ordinal("inf", [0])
    assert ordinal_sum(a, b).levels == (-1, 0, 0)


def test_suspensions():
    a = make_ordinal(2, [0, 1])
    up = suspend_vertical(a, 4)
    assert up.levels == (2, 3) and up.domain.n == 4
    flat = suspend_horizontal(a, 4)
    assert flat.levels == (0, 1) and flat.domain.n == 4
    inf = suspend_infinite(a)
    assert inf.levels == (-1, 0) and inf.domain.is_infinite
    assert suspend_vertical(a, 2) == a
    with pytest.raises(TargetTooSmall):
        suspend_vertical(a, 1)
    with pytest.raises(TargetTooSmall):
        suspend_horizontal(a, 1)


def test_suspension_compatibility():
    # suspending to infinity directly or after a vertical shift agree
    a = make_ordinal(2, [1, 0, 1])
    assert suspend_infinite(suspend_vertical(a, 5)) == suspend_infinite(a)


def test_from_relations_recovers_levels_and_order():
    # the ordinal [0,1,1] presented over scrambled labels b,a,d,c
    table = {
        ("b", "a"): 0,
        ("b", "d"): 0,
        ("b", "c"): 0,
        ("a", "d"): 1,
        ("a", "c"): 1,
        ("d", "c"): 1,
    }
    a, order = from_relations(2, ["a", "b", "c", "d"], table)
    assert order == ("b", "a", "d", "c")
    assert a.levels == (0, 1, 1)


def test_from_relations_round_trips_enumeration():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            for a in enumerate_ordinals(n, k):
                table = {(x, y): p for x, y, p in a.relations()}
                b, order = from_relations(n, range(k), table)
                assert b == a
                assert order == tuple(range(k))


def test_from_relations_axiom_violations():
    with pytest.raises(MissingPair):
        from_relations(2, [0, 1, 2], {(0, 1): 0, (1, 2): 0})
    with pytest.raises(AxiomViolation) as e:
        from_relations(2, [0, 1], {(0, 1): 0, (1, 0): 1})
    assert e.value.axiom == "unique-relation"
    # cycle
    with pytest.raises(AxiomViolation) as e:
        from_relations(2, [0, 1, 2], {(0, 1): 0, (1, 2): 0, (2, 0): 0})
    assert e.value.axiom == "transitivity"
    # wrong composite level: 0 <_1 1 <_0 2 forces 0 <_0 2
    with pytest.raises(AxiomViolation) as e:
        from_relations(2, [0, 1, 2], {(0, 1): 1, (1, 2): 0, (0, 2): 1})
    assert e.value.axiom == "transitivity"
    assert e.value.witness == (0, 1, 2)
    with pytest.raises(SameElement):
        from_relations(2, [0, 1], {(0, 0): 1, (0, 1): 0})
    with pytest.raises(LevelOutOfDomain):
        from_relations(2, [0, 1], {(0, 1): 5})
    with pytest.raises(OutOfRange):
        from_relations(2, [0, 1], {(0, 7): 1})


def test_tree_round_trip():
    a = make_ordinal(2, [0, 1, 1])
    assert to_tree(a) == [[0], [1, 2, 3]]
    assert from_tree(2, [[0], [1, 2, 3]]) == a
    b = make_ordinal(1, [0, 0])
    assert to_tree(b) == [0, 1, 2]
    c = make_ordinal(3, [2, 0])
    assert to_tree(c) == [[[0, 1]], [[2]]]
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            for x in enumerate_ordinals(n, k):
                assert from_tree(n, to_tree(x)) == x


def test_malformed_trees():
    with pytest.raises(MalformedTree):
        from_tree(2, [[0], [2, 1]])  # leaves out of order
    with pytest.raises(MalformedTree):
        from_tree(2, [0, 1])  # leaves too shallow
    with pytest.raises(MalformedTree):
        from_tree(2, [[0], []])  # empty inner node
    with pytest.raises(MalformedTree):
        from_tree(0, [])
    with pytest.raises(MalformedTree):
        to_tree(make_ordinal("inf", [0]))


def test_json_round_trip():
    for a in (
        make_ordinal(2, [0, 1, 1]),
        make_ordinal("inf", [-2, 0]),
        make_ordinal(3, [], arity=0),
        make_ordinal(3, [], arity=1),
    ):
        assert ordinal_from_json(a.to_json()) == a
    assert make_ordinal(2, [0, 1]).to_json() == {"n": 2, "k": 3, "levels": [0, 1]}
    assert make_ordinal("inf", [0]).to_json()["n"] == "inf"
    with pytest.raises(OutOfRange):
        ordinal_from_json({"levels": [0]})
