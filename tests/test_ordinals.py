import pytest

from operadkit.errors import DomainMismatch, LevelOutOfDomain, MalformedTree, OutOfRange
from operadkit.ordinals import (
    NOrdinal,
    count_ordinals,
    enumerate_ordinals,
    make_ordinal,
    ordinal_from_json,
    ordinal_sum,
    to_tree,
    unrank,
)

from oracles import count_all_structures, count_ascending_structures, from_relations


def test_check_position_refuses_positions_outside_the_underlying_set():
    a = make_ordinal(2, [0, 1])
    for p in range(3):
        a.check_position(p)
    for p in (-1, 3):
        with pytest.raises(OutOfRange) as info:
            a.check_position(p)
        assert info.value.payload == {"position": p, "arity": 3}


def test_relation_table_of_a_2_ordinal():
    a = make_ordinal(2, [0, 1, 1])
    relations = [(x, y, a.rel(x, y)) for x in range(a.arity) for y in range(x + 1, a.arity)]
    assert relations == [
        (0, 1, 0),
        (0, 2, 0),
        (0, 3, 0),
        (1, 2, 1),
        (1, 3, 1),
        (2, 3, 1),
    ]
    assert a.rel(1, 3) == 1


def test_level_domains():
    # levels 0..n-1 over a finite n; the non-positive levels over n = None,
    # which make_ordinal and JSON also accept as "inf"
    for n, inside, outside in ((3, (0, 2), (3, -1, True)), ("inf", (0, -17), (1, False))):
        for lv in inside:
            assert make_ordinal(n, [lv]).levels == (lv,)
        for lv in outside:
            with pytest.raises(LevelOutOfDomain):
                make_ordinal(n, [lv])
    assert make_ordinal("inf", [-1]) == make_ordinal(None, [-1]) == NOrdinal(None, 2, (-1,))
    assert make_ordinal(3, [2]) == NOrdinal(3, 2, (2,))
    assert not hasattr(make_ordinal(3, [2]), "domain")
    # "inf" is how callers and JSON spell n = None, not a value an ordinal holds
    with pytest.raises(OutOfRange):
        NOrdinal("inf", 1, ())


@pytest.mark.parametrize(
    "n, arity, payload",
    [
        (True, 1, {"n": True}),
        (2.0, 1, {"n": 2.0}),
        ("2", 1, {"n": "2"}),
        (-1, 1, {"n": -1}),
        (2, True, {"arity": True}),
        (2, 1.0, {"arity": 1.0}),
        (2, -1, {"arity": -1}),
    ],
)
def test_ordinal_refuses_a_bool_or_non_integer_n_or_arity(n, arity, payload):
    if "n" in payload:
        message = "level domain size must be a non-negative integer"
    else:
        message = "arity must be a non-negative integer"
    for build in (
        lambda: NOrdinal(n, arity, ()),
        lambda: ordinal_from_json({"n": n, "k": arity, "levels": []}),
    ):
        with pytest.raises(OutOfRange) as e:
            build()
        # repr, since True == 1 and 2.0 == 2
        assert (e.value.message, repr(e.value.payload)) == (message, repr(payload))


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
        NOrdinal(2, 3, (0,))


def test_enumeration_is_lexicographic():
    got = [list(a.levels) for a in enumerate_ordinals(2, 3)]
    assert got == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert len(list(enumerate_ordinals(3, 4))) == 27
    assert count_ordinals(3, 5) == 81
    assert count_ordinals(7, 1) == 1
    assert count_ordinals(7, 0) == 1
    # enumeration is over a finite domain, even where one ordinal would do
    for n, k in ((None, 1), (True, 2), (2, True)):
        with pytest.raises(OutOfRange):
            count_ordinals(n, k)
    with pytest.raises(OutOfRange):
        next(enumerate_ordinals(None, 1))


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
    levels, order = from_relations(2, ["a", "b", "c", "d"], table)
    assert order == ("b", "a", "d", "c")
    assert levels == (0, 1, 1)


def test_from_relations_round_trips_enumeration():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            for a in enumerate_ordinals(n, k):
                table = {(x, y): a.rel(x, y) for x in range(k) for y in range(x + 1, k)}
                levels, order = from_relations(n, range(k), table)
                assert levels == a.levels
                assert order == tuple(range(k))


def test_from_relations_axiom_violations():
    # the reference the strata tests read tables through refuses every
    # table that breaks an ordinal axiom
    for labels, table in [
        ([0, 1, 2], {(0, 1): 0, (1, 2): 0}),  # a missing pair
        ([0, 1], {(0, 1): 0, (1, 0): 1}),  # related both ways
        ([0, 1, 2], {(0, 1): 0, (1, 2): 0, (2, 0): 0}),  # a cycle
        # wrong composite level: 0 <_1 1 <_0 2 forces 0 <_0 2
        ([0, 1, 2], {(0, 1): 1, (1, 2): 0, (0, 2): 1}),
        ([0, 1], {(0, 0): 1, (0, 1): 0}),  # an element related to itself
        ([0, 1], {(0, 1): 5}),  # a level outside 0..n-1
        ([0, 1], {(0, 7): 1}),  # a label outside the list
    ]:
        with pytest.raises(AssertionError):
            from_relations(2, labels, table)


def test_tree_round_trip():
    a = make_ordinal(2, [0, 1, 1])
    assert to_tree(a) == [[0], [1, 2, 3]]
    b = make_ordinal(1, [0, 0])
    assert to_tree(b) == [0, 1, 2]
    c = make_ordinal(3, [2, 0])
    assert to_tree(c) == [[[0, 1]], [[2]]]


def test_malformed_trees():
    # the tree form needs a finite level domain with at least one level
    with pytest.raises(MalformedTree):
        to_tree(make_ordinal("inf", [0]))
    with pytest.raises(MalformedTree):
        to_tree(make_ordinal(0, [], arity=1))


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
