"""Stratum classification, sampling, and the geometric poset check."""

from fractions import Fraction

import pytest

from operadkit.errors import (
    DimensionMismatch,
    EqualPoints,
    OutOfRange,
    ResourceLimit,
)
from operadkit.ordinals import NOrdinal, enumerate_ordinals, from_relations, make_ordinal
from operadkit.quasicat import build_j
from operadkit.strata import (
    Configuration,
    StratumLabel,
    _classify,
    classify_stratum,
    configuration_from_json,
    degeneration_check,
    direction_class,
    label_key,
    random_configuration,
    sample_stratum,
    stratum_from_json,
    verify_partition,
)
import itertools
import random

from oracles import fraction_walk, lex_relation_table


def test_direction_class_basics():
    assert direction_class((0, 0), (1, 0)) == (0, 1)
    assert direction_class((0, 0), (0, 1)) == (1, 1)
    assert direction_class((0, 0), (-1, 5)) == (0, -1)
    assert direction_class((Fraction(1, 2), 0), (Fraction(1, 3), 5)) == (0, -1)
    with pytest.raises(EqualPoints):
        direction_class((0, 0), (0, 0))
    with pytest.raises(DimensionMismatch):
        direction_class((0, 0), (0, 0, 0))


def test_configuration_invariants():
    with pytest.raises(EqualPoints):
        Configuration(2, ((0, 0), (0, 0)))
    with pytest.raises(DimensionMismatch):
        Configuration(2, ((0, 0), (1,)))
    c = Configuration(2, (("1/2", "3"), (0, 0)))
    assert c.points[0] == (Fraction(1, 2), Fraction(3))


def test_configuration_keeps_exact_numbers():
    c = Configuration(2, ((1, "3/2"), (Fraction(4, 2), "-4/2")))
    assert [[type(v) for v in p] for p in c.points] == [[int, Fraction], [Fraction, Fraction]]
    assert c == Configuration(2, ((1, Fraction(3, 2)), (2, -2)))
    assert hash(c) == hash(Configuration(2, ((1, Fraction(3, 2)), (2, -2))))
    assert c.to_json() == {"dim": 2, "points": [["1", "3/2"], ["2", "-2"]]}
    # sample points, and so every point of a degeneration walk, are ints
    label = StratumLabel(make_ordinal(3, [2, 0, 1]), (3, 1, 0, 2))
    assert {type(v) for p in sample_stratum(label).points for v in p} == {int}


def test_configuration_json_round_trip():
    c = Configuration(2, ((Fraction(1, 2), 3), (0, 0)))
    blob = c.to_json()
    assert blob == {"dim": 2, "points": [["1/2", "3"], ["0", "0"]]}
    assert configuration_from_json(blob) == c


def test_classify_two_points():
    s = classify_stratum(Configuration(2, ((0, 0), (1, 0))))
    assert s.ordinal.levels == (0,)
    assert s.labels == (0, 1)
    s = classify_stratum(Configuration(2, ((0, 0), (0, 1))))
    assert s.ordinal.levels == (1,)
    assert s.labels == (0, 1)
    # swapped points flip the labeling, not the shape
    s = classify_stratum(Configuration(2, ((1, 0), (0, 0))))
    assert s.ordinal.levels == (0,)
    assert s.labels == (1, 0)


def test_classify_three_points():
    s = classify_stratum(Configuration(2, ((0, 0), (1, 0), (1, 1))))
    assert s.ordinal.levels == (0, 1)
    assert s.labels == (0, 1, 2)


def test_classify_validates_shape_via_axioms():
    # a chained configuration exercises the min rule: 0 and 2 differ in
    # the first coordinate even though the middle links use the second
    s = classify_stratum(Configuration(2, ((0, 0), (0, 5), (3, 1))))
    assert s.ordinal.levels == (1, 0)
    assert s.labels == (0, 1, 2)


def test_stratum_label_validation():
    t = make_ordinal(2, [0, 1])
    with pytest.raises(OutOfRange):
        StratumLabel(t, (0, 1))  # wrong length
    with pytest.raises(OutOfRange):
        StratumLabel(t, (0, 1, 1))
    lab = StratumLabel(t, (2, 0, 1))
    assert stratum_from_json(lab.to_json()) == lab


def test_sample_round_trip_exhaustive():
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for t in enumerate_ordinals(n, k):
                for pi in itertools.permutations(range(k)):
                    label = StratumLabel(t, pi)
                    assert classify_stratum(sample_stratum(label)) == label


def test_sample_spread_and_degenerate_sizes():
    label = StratumLabel(make_ordinal(2, [0, 1]), (0, 1, 2))
    c = sample_stratum(label)
    assert c.points == ((0, 0), (1, 1), (1, 2))
    assert classify_stratum(c) == label
    single = sample_stratum(StratumLabel(make_ordinal(2, [], arity=1), (0,)))
    assert single.points == ((0, 0),)


def test_verify_partition_small():
    report = verify_partition(2, 2, trials=400, seed=7)
    assert report.universe == 4
    assert report.observed == 4
    assert sum(report.tally.values()) == 400
    blob = report.to_json()
    assert set(blob) == {"n", "k", "trials", "universe", "observed", "tally"}


def test_verify_partition_covers_all_strata():
    report = verify_partition(2, 3, trials=3000, seed=11)
    assert report.universe == 24
    assert report.observed == 24


def test_random_configuration_resource_limit():
    class Stuck:
        def randint(self, a, b):
            return 0

    with pytest.raises(ResourceLimit):
        random_configuration(Stuck(), 2, 2, max_attempts=17)
    c = random_configuration(random.Random(3), 2, 3)
    assert c.arity == 3


def test_degeneration_two_points():
    t0 = make_ordinal(2, [0])
    t1 = make_ordinal(2, [1])
    upper = StratumLabel(t0, (0, 1))
    lower = StratumLabel(t1, (0, 1))
    assert degeneration_check(upper, lower) is True
    assert degeneration_check(lower, upper) is False
    assert degeneration_check(upper, upper) is False


def test_degeneration_dimension_mismatch():
    a = StratumLabel(make_ordinal(2, [0]), (0, 1))
    b = StratumLabel(make_ordinal(3, [0]), (0, 1))
    with pytest.raises(DimensionMismatch):
        degeneration_check(a, b)


def test_degeneration_agrees_with_poset():
    for n, k in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        p = build_j(n, k)
        labels = p.elements
        for i, j in itertools.product(range(len(labels)), repeat=2):
            if i == j:
                continue
            expected = (i, j) in p.above
            assert degeneration_check(labels[i], labels[j]) is expected, (
                n,
                k,
                labels[i],
                labels[j],
            )


def test_label_key_is_stable():
    lab = StratumLabel(make_ordinal(2, [0, 1]), (2, 0, 1))
    assert label_key(lab) == "[0, 1]|[2, 0, 1]"


def _classify_by_relations(dim, points):
    """A second route to the stratum: the pairwise relation table run
    through the axiom validator."""
    ordinal, order = from_relations(dim, range(len(points)), lex_relation_table(points))
    return StratumLabel(ordinal, order)


def _degeneration_by_fraction_walk(upper, lower):
    """degeneration_check with the unscaled point low + t (high - low)."""
    if upper == lower:
        return False
    low, high = sample_stratum(lower), sample_stratum(upper)
    if _classify_by_relations(low.dim, low.points) != lower:
        return False
    for points in fraction_walk(low.points, high.points, 8):
        if lex_relation_table(points) is None:
            return False
        if _classify_by_relations(low.dim, points) != upper:
            return False
    return True


def _coordinate(rng, half):
    """A half-integer in one of the spellings a configuration accepts."""
    if half % 2:
        return rng.choice([Fraction(half, 2), f"{half}/2", f"{2 * half}/4"])
    return rng.choice([half // 2, Fraction(half // 2), f"{half}/2", str(half // 2)])


def test_classify_agrees_with_the_pairwise_route():
    rng = random.Random(41)
    swept = 0
    for dim in range(5):
        for k in range(8):
            for _ in range(30):
                # a coarse grid, so that leading coordinates tie often
                halves = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)]
                if len(set(halves)) < k:
                    continue
                points = tuple(tuple(_coordinate(rng, h) for h in p) for p in halves)
                expected = _classify_by_relations(dim, points)
                assert classify_stratum(Configuration(dim, points)) == expected, points
                swept += 1
    assert swept > 800


def test_degeneration_agrees_with_the_fraction_walk():
    for n, k in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        labels = build_j(n, k).elements
        for upper, lower in itertools.permutations(labels, 2):
            expected = _degeneration_by_fraction_walk(upper, lower)
            assert degeneration_check(upper, lower) is expected, (upper, lower)
    for n, k in [(2, 4), (3, 3)]:
        p = build_j(n, k)
        labels = p.elements
        for i, j in p.covering_pairs():
            expected = _degeneration_by_fraction_walk(labels[i], labels[j])
            assert degeneration_check(labels[i], labels[j]) is expected


def test_classifier_reports_collisions():
    assert _classify([(1, 2), (0, 0), (1, 3)]) == ((0, 1), (1, 0, 2))
    assert _classify([(1, 2), (0, 0), (1, 2)]) is None
    assert _classify([(5,), (5,)]) is None
    assert _classify([]) == ((), ())


def test_degeneration_walk_builds_no_objects(monkeypatch):
    p = build_j(2, 3)
    labels = p.elements
    built = []
    for cls in (Configuration, StratumLabel, NOrdinal):
        def counting(self, _init=cls.__post_init__):
            built.append(type(self).__name__)
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    for i, j in p.covering_pairs():
        assert degeneration_check(labels[i], labels[j])
    assert built == []
