import itertools
import json

import pytest

from operadkit.errors import (
    BoundExceeded,
    InvariantBroken,
    MissingTable,
    NotQuasibijection,
    NotQuasisymmetric,
    OutOfRange,
    RelationFailed,
    ResourceLimit,
)
from operadkit.operads import (
    BRAIDED,
    MIXED2,
    N_OPERAD,
    SYMMETRIC,
    FiniteCollection,
    FiniteOperad,
    Flavor,
    action_is_bijection,
    all_factorizations,
    braided_action_from_quasisymmetric,
    check_operad_axioms,
    desymmetrise,
    endomorphism_symmetric_operad,
    extend_multiplication,
    induced_action,
    is_locally_constant,
    is_quasisymmetric,
    non_quasisymmetric_operad,
    operad_from_json,
    operad_to_json,
    orders_operad,
    reflavor,
    terminal_operad,
    validate_collection,
)
from operadkit.operads import _carrier_key
from operadkit.ordinal_maps import OrdinalMap, compose, enumerate_maps, fiber, identity_map
from operadkit.ordinals import enumerate_ordinals, make_ordinal
from operadkit.quasicat import build_q, nerve
from operadkit.zigzags import generator_span


def line(k):
    return make_ordinal(1, [0] * (k - 1), arity=k)


def point2():
    return make_ordinal(2, [], arity=1)


def flat2():
    return make_ordinal(2, [0])


def sharp2():
    return make_ordinal(2, [1])


def decoding(op, a):
    """The decode tuple of the carrier at an index ordinal."""
    return op.collection.decoding(_carrier_key(op.flavor, a))


def offset(op, sigma, args):
    """Offset in sigma's flat table of the decoded arguments (a, f_0, ..)."""
    objs = [sigma.target] + [fiber(sigma, t)[0] for t in range(sigma.target.arity)]
    out = 0
    for obj, x in zip(objs, args):
        elems = decoding(op, obj)
        out = out * len(elems) + elems.index(x)
    return out


def product(op, sigma, args):
    """The decoded product of decoded arguments."""
    return decoding(op, sigma.source)[op.mult(sigma)[offset(op, sigma, args)]]


def test_flavor_validation():
    assert str(SYMMETRIC) == "symmetric"
    assert str(N_OPERAD(3)) == "n-operad(3)"
    assert N_OPERAD(2).n == 2 and BRAIDED.n is None
    with pytest.raises(OutOfRange):
        Flavor("cyclic")
    with pytest.raises(OutOfRange):
        Flavor("symmetric", 2)
    with pytest.raises(OutOfRange):
        N_OPERAD(0)


def test_terminal_operads_pass_all_flavors():
    for flavor in (SYMMETRIC, BRAIDED, MIXED2, N_OPERAD(2)):
        op = terminal_operad(flavor, 3)
        report = check_operad_axioms(op)
        assert report.passed and report.failures == ()
        assert report.checked > 0


def test_endomorphism_carrier_sizes():
    op = endomorphism_symmetric_operad((0, 1), 2)
    assert len(op.carrier_of(line(1))) == 4
    assert len(op.carrier_of(line(2))) == 16
    single = endomorphism_symmetric_operad(("x",), 2)
    assert len(single.carrier_of(line(1))) == 1
    assert len(single.carrier_of(line(2))) == 1


def test_endomorphism_substitution_instance():
    # negation after xor: value tables over lexicographic binary inputs
    op = endomorphism_symmetric_operad((0, 1), 2)
    negation = (1, 0)
    xor = (0, 1, 1, 0)
    sigma = OrdinalMap(line(2), line(1), (0, 0))
    assert product(op, sigma, (negation, xor)) == (1, 0, 0, 1)
    assert decoding(op, line(1))[op.unit] == (0, 1)


@pytest.mark.parametrize(
    "values, bound, tables",
    [
        ((0, 1), 3, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 0)]),
        (("a", "b", "c"), 1, [(0,)]),
    ],
)
def test_endomorphism_tables_are_substitution(values, bound, tables):
    # every entry against composing the decoded functions directly
    op = endomorphism_symmetric_operad(values, bound)
    for table in tables:
        k = max(table) + 1
        sigma = OrdinalMap(line(len(table)), line(k), table)
        inputs = list(itertools.product(values, repeat=len(table)))
        position = {v: i for i, v in enumerate(values)}

        def call(f, args):
            i = 0
            for v in args:
                i = i * len(values) + position[v]
            return f[i]

        objs = [sigma.target] + [fiber(sigma, t)[0] for t in range(k)]
        args_space = itertools.product(*[decoding(op, o) for o in objs])
        for got, (a, *fs) in zip(op.mult(sigma), args_space, strict=True):
            blocks = [[t for t, v in enumerate(table) if v == j] for j in range(k)]
            expected = tuple(
                call(a, [call(fs[j], [x[t] for t in block]) for j, block in enumerate(blocks)])
                for x in inputs
            )
            assert decoding(op, sigma.source)[got] == expected


def test_endomorphism_resource_limit():
    with pytest.raises(ResourceLimit) as info:
        endomorphism_symmetric_operad((0, 1, 2), 3)
    assert info.value.code == "RESOURCE_LIMIT"


def test_orders_substitution_instance():
    # top order (1, 0) nests the second argument's order below the first
    op = orders_operad(3)
    sigma = OrdinalMap(line(3), line(2), (0, 0, 1))
    assert product(op, sigma, ((1, 0), (0, 1), (0,))) == (1, 2, 0)
    assert product(op, sigma, ((0, 1), (1, 0), (0,))) == (1, 0, 2)
    assert decoding(op, line(1))[op.unit] == (0,)


def test_symmetric_axioms_pass():
    report = check_operad_axioms(orders_operad(3))
    assert report.passed and report.checked > 300
    report = check_operad_axioms(endomorphism_symmetric_operad((0, 1), 2))
    assert report.passed and report.checked > 5000


def test_symmetric_axioms_pass_arity_four():
    # arity four brings a far-separated generator pair into the validation
    report = check_operad_axioms(orders_operad(4))
    assert report.passed


def test_braided_and_mixed_pullbacks_pass():
    assert check_operad_axioms(reflavor(orders_operad(3), BRAIDED)).passed
    assert check_operad_axioms(reflavor(orders_operad(3), MIXED2)).passed
    end = endomorphism_symmetric_operad((0, 1), 2)
    assert check_operad_axioms(reflavor(end, BRAIDED)).passed
    assert check_operad_axioms(reflavor(end, MIXED2)).passed
    with pytest.raises(OutOfRange):
        reflavor(terminal_operad(BRAIDED, 2), BRAIDED)


@pytest.mark.parametrize(
    "make",
    [
        lambda: endomorphism_symmetric_operad((0, 1), 2),
        lambda: reflavor(endomorphism_symmetric_operad((0, 1), 2), MIXED2),
        lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2),
        lambda: orders_operad(4),
    ],
    ids=["End{0,1}", "End{0,1} mixed2", "desymmetrised End{0,1}", "orders"],
)
def test_longest_list_is_predicted_exactly(monkeypatch, make):
    # the predictions behind LIST_CAP equal the longest table or compared
    # list that the check then builds, and the entries of the document
    from operadkit import operads

    def leaves(x):
        return sum(map(leaves, x)) if isinstance(x, list) else 1

    op = make()
    records = operads._surjections(op, op.bound).values()
    predicted = operads._longest_list(records)
    assert operads._payload_entries(records) == leaves(list(operad_to_json(op)["mult"].values()))
    compared = []
    real = operads._mismatches

    def recording(coll, keys, lhs, rhs, *rest):
        compared.extend((len(lhs), len(rhs)))
        return real(coll, keys, lhs, rhs, *rest)

    monkeypatch.setattr(operads, "_mismatches", recording)
    assert check_operad_axioms(op).passed
    assert predicted == max(*compared, *map(len, op.tables.values()))


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_operad_axioms(terminal_operad(N_OPERAD(2), 4)),
        lambda: check_operad_axioms(orders_operad(3)),
        lambda: check_operad_axioms(reflavor(orders_operad(3), MIXED2)),
        lambda: nerve(build_q(2, 4)),
    ],
    ids=["n=2", "symmetric", "mixed2", "nerve"],
)
def test_composites_and_restrictions_are_looked_up(monkeypatch, run):
    # maps are enumerated and validated once; no inner loop rebuilds one
    from operadkit import operads, ordinal_maps, quasicat

    calls = []
    for module in (ordinal_maps, operads, quasicat):
        for name in ("compose", "fiber", "restrict_map"):
            if hasattr(module, name):
                real = getattr(module, name)

                def counting(*args, real=real, name=name):
                    calls.append(name)
                    return real(*args)

                monkeypatch.setattr(module, name, counting)
    run()
    assert calls == []


def test_square_orientation_is_rigid():
    # flipping any sign in the square identities breaks real instances
    from operadkit.operads import (
        _check_square_eq1,
        _check_square_eq2,
        _covered,
        _surjections,
    )

    op = orders_operad(3)
    mixed = reflavor(orders_operad(3), MIXED2)
    covered = _covered(op, _surjections(op, 3))
    mixed_covered = _covered(mixed, _surjections(mixed, 3))
    for signs in itertools.product([True, False], repeat=3):
        plain, twisted = [], []
        _check_square_eq1(op, covered, 3, plain, braided=False, signs=signs)
        _check_square_eq1(mixed, mixed_covered, 3, twisted, braided=True, signs=signs)
        expected = signs == (True, True, True)
        assert (not plain) == expected
        assert (not twisted) == expected
    for signs in itertools.product([True, False], repeat=2):
        plain, twisted = [], []
        _check_square_eq2(op, covered, 3, plain, braided=False, signs=signs)
        _check_square_eq2(mixed, mixed_covered, 3, twisted, braided=True, signs=signs)
        expected = signs == (True, False)
        assert (not plain) == expected
        assert (not twisted) == expected


def test_fault_injection_breaks_associativity():
    def corrupted():
        op = endomorphism_symmetric_operad((0, 1), 2)
        ident = identity_map(line(2))
        table = list(op.mult(ident))
        xor, negation = (0, 1, 1, 0), (1, 0)
        key = offset(op, ident, (xor, negation, decoding(op, line(1))[op.unit]))
        table[key] = decoding(op, line(2)).index((0, 0, 0, 0))
        assert op.mult(ident)[key] != table[key]
        return FiniteOperad(op.collection, op.unit, op.bound, {ident: table}, op.supplier)

    report = check_operad_axioms(corrupted())
    assert not report.passed
    first = report.failures[0]
    assert first.axiom == "associativity"
    # the corrupted identity table participates in the named instance
    assert "2:0>2:0|0,1" in first.instance
    assert len(first.witness) == 4
    assert not any(f.axiom.startswith("unit") for f in report.failures)
    # the report is a deterministic function of the operad
    assert report == check_operad_axioms(corrupted())


def test_fault_injection_breaks_unit_law():
    op = orders_operad(2)
    const = OrdinalMap(line(2), line(1), (0, 0))
    table = list(op.mult(const))
    table[offset(op, const, ((0,), (0, 1)))] = decoding(op, line(2)).index((1, 0))
    broken = FiniteOperad(op.collection, op.unit, op.bound, {const: table}, op.supplier)
    report = check_operad_axioms(broken)
    assert not report.passed
    bad = [f for f in report.failures if f.axiom == "unit-left"]
    assert bad and bad[0].witness == ((0, 1), (1, 0))


def test_corrupt_action_raises_invariant_broken():
    op = orders_operad(2)
    actions = dict(op.collection.actions)
    assert decoding(op, line(2)) == ((0, 1), (1, 0))
    actions[(1, 1)] = [1, 0]
    ok = FiniteCollection(SYMMETRIC, op.collection.carrier, actions)
    check_operad_axioms(FiniteOperad(ok, op.unit, 2, {}, op.supplier))
    actions[(1, 1)] = [1, 1]
    bad = FiniteCollection(SYMMETRIC, op.collection.carrier, actions)
    with pytest.raises(InvariantBroken):
        check_operad_axioms(FiniteOperad(bad, op.unit, 2, {}, op.supplier))
    braided = FiniteCollection(BRAIDED, op.collection.carrier, actions)
    with pytest.raises(InvariantBroken):
        check_operad_axioms(FiniteOperad(braided, op.unit, 2, {}, op.supplier))


def test_desymmetrise_endomorphism():
    sym = endomorphism_symmetric_operad((0, 1), 2)
    op = desymmetrise(sym, 2)
    assert op.flavor == N_OPERAD(2)
    assert len(op.carrier_of(flat2())) == 16
    assert len(op.carrier_of(sharp2())) == 16
    assert check_operad_axioms(op).passed
    assert is_quasisymmetric(op)
    with pytest.raises(BoundExceeded):
        desymmetrise(sym, 2, 3)
    with pytest.raises(OutOfRange):
        desymmetrise(terminal_operad(MIXED2, 2), 2)


def test_desymmetrise_orders():
    op = desymmetrise(orders_operad(3), 2)
    assert check_operad_axioms(op).passed
    assert is_quasisymmetric(op)
    # the same carriers hang on every ordinal of one arity
    for a in enumerate_ordinals(2, 3):
        assert len(op.carrier_of(a)) == 6


def test_induced_action_is_input_transposition():
    op = desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2)
    swap = OrdinalMap(flat2(), sharp2(), (1, 0))
    action = induced_action(op, swap)
    inputs = list(itertools.product((0, 1), repeat=2))
    index = {t: i for i, t in enumerate(inputs)}
    for x, a in enumerate(decoding(op, sharp2())):
        assert decoding(op, flat2())[action[x]] == tuple(a[index[(v, u)]] for (u, v) in inputs)
    assert action_is_bijection(action)
    ident = induced_action(op, OrdinalMap(flat2(), sharp2(), (0, 1)))
    assert all(ident[a] == a for a in op.carrier_of(sharp2()))


def test_induced_action_contravariant():
    op = desymmetrise(orders_operad(3), 2)
    objs = op.index_ordinals()
    for a, b, c in itertools.product(objs, repeat=3):
        if not a.arity == b.arity == c.arity:
            continue
        for first in enumerate_maps(a, b, kind="quasi"):
            for second in enumerate_maps(b, c, kind="quasi"):
                left = induced_action(op, compose(second, first))
                af = induced_action(op, first)
                before = induced_action(op, second)
                assert left == [af[v] for v in before]


def test_induced_action_errors():
    op = desymmetrise(orders_operad(3), 2, 2)
    with pytest.raises(NotQuasibijection):
        induced_action(op, OrdinalMap(flat2(), point2(), (0, 0)))
    tall = make_ordinal(2, [0, 0])
    with pytest.raises(BoundExceeded) as info:
        induced_action(op, identity_map(tall))
    assert info.value.code == "BOUND_EXCEEDED"


def test_counterexample_fails_quasisymmetry_only():
    op = non_quasisymmetric_operad()
    assert check_operad_axioms(op).passed
    assert not is_quasisymmetric(op)
    witness = induced_action(op, OrdinalMap(flat2(), sharp2(), (1, 0)))
    assert len(set(witness)) == 1


def test_locally_constant_matches_quasisymmetry():
    ops = [
        desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2),
        desymmetrise(orders_operad(3), 2),
        non_quasisymmetric_operad(),
    ]
    for op in ops:
        assert is_locally_constant(op, action_is_bijection) == is_quasisymmetric(op)
    # a weaker equivalence notion can accept the counterexample
    assert is_locally_constant(ops[2], lambda action: True)


def test_extension_agrees_with_stored_tables():
    op = desymmetrise(orders_operad(3), 2)
    seen = 0
    for total in range(1, 4):
        for src in enumerate_ordinals(2, total):
            for k in range(1, total + 1):
                for tgt in enumerate_ordinals(2, k):
                    for sigma in enumerate_maps(src, tgt, kind="order"):
                        if not sigma.is_surjective:
                            continue
                        assert extend_multiplication(op, sigma) == op.mult(sigma)
                        seen += 1
    assert seen > 10


def test_extension_is_route_independent():
    op = desymmetrise(orders_operad(3), 2)
    compared = 0
    for total in range(2, 4):
        for src in enumerate_ordinals(2, total):
            for k in range(1, total + 1):
                for tgt in enumerate_ordinals(2, k):
                    for sigma in enumerate_maps(src, tgt, kind="all"):
                        if not sigma.is_surjective:
                            continue
                        canonical = extend_multiplication(op, sigma)
                        for route in all_factorizations(sigma, 2):
                            value = extend_multiplication(op, sigma, route=route)
                            assert value == canonical
                            compared += 1
    assert compared > 50


def test_extension_of_quasibijection_matches_induced_action():
    op = desymmetrise(orders_operad(3), 2)
    objs = op.index_ordinals()
    for a, b in itertools.product(objs, repeat=2):
        if a.arity != b.arity:
            continue
        for sigma in enumerate_maps(a, b, kind="quasi"):
            table = extend_multiplication(op, sigma)
            units = (decoding(op, point2())[op.unit],) * sigma.source.arity
            derived = [table[offset(op, sigma, (x, *units))] for x in decoding(op, b)]
            assert derived == induced_action(op, sigma)


def test_extension_raises_not_quasisymmetric():
    op = non_quasisymmetric_operad()
    const = OrdinalMap(flat2(), point2(), (0, 0))
    twisted = (OrdinalMap(flat2(), sharp2(), (1, 0)), OrdinalMap(sharp2(), point2(), (0, 0)))
    with pytest.raises(NotQuasisymmetric) as info:
        extend_multiplication(op, const, route=twisted)
    assert info.value.code == "NOT_QUASISYMMETRIC"


def test_extension_argument_errors():
    op = desymmetrise(orders_operad(3), 2)
    with pytest.raises(OutOfRange):
        extend_multiplication(op, OrdinalMap(point2(), flat2(), (0,)))
    with pytest.raises(OutOfRange):
        extend_multiplication(
            op,
            OrdinalMap(flat2(), point2(), (0, 0)),
            route=(identity_map(flat2()), identity_map(flat2())),
        )
    with pytest.raises(OutOfRange):
        extend_multiplication(orders_operad(2), OrdinalMap(line(2), line(1), (0, 0)))


def test_braided_action_is_input_swap():
    sym = endomorphism_symmetric_operad((0, 1), 3)
    op = desymmetrise(sym, 2, 3)
    result = braided_action_from_quasisymmetric(op, 3)
    assert result.strands == 3
    assert result.relations == ("braid(1,2)",)
    inputs = list(itertools.product((0, 1), repeat=3))
    index = {t: i for i, t in enumerate(inputs)}
    for g in (1, 2):
        action = result.actions[g - 1]
        for x, f in enumerate(result.carrier):
            swapped = []
            for args in inputs:
                moved = list(args)
                moved[g - 1], moved[g] = moved[g], moved[g - 1]
                swapped.append(f[index[tuple(moved)]])
            assert result.carrier[action[x]] == tuple(swapped)
    bundle = result.to_json()
    assert bundle["strands"] == 3 and len(bundle["actions"]) == 2
    assert sorted(bundle["actions"][0]) == list(range(len(result.carrier)))


def test_braided_action_far_commutation():
    op = desymmetrise(orders_operad(4), 2, 4)
    result = braided_action_from_quasisymmetric(op, 4)
    assert set(result.relations) == {
        "far-commutation(1,3)",
        "braid(1,2)",
        "braid(2,3)",
    }


def test_braided_action_relation_failure():
    # hand-built tables: generator one swaps, generator two freezes
    pt, top = point2(), make_ordinal(2, [0, 0])
    carrier = {pt: ("e",), top: (0, 1)}
    tables = {}
    for g in (1, 2):
        forward, backward = (leg for _, leg in generator_span(3, g).legs)
        carrier[forward.target] = (0, 1)
        # the fibers are points: one entry per top element
        tables[backward] = [0, 1]
        flip = g == 1
        tables[forward] = [1, 0] if flip else [0, 1]
    coll = FiniteCollection(N_OPERAD(2), carrier, {})
    op = FiniteOperad(coll, 0, 3, tables)
    with pytest.raises(RelationFailed) as info:
        braided_action_from_quasisymmetric(op, 3)
    assert info.value.code == "RELATION_FAILED"
    assert "braid(1,2)" in info.value.message
    assert info.value.payload["witness"] in (0, 1)


def test_braided_action_argument_errors():
    with pytest.raises(OutOfRange):
        braided_action_from_quasisymmetric(orders_operad(3), 3)
    op = desymmetrise(orders_operad(3), 2)
    with pytest.raises(BoundExceeded):
        braided_action_from_quasisymmetric(op, 4)
    with pytest.raises(NotQuasisymmetric):
        braided_action_from_quasisymmetric(non_quasisymmetric_operad(), 2)


def test_json_round_trip():
    ops = [
        orders_operad(3),
        reflavor(orders_operad(2), BRAIDED),
        desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2),
        non_quasisymmetric_operad(),
    ]
    for op in ops:
        bundle = operad_to_json(op)
        text = json.dumps(bundle, sort_keys=True)
        back = operad_from_json(json.loads(text))
        assert back.flavor == op.flavor and back.bound == op.bound
        assert json.dumps(operad_to_json(back), sort_keys=True) == text
        assert check_operad_axioms(back).passed
    with pytest.raises(OutOfRange):
        operad_from_json({"bound": 2})


def test_missing_table_after_round_trip():
    back = operad_from_json(operad_to_json(orders_operad(2)))
    with pytest.raises(MissingTable) as info:
        back.mult(OrdinalMap(line(1), line(2), (0,)))
    assert info.value.code == "MISSING_TABLE"
    assert "morphism" in info.value.payload


def test_check_bound_exceeded():
    op = orders_operad(2)
    with pytest.raises(BoundExceeded):
        check_operad_axioms(op, bound=3)
    with pytest.raises(OutOfRange):
        check_operad_axioms(op, bound=0)
    report = check_operad_axioms(op, bound=1)
    assert report.passed


@pytest.mark.parametrize(
    "g3, message, generators",
    [
        ((0, 2, 1), "far commutation fails", [1, 3]),
        ((0, 1, 2), "braid relation fails", [1, 2]),
    ],
    ids=["far commutation", "braid relation"],
)
def test_validate_collection_names_the_broken_relation(g3, message, generators):
    # 4 strands on {0, 1, 2}: s1 swaps 0 and 1, s2 is the identity
    images = {1: (1, 0, 2), 2: (0, 1, 2), 3: g3}
    actions = {(3, i): list(image) for i, image in images.items()}
    coll = FiniteCollection(BRAIDED, {3: (0, 1, 2)}, actions)
    with pytest.raises(InvariantBroken) as info:
        validate_collection(coll)
    assert info.value.message == message
    assert info.value.payload == {"key": 3, "generators": generators, "witness": 0}
