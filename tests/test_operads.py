import dataclasses
import functools
import itertools
import json
import random
import time

import pytest
from oracles import differing_arguments

from operadkit import operads
from operadkit.braids import BraidWord, braid_sum, invert, q_section
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
    AxiomFailure,
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
    is_quasisymmetric,
    morphism_key,
    non_quasisymmetric_operad,
    operad_from_json,
    operad_to_json,
    orders_operad,
    reflavor,
    terminal_operad,
    validate_collection,
)
from operadkit.operads import _carrier_key
from operadkit.ordinal_maps import (
    OrdinalMap,
    compose,
    enumerate_maps,
    fiber,
    identity_map,
    morphism_violation,
)
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
    # n is taken as it is: no coercion of a float, a string or a bool
    for n in (2.5, 2.0, "3", True):
        with pytest.raises(OutOfRange):
            N_OPERAD(n)
        with pytest.raises(OutOfRange):
            Flavor("n-operad", n)


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


@pytest.mark.parametrize("values, bound", [((0, 1), 5), ((0, 1), 28), ((0, 1, 2), 10**9)])
def test_endomorphism_carrier_cap_is_decided_per_arity(values, bound):
    # q**(q**bound) is never formed: End{0,1} at bound 28 has 2**(2**28)
    # elements at its top arity
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as info:
        endomorphism_symmetric_operad(values, bound)
    assert time.perf_counter() - started < 2.0
    assert info.value.to_json() == {
        "code": "RESOURCE_LIMIT", "message": "endomorphism carrier would be too large",
        "size": len(values), "bound": bound, "cap": 100_000,
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: terminal_operad(SYMMETRIC, 4000),
        lambda: terminal_operad(N_OPERAD(2), 18),
        lambda: orders_operad(10),
        lambda: endomorphism_symmetric_operad((0,), 1000),
        lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 10**6, 2),
    ],
    ids=["terminal-4000", "terminal-n2-18", "orders-10", "end-0-1000", "desymmetrise-n-10^6"],
)
def test_builtins_are_priced_before_they_are_built(build):
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as info:
        build()
    assert time.perf_counter() - started < 2.0
    assert info.value.message == "too many candidate maps between index ordinals"


def test_the_check_counts_candidates_before_it_validates(monkeypatch):
    op = dataclasses.replace(terminal_operad(SYMMETRIC, 3), bound=600)

    def validate(collection):
        pytest.fail("the generator images were validated before the count")

    monkeypatch.setattr(operads, "validate_collection", validate)
    with pytest.raises(ResourceLimit) as info:
        check_operad_axioms(op)
    assert info.value.message == "too many candidate maps between index ordinals"


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
        lambda: orders_operad(4),
        lambda: endomorphism_symmetric_operad((0, 1), 2),
        lambda: endomorphism_symmetric_operad((0, 1), 3),
        lambda: terminal_operad(SYMMETRIC, 4),
    ],
    ids=["orders-4", "End-2", "End-3", "terminal-4"],
)
def test_inverted_lift_acts_as_the_lift_of_the_inverse(make):
    # the checker lifts every vertical and its inverse by one rule for all
    # flavors; on a validated symmetric collection the generators are
    # Coxeter involutions, so the inverted positive braid of t acts exactly
    # as the positive braid of t^-1
    op = make()
    coll = op.collection
    validate_collection(coll)
    for k in range(1, op.bound + 1):
        for t in itertools.permutations(range(k)):
            inverted = coll.action_of_word(k - 1, q_section(t).inverse().word)
            assert inverted == coll.action_of_word(k - 1, q_section(invert(t)).word), t


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
    "flavor, bound",
    [(SYMMETRIC, 5), (N_OPERAD(1), 4), (N_OPERAD(2), 2), (N_OPERAD(2), 4), (N_OPERAD(3), 3)],
)
def test_candidate_maps_are_predicted_exactly(flavor, bound):
    # the prediction behind the surjection budget counts the tables tested
    from operadkit import operads

    objs = operads._index_ordinals(flavor, bound)
    enumerated = sum(1 for _ in operads._candidates(objs))
    assert operads._candidate_count(flavor, bound) == enumerated


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


def test_square_orientation_is_rigid(monkeypatch):
    # the square checks lift each vertical in one fixed direction; lifting
    # every one the other way breaks real instances
    from operadkit import operads
    from operadkit.operads import (
        _check_square_eq1,
        _check_square_eq2,
        _covered,
        _squares,
        _surjections,
    )

    op = orders_operad(3)
    mixed = reflavor(orders_operad(3), MIXED2)
    squares = _squares(_covered(op, _surjections(op, 3)), 3, braided=False)
    mixed_squares = _squares(_covered(mixed, _surjections(mixed, 3)), 3, braided=True)

    def failures():
        found = []
        for check in (_check_square_eq1, _check_square_eq2):
            plain, twisted = [], []
            check(op, squares, plain)
            check(mixed, mixed_squares, twisted)
            found.append((bool(plain), bool(twisted)))
        return found

    assert failures() == [(False, False), (False, False)]
    real = operads._lift_word

    def flipped(table, inverse):
        return real(table, not inverse)

    monkeypatch.setattr(operads, "_lift_word", flipped)
    assert failures() == [(True, True), (True, True)]


@pytest.mark.parametrize(
    "name, wrong, axiom",
    [
        # the top braid on the total strand count, not cabled
        ("cable", lambda b, sizes: BraidWord(sum(sizes), b.word), "equivariance-1"),
        # the slot braids side by side in reverse order
        ("braid_sum", lambda parts: braid_sum(parts[::-1]), "equivariance-2"),
    ],
    ids=["cable", "braid_sum"],
)
def test_reindexing_output_lift_is_rigid(monkeypatch, name, wrong, axiom):
    # the reindexing check derives each move's output braid in one way for
    # every flavor; deriving it wrongly breaks real instances
    from operadkit import operads

    def report(flavor):
        op = orders_operad(3)
        return check_operad_axioms(op if flavor is SYMMETRIC else reflavor(op, flavor))

    assert report(SYMMETRIC).passed and report(BRAIDED).passed
    # a fresh cache, so the derived moves are rebuilt with the wrong lift
    fresh = functools.cache(operads._reindexing_moves.__wrapped__)
    monkeypatch.setattr(operads, "_reindexing_moves", fresh)
    monkeypatch.setattr(operads, name, wrong)
    for flavor in (SYMMETRIC, BRAIDED):
        failed = report(flavor)
        assert not failed.passed
        assert {f.axiom for f in failed.failures} == {axiom}


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


def _corrupted(op, rng):
    """``op`` with one entry of one of its memoised tables changed to
    another element of the same carrier."""
    sites = [s for s in op.tables if len(decoding(op, s.source)) > 1]
    sigma = rng.choice(sorted(sites, key=morphism_key))
    table = list(op.tables[sigma])
    i = rng.randrange(len(table))
    table[i] = rng.choice([v for v in range(len(decoding(op, sigma.source))) if v != table[i]])
    tables = {**op.tables, sigma: table}
    return FiniteOperad(op.collection, op.unit, op.bound, tables, op.supplier)


@pytest.mark.parametrize(
    "make",
    [lambda: endomorphism_symmetric_operad((0, 1), 2), lambda: orders_operad(3)],
    ids=["end01-2", "orders-3"],
)
@pytest.mark.parametrize("flavor", [SYMMETRIC, BRAIDED, MIXED2], ids=str)
def test_witnesses_come_in_the_zip_loop_order(monkeypatch, make, flavor):
    # every call compares the checker's witnesses, in order, with the
    # plain loop's; the report of a check that takes the loop's is the same
    real = operads._mismatches

    def by_zip_loop(coll, keys, lhs, rhs, axiom, instance, failures):
        ours = []
        assert real(coll, keys, lhs, rhs, axiom, instance, ours) == len(lhs)
        decodings = [coll.decoding(key) for key in keys]
        theirs = [
            AxiomFailure(axiom, instance, args)
            for args in differing_arguments(decodings, lhs, rhs)
        ]
        assert ours == theirs
        failures += theirs
        return len(lhs)

    op = make()
    assert check_operad_axioms(op).passed  # memoises every table
    rng = random.Random(f"witness order {flavor}")
    for _ in range(6):
        broken = _corrupted(op, rng)
        if flavor is not SYMMETRIC:
            broken = reflavor(broken, flavor)
        report = check_operad_axioms(broken)
        assert not report.passed
        with monkeypatch.context() as patched:
            patched.setattr(operads, "_mismatches", by_zip_loop)
            assert check_operad_axioms(broken) == report


def test_report_orders_failures_by_the_repr_of_their_witnesses():
    # _report puts each witness's repr together from its elements' reprs;
    # the order must be that of repr(witness) itself, and stable among
    # witnesses with one repr (equal values held by distinct tuples)
    first, second = tuple([0, 1]), tuple([0, 1])
    assert first is not second
    elements = [9, 10, -1, "a'b", 'a"b', "\\", "\n", "é", (9,), (10,), (), first, second]
    witnesses = [(), *((x,) for x in elements)]
    witnesses += [(x, y) for x in elements for y in elements[:6]]
    witnesses += [(9, 10, 9), ((9, 10), 9), (first, second, first)]
    failures = [
        AxiomFailure(axiom, instance, witness)
        for axiom in ("associativity", "unit-left")
        for instance in ("2:0>1:|0,0", "2:1>1:|0,0")
        for witness in witnesses
    ]
    random.Random("report order").shuffle(failures)
    report = operads._report(failures, 7)
    expected = sorted(failures, key=lambda f: (f.axiom, f.instance, repr(f.witness)))
    assert list(map(id, report.failures)) == list(map(id, expected))
    assert (report.passed, report.checked) == (False, 7)
    assert operads._report([], 3) == operads.AxiomReport(True, (), 3)


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


def test_induced_action_reads_a_stored_table_first():
    # the quasi_actor shortcut stands in for a table that is not stored;
    # a stored one is read by unit insertion, as the axiom check reads it
    op = desymmetrise(orders_operad(2), 2, 2)
    twist = OrdinalMap(flat2(), sharp2(), (1, 0))
    assert induced_action(op, twist) == [1, 0]
    op.tables[twist] = [0, 1]
    assert check_operad_axioms(op).passed
    assert induced_action(op, twist) == [0, 1]


@pytest.mark.parametrize(
    "sym, n, bound",
    [(orders_operad(3), 2, 3), (orders_operad(3), 3, 3),
     (endomorphism_symmetric_operad((0, 1), 3), 2, 3)],
    ids=["orders n=2", "orders n=3", "End{0,1} n=2"],
)
def test_the_quasi_actor_shortcut_agrees_with_unit_insertion(sym, n, bound):
    # on a symmetric operad whose unit law holds, the sorting permutation's
    # action is the one unit insertion reads off the supplied tables; unit
    # insertion goes first, so the shortcut finds the identity-line tables
    # stored and reads the law in them
    op = desymmetrise(sym, n, bound)
    plain = dataclasses.replace(op, quasi_actor=None)
    quasibijections = [
        sigma
        for k in range(1, bound + 1)
        for t in enumerate_ordinals(n, k)
        for s in enumerate_ordinals(n, k)
        for sigma in enumerate_maps(t, s, kind="quasi")
    ]
    assert quasibijections
    for sigma in quasibijections:
        assert induced_action(plain, sigma) == induced_action(op, sigma), sigma


def test_the_quasi_actor_shortcut_refuses_a_broken_unit_right_law():
    # orders(3) with the unit-right results of a = 0 and a = 1 swapped at
    # the identity of the 2-element line: the sorting permutation's action
    # and unit insertion part ways, so the shortcut reads the law first
    sym = orders_operad(3)
    line = identity_map(make_ordinal(1, (0,)))
    assert sym.mult(line) == [0, 1]  # one arity-one element: all unit-right entries
    sym.tables[line] = [1, 0]
    assert not check_operad_axioms(sym).passed
    op = desymmetrise(sym, 2)
    assert induced_action(op, identity_map(point2())) == [0]
    with pytest.raises(InvariantBroken) as info:
        induced_action(op, OrdinalMap(flat2(), sharp2(), (1, 0)))
    assert info.value.payload == {"arity": 2, "element": (0, 1)}
    with pytest.raises(InvariantBroken):
        is_quasisymmetric(desymmetrise(sym, 2))
    # the law is read only where the table is stored: none is built for it
    sym = orders_operad(3)
    assert induced_action(desymmetrise(sym, 2), OrdinalMap(flat2(), sharp2(), (1, 0))) == [1, 0]
    assert sym.tables == {}


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
    with pytest.raises(BoundExceeded) as info:
        is_quasisymmetric(op, op.bound + 1)
    assert info.value.payload == {"bound": 3}


def test_locally_constant_matches_quasisymmetry():
    # local constancy read off its definition: every permutation table
    # between index ordinals of one arity that is a morphism is a
    # quasibijection, and each must act by a bijection
    def locally_constant(op):
        objs = op.index_ordinals()
        for s, t in itertools.product(objs, repeat=2):
            tables = itertools.permutations(range(s.arity)) if s.arity == t.arity else ()
            for table in tables:
                if morphism_violation(s, t, table) is None:
                    action = induced_action(op, OrdinalMap(s, t, table))
                    if len(set(action)) != len(action):
                        return False
        return True

    ops = [
        desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2),
        desymmetrise(orders_operad(3), 2),
        non_quasisymmetric_operad(),
    ]
    assert [locally_constant(op) for op in ops] == [True, True, False]
    assert [is_quasisymmetric(op) for op in ops] == [True, True, False]


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
    for k in (0, -1):
        with pytest.raises(OutOfRange) as info:
            braided_action_from_quasisymmetric(op, k)
        assert info.value.payload == {"strands": k}
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


@pytest.mark.parametrize(
    "missing, composite",
    [
        # the composite of 3:0,0>2:0|0,0,1 and 2:0>1:|0,0
        (OrdinalMap(line(3), line(1), (0, 0, 0)), True),
        # 3:0,0>2:0|0,0,1 with its two slots swapped, and no composite
        (OrdinalMap(line(3), line(2), (0, 1, 1)), False),
    ],
    ids=["associativity composite", "reindexing move"],
)
def test_a_missing_table_fails_the_check_and_skips_what_needs_it(
    monkeypatch, missing, composite
):
    # a PASS never rests on a table that is not there: the instances that
    # need it are skipped, and the report FAILs on its coverage
    complete = operad_from_json(operad_to_json(orders_operad(3)))
    partial = dataclasses.replace(
        complete, tables={s: t for s, t in complete.tables.items() if s != missing}
    )
    skipped = []
    lookup = operads._instance_tables

    def recording(covered, sigma, omega):
        found = lookup(covered, sigma, omega)
        if found is None:
            skipped.append((sigma.name, omega.name))
        return found

    monkeypatch.setattr(operads, "_instance_tables", recording)
    full = check_operad_axioms(complete)
    assert full.passed and skipped == []
    report = check_operad_axioms(partial)
    assert not report.passed
    assert [(f.axiom, f.instance) for f in report.failures] == [
        ("coverage", morphism_key(missing))
    ]
    assert report.checked < full.checked
    assert bool(skipped) == composite
    # the document leaves the missing table out
    left_out = set(operad_to_json(complete)["mult"]) - set(operad_to_json(partial)["mult"])
    assert left_out == {morphism_key(missing)}


def _corrupted_desymmetrised():
    """The corrupted desymmetrised 3-operad whose report is pinned in
    test_pinned_reports: three tables replaced, each with one entry changed."""
    op = desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 3, 2)
    point = make_ordinal(3, (), arity=1)
    pair = [make_ordinal(3, (p,)) for p in range(3)]
    for sigma, at, value in [
        (OrdinalMap(pair[1], point, (0, 0)), 5, 9),
        (OrdinalMap(pair[0], pair[2], (1, 0)), 3, 12),
        (OrdinalMap(pair[2], pair[2], (0, 1)), 40, 1),
    ]:
        table = list(op.mult(sigma))
        table[at] = value
        op.tables[sigma] = table
    return op


def _associativity_comparisons(monkeypatch) -> list:
    """Records the instance name of every associativity comparison."""
    compared = []
    real = operads._mismatches

    def recording(coll, keys, lhs, rhs, axiom, instance, failures):
        if axiom == "associativity":
            compared.append(instance)
        return real(coll, keys, lhs, rhs, axiom, instance, failures)

    monkeypatch.setattr(operads, "_mismatches", recording)
    return compared


@pytest.mark.parametrize(
    "make, comparisons",
    [
        (lambda: operad_from_json(operad_to_json(terminal_operad(N_OPERAD(2), 3))), (17, 197)),
        (lambda: operad_from_json(operad_to_json(endomorphism_symmetric_operad((0, 1), 2))),
         (4, 4)),
        (lambda: operad_from_json(operad_to_json(orders_operad(3))), (13, 13)),
        (lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2), (7, 13)),
        (lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 3), (8, 32)),
        (_corrupted_desymmetrised, (23, 32)),
    ],
    ids=["terminal n=2", "End{0,1}", "orders", "desymmetrised n=2", "desymmetrised n=3",
         "corrupted desymmetrised n=3"],
)
def test_shared_tables_give_the_report_of_private_copies(monkeypatch, make, comparisons):
    # an instance is skipped only when one with the same tables, by
    # identity, and the same sizes was compared and matched; the report,
    # counts and witnesses included, is the one of the same operad with
    # every table a private copy.  The documents read back share their
    # equal tables, and the corrupted operad compares every failing
    # instance
    compared = _associativity_comparisons(monkeypatch)
    op = make()
    report = check_operad_axioms(op)
    shared = len(compared)
    private = dataclasses.replace(
        op, tables={s: list(t) for s, t in op.tables.items()}, supplier=None
    )
    assert report.to_json() == check_operad_axioms(private).to_json()
    assert (shared, len(compared) - shared) == comparisons


@pytest.mark.parametrize(
    "make",
    [
        lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2),
        lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 3),
        _corrupted_desymmetrised,
    ],
    ids=["desymmetrised n=2", "desymmetrised n=3", "corrupted desymmetrised n=3"],
)
def test_each_associativity_instance_is_looked_up_once(monkeypatch, make):
    # the tables of an instance are found once, whether the instance is
    # compared or skipped as a repeat of one with shared tables
    looked_up = []
    lookup = operads._instance_tables

    def recording(covered, sigma, omega):
        looked_up.append((sigma.name, omega.name))
        return lookup(covered, sigma, omega)

    monkeypatch.setattr(operads, "_instance_tables", recording)
    compared = _associativity_comparisons(monkeypatch)
    check_operad_axioms(make())
    assert len(compared) > 0
    assert len(looked_up) == len(set(looked_up))


def test_equal_tables_are_one_list():
    # the maps with one underlying map carry one table, in a desymmetrised
    # operad and in its document read back; other tables stay apart
    pair = [make_ordinal(2, (p,)) for p in range(2)]
    point = make_ordinal(2, (), arity=1)
    de = desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2)
    back = operad_from_json(operad_to_json(de))
    for op in (de, back):
        first, second = (op.table(OrdinalMap(a, point, (0, 0))) for a in pair)
        assert first is second
        assert op.table(identity_map(pair[0])) is op.table(identity_map(pair[1]))
        assert op.table(identity_map(pair[0])) is not first


def test_desymmetrised_n8_document_compares_eight_instances(monkeypatch):
    # its 417 associativity instances repeat 8 distinct ones: each is
    # compared once, and every instance is still counted in full
    compared = _associativity_comparisons(monkeypatch)
    doc = operad_to_json(desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 8, 2))
    report = check_operad_axioms(operad_from_json(doc))
    assert (report.passed, report.checked, len(compared)) == (True, 1476936, 8)


def test_a_desymmetrised_operad_has_no_tables_at_another_n():
    op = desymmetrise(orders_operad(3), 2)
    flat3 = make_ordinal(3, [0])
    point3 = make_ordinal(3, [], arity=1)
    assert op.table(OrdinalMap(flat3, point3, (0, 0))) is None
    with pytest.raises(MissingTable) as info:
        induced_action(op, identity_map(flat3))
    assert info.value.payload == {"morphism": morphism_key(identity_map(flat3))}


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: validate_collection(
            FiniteCollection(N_OPERAD(2), {point2(): ("e",)}, {(point2(), 1): [0]})
        ), "n-operad collections store no actions"),
        (lambda: validate_collection(FiniteCollection(BRAIDED, {1: (0, 1)}, {(1, 1): [1]})),
         "action domain differs from the carrier"),
        (lambda: validate_collection(FiniteCollection(BRAIDED, {1: (0, 1)}, {(1, 1): [1, 2]})),
         "action leaves the carrier"),
        (lambda: FiniteCollection(BRAIDED, {1: (0, 1)}, {(1, 1): [0, 0]}).action_of_word(1, [-1]),
         "generator action is not invertible"),
        (lambda: check_operad_axioms(dataclasses.replace(orders_operad(2), unit=1)),
         "unit element is not in the arity-one carrier"),
    ],
    ids=["n-operad with actions", "action too short", "action leaves the carrier",
         "inverse of a collapse", "unit outside the carrier"],
)
def test_broken_collections_and_units_are_refused(run, message):
    with pytest.raises(InvariantBroken) as info:
        run()
    assert info.value.message == message


@pytest.mark.parametrize(
    "run",
    [
        lambda: terminal_operad(SYMMETRIC, 0),
        lambda: orders_operad(0),
        lambda: endomorphism_symmetric_operad((0, 1), 0),
        lambda: desymmetrise(orders_operad(2), 2, 0),
        lambda: check_operad_axioms(orders_operad(2), 0),
        lambda: is_quasisymmetric(desymmetrise(orders_operad(2), 2), 0),
        lambda: operad_to_json(dataclasses.replace(orders_operad(2), bound=-1)),
    ],
    ids=["terminal", "orders", "endomorphism", "desymmetrise", "check", "quasisymmetry",
         "document"],
)
def test_a_bound_below_one_is_refused_wherever_ordinals_are_listed(run):
    # _index_ordinals refuses it; is_quasisymmetric used to answer True, and
    # operad_to_json to write no carriers or to fail on a stored action
    with pytest.raises(OutOfRange) as info:
        run()
    assert info.value.message == "bound must be at least 1"
