"""Acceptance gate: twelve end-to-end checks across the whole package.

Each test prints exactly one `[criterion NN] PASS|FAIL <label>` line and
keeps the first few witnesses in its assertion message.  Fixed expected
values (homology groups, relation names, counts) were computed once
against the independent oracles, in oracles.py and in the benchmark's
reference.py (neither imports operadkit), and then frozen here.
"""

import itertools
import random
import time

from oracles import burau3_is_identity, count_ascending_structures

from operadkit import (
    BRAIDED,
    MIXED2,
    N_OPERAD,
    SYMMETRIC,
    BraidWord,
    OrdinalMap,
    StratumLabel,
    ZigZag,
    all_factorizations,
    artin_diagram_check,
    braid_equal,
    braid_of_quasibijection,
    braid_of_zigzag,
    braid_sum,
    braided_action_from_quasisymmetric,
    build_j,
    build_q,
    check_operad_axioms,
    classify_stratum,
    compose,
    connected_components,
    count_ordinals,
    crossing_sums,
    degeneration_check,
    desymmetrise,
    endomorphism_symmetric_operad,
    enumerate_maps,
    enumerate_ordinals,
    extend_multiplication,
    factorize,
    homology,
    identity_map,
    is_locally_constant,
    is_quasisymmetric,
    is_trivial,
    action_is_bijection,
    make_ordinal,
    nerve,
    order_complex,
    orders_operad,
    sample_stratum,
    split_zigzag,
    terminal_operad,
    verify_partition,
)

Z = (1, ())


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} {label}")
    assert not failures, f"criterion {num}: {failures[:10]}"


def test_criterion_01_ordinal_counts():
    failures: list = []
    start = time.perf_counter()
    try:
        for n in range(1, 4):
            for k in range(1, 6):
                want = n ** (k - 1)
                got = count_ordinals(n, k)
                listed = list(enumerate_ordinals(n, k))
                oracle = count_ascending_structures(n, k)
                if not (want == got == len(listed) == oracle):
                    failures.append((n, k, want, got, len(listed), oracle))
                seen = set()
                for o in listed:
                    seen.add(o.levels)
                    # every enumerated shape must be an honest relation table
                    for a in range(k):
                        for b in range(a + 1, k):
                            if not 0 <= o.rel(a, b) < n:
                                failures.append((n, k, o.levels, "range", a, b))
                            for c in range(b + 1, k):
                                if o.rel(a, c) != min(o.rel(a, b), o.rel(b, c)):
                                    failures.append((n, k, o.levels, a, b, c))
                if len(seen) != len(listed):
                    failures.append((n, k, "duplicate shapes"))
    except Exception as exc:
        failures.append(repr(exc))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _report(1, "ordinal counts match the closed form and the brute-force oracle", failures)


def test_criterion_02_reference_homology():
    cases = [
        ("Q", 2, 2, (Z, Z), None),
        ("Q", 3, 2, (Z, (0, (2,)), (0, ())), 1),
        ("J", 3, 2, (Z, (0, ()), Z), None),
        ("J", 2, 3, (Z, (3, ()), (2, ())), None),
        ("Q", 2, 3, (Z, Z, (0, ())), None),
    ]
    failures: list = []
    for kind, n, k, expected, euler in cases:
        start = time.perf_counter()
        try:
            cx = nerve(build_q(n, k)) if kind == "Q" else order_complex(build_j(n, k))
            got = homology(cx).groups
            if got != expected:
                failures.append((kind, n, k, got, expected))
            if euler is not None and cx.euler_characteristic() != euler:
                failures.append((kind, n, k, "euler", cx.euler_characteristic()))
        except Exception as exc:
            failures.append((kind, n, k, repr(exc)))
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append((kind, n, k, f"took {elapsed:.1f}s, budget 60s"))
    _report(2, "five reference homology computations match their frozen values", failures)


def test_criterion_03_quasibijection_nerves_connected():
    failures: list = []
    try:
        for n in range(1, 4):
            for k in range(1, 5):
                cx = nerve(build_q(n, k), max_dim=1)
                pieces = connected_components(cx)
                h0 = homology(cx).groups[0]
                if pieces != 1 or h0 != Z:
                    failures.append((n, k, pieces, h0))
    except Exception as exc:
        failures.append(repr(exc))
    _report(3, "every quasibijection category nerve is connected with H0 = Z", failures)


def test_criterion_04_braid_section_is_functorial():
    failures: list = []
    pairs = 0
    try:
        for k in range(1, 5):
            cat = build_q(2, k)
            objs = cat.objects
            for (i, j), first_maps in cat.hom.items():
                for (j2, l), second_maps in cat.hom.items():
                    if j2 != j:
                        continue
                    for sigma in first_maps:
                        for xi in second_maps:
                            pairs += 1
                            whole = braid_of_quasibijection(compose(xi, sigma))
                            stitched = braid_of_quasibijection(sigma) * braid_of_quasibijection(xi)
                            if not braid_equal(whole, stitched):
                                failures.append((k, sigma.table, xi.table))
        if pairs != 1 + 6 + 48 + 480:
            failures.append(("pair count", pairs))
    except Exception as exc:
        failures.append(repr(exc))
    _report(4, "braid section turns composition into braid multiplication, 535 pairs", failures)


def test_criterion_05_artin_relation_diagrams():
    failures: list = []
    seen = 0
    try:
        for k in range(2, 7):
            for i in range(1, k):
                for j in range(1, k):
                    if i == j:
                        continue
                    seen += 1
                    cert = artin_diagram_check(k, i, j)
                    wanted = "braid" if abs(i - j) == 1 else "far-commutation"
                    if cert.relation != wanted:
                        failures.append((k, i, j, cert.relation))
                    if cert.lhs_stages[-1] != cert.final or cert.rhs_stages[-1] != cert.final:
                        failures.append((k, i, j, "stage mismatch"))
                    if not braid_equal(cert.braid, braid_of_zigzag(cert.final)):
                        failures.append((k, i, j, "braid class drifted"))
        if seen != 2 + 6 + 12 + 20:
            failures.append(("pair count", seen))
    except Exception as exc:
        failures.append(repr(exc))
    _report(5, "both Artin relation families certify on every strand pair up to 6", failures)


def test_criterion_06_factorization_contract():
    failures: list = []
    checked = 0
    try:
        for n in range(1, 4):
            shapes = [o for k in range(1, 5) for o in enumerate_ordinals(n, k)]
            for s in shapes:
                for t in shapes:
                    for sigma in enumerate_maps(s, t, kind="all"):
                        checked += 1
                        fact = factorize(sigma)
                        if compose(fact.nu, fact.pi) != sigma:
                            failures.append((n, sigma.table, "recompose"))
                        if not fact.pi.is_quasibijection:
                            failures.append((n, sigma.table, "pi not quasi"))
                        if not fact.nu.is_order_preserving:
                            failures.append((n, sigma.table, "nu not monotone"))
                        for a in range(s.arity):
                            for b in range(a + 1, s.arity):
                                if sigma.table[a] == sigma.table[b] and not fact.pi.table[a] < fact.pi.table[b]:
                                    failures.append((n, sigma.table, "fiber order", a, b))
        if checked != 55203:
            failures.append(("morphism count", checked))
    except Exception as exc:
        failures.append(repr(exc))
    _report(6, "factorize satisfies all four contract clauses on 55203 morphisms", failures)


def _random_block_span(rng: random.Random):
    """A span of quasibijections out of a flat shape that both respect one
    random composition of the strand count into blocks."""
    k = rng.randint(2, 6)
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1)))
    edges = [0] + cuts + [k]
    flat = make_ordinal(2, (0,) * (k - 1))
    ones = make_ordinal(2, (1,) * (k - 1))

    def shuffled() -> OrdinalMap:
        table = list(range(k))
        for lo, hi in zip(edges, edges[1:]):
            block = table[lo:hi]
            rng.shuffle(block)
            table[lo:hi] = block
        return OrdinalMap(flat, ones, tuple(table))

    sizes = tuple(hi - lo for lo, hi in zip(edges, edges[1:]))
    return ZigZag((("back", shuffled()), ("fwd", shuffled()))), sizes


def test_criterion_07_zigzag_splitting_preserves_braid_class():
    failures: list = []
    try:
        rng = random.Random(20260815)
        for trial in range(100):
            z, sizes = _random_block_span(rng)
            whole = braid_of_zigzag(z)
            for prescribed in (None, sizes):
                res = split_zigzag(z, blocks=prescribed)
                if not braid_equal(whole, braid_sum(res.braids)):
                    failures.append((trial, prescribed, [leg[1].table for leg in z.legs]))

        # exhaustive two-block family on four strands
        flat = make_ordinal(2, (0, 0, 0))
        ones = make_ordinal(2, (1, 1, 1))
        count = 0
        for cut in (1, 2, 3):
            tables = []
            for left in itertools.permutations(range(cut)):
                for right in itertools.permutations(range(cut, 4)):
                    tables.append(left + right)
            for t_back in tables:
                for t_fwd in tables:
                    count += 1
                    z = ZigZag(
                        (
                            ("back", OrdinalMap(flat, ones, t_back)),
                            ("fwd", OrdinalMap(flat, ones, t_fwd)),
                        )
                    )
                    res = split_zigzag(z, blocks=(cut, 4 - cut))
                    if not braid_equal(braid_of_zigzag(z), braid_sum(res.braids)):
                        failures.append((cut, t_back, t_fwd))
        if count != 36 + 16 + 36:
            failures.append(("family size", count))
    except Exception as exc:
        failures.append(repr(exc))
    _report(7, "splitting block zig-zags preserves the braid class, random and exhaustive", failures)


def test_criterion_08_triviality_matches_matrix_oracle():
    failures: list = []
    try:
        rng = random.Random(8128)
        for trial in range(1000):
            length = rng.randint(0, 20)
            word = tuple(rng.choice((1, 2, -1, -2)) for _ in range(length))
            b = BraidWord(3, word)
            ours = is_trivial(b)
            oracle = burau3_is_identity(word)
            if ours != oracle:
                failures.append((trial, word, ours, oracle))
            if ours:
                # necessary invariants of a trivial word
                if b.permutation() != (0, 1, 2):
                    failures.append((trial, word, "permutation"))
                if b.exponent_sum() != 0:
                    failures.append((trial, word, "writhe"))
                if any(v != 0 for v in crossing_sums(b).values()):
                    failures.append((trial, word, "crossing sums"))
    except Exception as exc:
        failures.append(repr(exc))
    _report(8, "triviality decisions agree with the Burau oracle on 1000 words", failures)


def test_criterion_09_operad_axiom_checkers():
    failures: list = []
    try:
        for flavor in (SYMMETRIC, BRAIDED, MIXED2, N_OPERAD(2), N_OPERAD(3)):
            rep = check_operad_axioms(terminal_operad(flavor, 3))
            if not rep.passed:
                failures.append((flavor.kind, rep.failures[:2]))

        end2 = endomorphism_symmetric_operad((0, 1), 2)
        rep = check_operad_axioms(end2, 2)
        if not rep.passed:
            failures.append(("endomorphism symmetric", rep.failures[:2]))

        de = desymmetrise(endomorphism_symmetric_operad((0, 1), 3), 2, 3)
        rep = check_operad_axioms(de, 3)
        if not rep.passed:
            failures.append(("desymmetrised", rep.failures[:2]))
        if not is_quasisymmetric(de):
            failures.append("desymmetrisation not quasisymmetric")
        if is_locally_constant(de, action_is_bijection) != is_quasisymmetric(de):
            failures.append("local constancy disagrees with quasisymmetry")

        # fault injection: a corrupted endomorphism table must be caught
        broken = endomorphism_symmetric_operad((0, 1), 2)
        line2 = make_ordinal(1, (0,))
        ident = identity_map(line2)
        table = list(broken.mult(ident))
        values = sorted(set(table))
        table[0] = values[0] if table[0] != values[0] else values[1]
        broken.tables[ident] = table
        rep = check_operad_axioms(broken, 2)
        if rep.passed or not rep.failures or rep.failures[0].witness is None:
            failures.append("corrupted endomorphism table slipped through")

        # fault injection: a corrupted quasibijection table must be caught
        broken_de = desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 2, 2)
        flat = make_ordinal(2, (0,))
        sharp = make_ordinal(2, (1,))
        twist = OrdinalMap(flat, sharp, (1, 0))
        table = list(broken_de.mult(twist))
        values = sorted(set(table))
        table[0] = values[0] if table[0] != values[0] else values[1]
        broken_de.tables[twist] = table
        rep = check_operad_axioms(broken_de, 2)
        if rep.passed or not rep.failures or rep.failures[0].witness is None:
            failures.append("corrupted quasibijection table slipped through")
    except Exception as exc:
        failures.append(repr(exc))
    _report(9, "axiom checkers pass sound operads and catch injected faults", failures)


def test_criterion_10_braided_action_from_quasisymmetry():
    failures: list = []
    try:
        de = desymmetrise(endomorphism_symmetric_operad((0, 1), 4), 2, 4)
        expected = {
            2: (),
            3: ("braid(1,2)",),
            4: ("far-commutation(1,3)", "braid(1,2)", "braid(2,3)"),
        }
        for k in (2, 3, 4):
            acts = braided_action_from_quasisymmetric(de, k)
            if acts.relations != expected[k]:
                failures.append((k, acts.relations))
            if len(acts.actions) != k - 1:
                failures.append((k, "generator count", len(acts.actions)))
            for g, action in enumerate(acts.actions, start=1):
                if not action_is_bijection(action) or len(action) != len(acts.carrier):
                    failures.append((k, g, "action not a bijection"))
    except Exception as exc:
        failures.append(repr(exc))
    _report(10, "quasisymmetric structure induces braid group actions through strand 4", failures)


def test_criterion_11_extension_is_route_independent():
    failures: list = []
    surjections = 0
    try:
        de = desymmetrise(orders_operad(3), 2, 3)
        shapes = [o for k in range(1, 4) for o in enumerate_ordinals(2, k)]
        for s in shapes:
            for t in shapes:
                for sigma in enumerate_maps(s, t, kind="all"):
                    if set(sigma.table) != set(range(t.arity)):
                        continue
                    surjections += 1
                    base = extend_multiplication(de, sigma)
                    if base != de.mult(sigma):
                        failures.append((sigma.table, "disagrees with stored table"))
                    routes = list(all_factorizations(sigma, 2))
                    if not routes:
                        failures.append((sigma.table, "no factorization"))
                    for route in routes:
                        if extend_multiplication(de, sigma, route=route) != base:
                            failures.append((sigma.table, route[0].table, route[1].table))
        if not surjections:
            failures.append("no surjections enumerated")
        rep = check_operad_axioms(desymmetrise(orders_operad(3), 2, 3), 3)
        if not rep.passed:
            failures.append(("extended structure association", rep.failures[:2]))
    except Exception as exc:
        failures.append(repr(exc))
    _report(11, "multiplication extension is factorization independent and associative", failures)


def test_criterion_12_strata_classification():
    failures: list = []
    try:
        for n in range(1, 4):
            for k in range(1, 5):
                for o in enumerate_ordinals(n, k):
                    for labels in itertools.permutations(range(k)):
                        label = StratumLabel(o, labels)
                        again = classify_stratum(sample_stratum(label))
                        if again != label:
                            failures.append((n, o.levels, labels, again))

        report = verify_partition(2, 3, 10000)
        if report.universe != 24 or report.observed != 24:
            failures.append(("partition", report.universe, report.observed))
        if sum(report.tally.values()) != 10000:
            failures.append(("tally total", sum(report.tally.values())))

        for n in range(1, 4):
            for k in range(1, 4):
                poset = build_j(n, k)
                labels = poset.elements
                for i, j in poset.covering_pairs():
                    if not degeneration_check(labels[i], labels[j]):
                        failures.append(("cover", n, k, i, j))
                for i in range(len(labels)):
                    for j in range(len(labels)):
                        if i == j:
                            continue
                        walked = degeneration_check(labels[i], labels[j])
                        if walked != ((i, j) in poset.above):
                            failures.append(("order", n, k, i, j, walked))
    except Exception as exc:
        failures.append(repr(exc))
    _report(12, "strata classify, sample, partition and degenerate consistently", failures)
