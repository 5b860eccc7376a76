import itertools
import random

import pytest

from operadkit.braids import BraidWord, braid_equal, braid_sum
from operadkit.errors import (
    DiagramBroken,
    EndpointMismatch,
    NotBlockDecomposable,
    NotQuasibijection,
    OutOfRange,
)
from operadkit.ordinal_maps import OrdinalMap, compose, enumerate_maps, identity_map
from operadkit.ordinals import enumerate_ordinals, make_ordinal
from operadkit import zigzags
from operadkit.zigzags import (
    ZigZag,
    artin_diagram_check,
    braid_of_quasibijection,
    braid_of_zigzag,
    generator_span,
    merge_spans,
    pushforward,
    span,
    span_of_word,
    split_zigzag,
    zigzag_from_json,
)


def flat(k):
    return make_ordinal(2, [0] * (k - 1)) if k > 1 else make_ordinal(2, [], arity=k)


def sharp(k):
    return make_ordinal(2, [1] * (k - 1)) if k > 1 else make_ordinal(2, [], arity=k)


def wedge(k, sig, eta):
    t, s = flat(k), sharp(k)
    return ZigZag((("back", OrdinalMap(t, s, sig)), ("fwd", OrdinalMap(t, s, eta))))


def test_zigzag_validation():
    t, s = flat(3), sharp(3)
    m = OrdinalMap(t, s, (1, 0, 2))
    z = ZigZag((("back", m), ("fwd", m)))
    assert z.start == s and z.end == s and z.strands == 3
    with pytest.raises(OutOfRange):
        ZigZag(())
    with pytest.raises(NotQuasibijection):
        ZigZag((("fwd", OrdinalMap(t, s, (0, 0, 2))),))
    with pytest.raises(EndpointMismatch):
        ZigZag((("fwd", m), ("fwd", m)))
    with pytest.raises(OutOfRange):
        ZigZag((("up", m),))


def test_zigzag_reverse_and_json():
    z = wedge(3, (2, 1, 0), (1, 2, 0))
    assert zigzag_from_json(z.to_json()) == z
    r = ZigZag(tuple(("back" if d == "fwd" else "fwd", m) for d, m in reversed(z.legs)))
    assert r.legs[0][0] == "back" and r.legs[1][0] == "fwd"
    assert braid_equal(braid_of_zigzag(r), braid_of_zigzag(z).inverse())


def test_braid_of_quasibijection():
    t, s = flat(3), sharp(3)
    assert braid_of_quasibijection(OrdinalMap(t, s, (2, 1, 0))).word == (1, 2, 1)
    with pytest.raises(NotQuasibijection):
        braid_of_quasibijection(OrdinalMap(t, s, (0, 0, 1)))


def test_braid_lift_is_functorial():
    # composable quasibijections: lifted words concatenate up to braid
    # equivalence, exhaustively over 2-ordinals of arity 3
    for a in enumerate_ordinals(2, 3):
        for b in enumerate_ordinals(2, 3):
            for f in enumerate_maps(a, b, "quasi"):
                qf = braid_of_quasibijection(f)
                for c in enumerate_ordinals(2, 3):
                    for g in enumerate_maps(b, c, "quasi"):
                        qg = braid_of_quasibijection(g)
                        qgf = braid_of_quasibijection(compose(g, f))
                        assert braid_equal(qgf, qf * qg)


def test_generator_span():
    z = generator_span(4, 2)
    assert braid_of_zigzag(z).word == (2,)
    neg = generator_span(4, 2, -1)
    assert braid_equal(braid_of_zigzag(neg), BraidWord(4, (-2,)))
    with pytest.raises(OutOfRange):
        generator_span(4, 4)


def test_span_of_word():
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randrange(0, 6)))
        b = BraidWord(4, word)
        assert braid_equal(braid_of_zigzag(span_of_word(b)), b)


def test_merge_preserves_class():
    k = 3
    vi, vj = generator_span(k, 1), generator_span(k, 2)
    s = sharp(k)
    x = OrdinalMap(vi.legs[0][1].target, s, (1, 2, 0))
    x2 = OrdinalMap(vj.legs[0][1].target, s, (1, 0, 2))
    merged = merge_spans(vi, vj, x, x2)
    assert braid_equal(braid_of_zigzag(merged), braid_of_zigzag(vi * vj))
    # legs that do not agree on the shared object are rejected
    bad = OrdinalMap(vj.legs[0][1].target, s, (0, 1, 2))
    with pytest.raises(DiagramBroken):
        merge_spans(vi, vj, x, bad)


def test_products_and_merges_refuse_mismatched_endpoints():
    # a product needs the second zigzag to start where the first ends, and
    # a merge needs the two spans to share their inner object
    gen = generator_span(3, 1)
    s = sharp(3)
    other = span(identity_map(s), identity_map(s))
    with pytest.raises(EndpointMismatch) as info:
        gen * other
    assert info.value.payload == {"left": flat(3).to_json(), "right": s.to_json()}
    with pytest.raises(EndpointMismatch) as info:
        merge_spans(gen, other, identity_map(s), identity_map(s))
    assert info.value.payload == {"left": flat(3).to_json(), "right": s.to_json()}


def test_span_moves_refuse_a_zigzag_that_is_not_a_span():
    # pushforward and merge_spans take a span (fwd, back); a (back, fwd)
    # zigzag or a longer one is refused before any leg is composed
    cospan = wedge(3, (1, 2, 0), (0, 1, 2))
    gen = generator_span(3, 1)
    ident = identity_map(sharp(3))
    for z in (cospan, gen * gen):
        with pytest.raises(OutOfRange):
            pushforward(z, ident)
        with pytest.raises(OutOfRange):
            merge_spans(gen, z, ident, ident)
        with pytest.raises(OutOfRange):
            merge_spans(z, gen, ident, ident)


def test_pushforward_preserves_class():
    z = generator_span(3, 1)
    mid = z.legs[0][1].target
    h = OrdinalMap(mid, sharp(3), (0, 2, 1))
    moved = pushforward(z, h)
    assert braid_equal(braid_of_zigzag(moved), braid_of_zigzag(z))


def test_artin_certificates_small():
    cert = artin_diagram_check(4, 1, 3)
    assert cert.relation == "far-commutation"
    assert cert.lhs_stages[-1].to_json() == cert.rhs_stages[-1].to_json()
    assert braid_equal(cert.braid, BraidWord(4, (1, 3)))
    cert = artin_diagram_check(3, 1, 2)
    assert cert.relation == "braid"
    assert braid_equal(cert.braid, BraidWord(3, (1, 2, 1)))
    # swapped order reuses the same diagram
    cert = artin_diagram_check(3, 2, 1)
    assert cert.relation == "braid"
    assert braid_equal(cert.braid, BraidWord(3, (2, 1, 2)))


def test_artin_certificates_all_relations():
    for k in (3, 4, 5):
        for i, j in itertools.combinations(range(1, k), 2):
            cert = artin_diagram_check(k, i, j)
            expect = "braid" if j == i + 1 else "far-commutation"
            assert cert.relation == expect
            assert cert.final.to_json() == cert.lhs_stages[-1].to_json()


def test_artin_argument_errors():
    with pytest.raises(OutOfRange):
        artin_diagram_check(3, 1, 1)
    with pytest.raises(OutOfRange):
        artin_diagram_check(3, 1, 5)


def test_split_worked_example():
    z = wedge(3, (2, 1, 0), (1, 2, 0))
    assert braid_equal(braid_of_zigzag(z), BraidWord(3, (-2,)))
    res = split_zigzag(z)
    assert res.blocks == ((0, 1), (1, 3))
    assert res.kappa_table == (2, 0, 1)
    assert res.kappa_map is None  # interleaved preimages
    assert res.braids[0].word == ()
    assert braid_equal(res.braids[1], BraidWord(2, (-1,)))
    assert braid_equal(res.total, braid_sum(res.braids))
    assert res.xi.is_order_preserving and res.zeta.is_order_preserving


def test_split_contiguous_blocks_give_a_map():
    # sigma maps block preimages contiguously, so kappa is a real map
    z = wedge(4, (1, 0, 3, 2), (0, 1, 2, 3))
    res = split_zigzag(z)
    assert res.blocks == ((0, 2), (2, 4))
    assert res.kappa_map is not None
    assert res.kappa_table == (0, 1, 2, 3)
    assert braid_equal(res.braids[0], BraidWord(2, (-1,)))
    assert braid_equal(res.braids[1], BraidWord(2, (-1,)))


def test_split_lets_other_kappa_errors_through(monkeypatch):
    # only NotAMorphism means kappa is not a map; any other error is a bug
    def broken(source, target, table):
        if tuple(table) == (2, 0, 1):
            raise RuntimeError("kappa construction broke")
        return OrdinalMap(source, target, table)

    monkeypatch.setattr(zigzags, "OrdinalMap", broken)
    with pytest.raises(RuntimeError, match="kappa construction broke"):
        split_zigzag(wedge(3, (2, 1, 0), (1, 2, 0)))


def test_split_single_block():
    z = wedge(3, (1, 2, 0), (0, 1, 2))
    res = split_zigzag(z)
    assert res.blocks == ((0, 3),)
    assert len(res.components) == 1
    assert braid_equal(res.total, res.braids[0])


def test_split_with_prescribed_blocks():
    z = wedge(4, (1, 0, 3, 2), (0, 1, 2, 3))
    res = split_zigzag(z, blocks=[2, 2])
    assert res.blocks == ((0, 2), (2, 4))
    res4 = split_zigzag(z, blocks=[4])
    assert res4.blocks == ((0, 4),)
    with pytest.raises(NotBlockDecomposable):
        split_zigzag(z, blocks=[1, 3])
    with pytest.raises(NotBlockDecomposable):
        split_zigzag(z, blocks=[2, 1])
    with pytest.raises(OutOfRange) as info:
        split_zigzag(z, blocks=[-1, 5])
    assert info.value.payload == {"size": -1}


def test_split_shape_errors():
    z = generator_span(3, 1)
    with pytest.raises(OutOfRange):
        split_zigzag(z)


def test_split_random_spans():
    rng = random.Random(515)
    found_multi = 0
    for _ in range(60):
        k = rng.randrange(2, 6)
        sig = list(range(k))
        eta = list(range(k))
        rng.shuffle(sig)
        rng.shuffle(eta)
        res = split_zigzag(wedge(k, tuple(sig), tuple(eta)))
        assert braid_equal(res.total, braid_sum(res.braids))
        assert sorted(res.kappa_table) == list(range(k))
        if len(res.blocks) > 1:
            found_multi += 1
    assert found_multi > 0
