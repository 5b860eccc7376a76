import itertools
import random
import time

import pytest

from operadkit.braids import (
    BraidWord,
    block_transposition,
    braid_equal,
    braid_from_json,
    cable,
    crossing_sums,
    direct_sum_blocks,
    is_trivial,
    q_section,
    transposition,
)
from operadkit.errors import LengthMismatch, OutOfRange, ResourceLimit, StrandMismatch

from oracles import (
    BRAID_KINDS,
    artin_is_identity,
    block_permutation,
    burau3_is_identity,
    handle_walk,
    padded_braid_word,
)


def test_braid_word_validation():
    with pytest.raises(OutOfRange):
        BraidWord(3, (3,))
    with pytest.raises(OutOfRange):
        BraidWord(3, (0,))
    with pytest.raises(OutOfRange):
        BraidWord(1, (1,))
    BraidWord(3, (1, -2, 2, -1))


def test_word_permutation_and_inverse():
    b = BraidWord(3, (1, 2, 1))
    assert b.permutation() == (2, 1, 0)
    assert b.inverse().word == (-1, -2, -1)
    assert (b * b.inverse()).reduced == ()
    with pytest.raises(StrandMismatch):
        b * BraidWord(2, (1,))


def test_q_section_frozen_values():
    assert q_section((2, 1, 0)).word == (1, 2, 1)
    assert q_section([1, 2, 0]).word == (2, 1)
    assert q_section((0, 1, 2)).word == ()


def test_q_section_lifts_permutations():
    for k in (0, 1, 2, 3, 4):
        for image in itertools.permutations(range(k)):
            w = q_section(image)
            assert w.permutation() == image
            inversions = sum(a > b for a, b in itertools.combinations(image, 2))
            assert len(w.word) == inversions
            assert all(x > 0 for x in w.word)


def test_crossing_sums():
    assert crossing_sums(BraidWord(3, (1, 2, 1))) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert crossing_sums(BraidWord(2, (1, -1))) == {}
    # full twist: every pair crosses twice
    assert crossing_sums(BraidWord(3, (1, 2, 1, 1, 2, 1))) == {
        (0, 1): 2,
        (0, 2): 2,
        (1, 2): 2,
    }


def test_is_trivial_small_cases():
    assert is_trivial(BraidWord(4, ()))
    assert is_trivial(BraidWord(3, (1, 2, -2, -1)))
    assert not is_trivial(BraidWord(3, (1,)))
    # braid relation: s1 s2 s1 (s2 s1 s2)^-1
    assert is_trivial(BraidWord(3, (1, 2, 1, -2, -1, -2)))
    # far commutation on 4 strands
    assert is_trivial(BraidWord(4, (1, 3, -1, -3)))
    # trivial permutation and zero exponent sum but non-trivial braid:
    # the commutator of s1 with s2 s1 s2^-1
    w = BraidWord(3, (1, 2, 1, -2, -1, 2, -1, -2))
    assert w.exponent_sum() == 0
    assert not is_trivial(w)


def test_trivial_with_vanishing_abelian_invariants():
    # commutator of pure braids has identity permutation and zero
    # crossing sums; handle reduction must do the real work
    a = BraidWord(3, (1, 1))
    b = BraidWord(3, (2, 2))
    comm = a * b * a.inverse() * b.inverse()
    assert comm.permutation() == (0, 1, 2)
    assert crossing_sums(comm) == {}
    assert not is_trivial(comm)


def test_braid_equal():
    assert braid_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not braid_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    with pytest.raises(StrandMismatch):
        braid_equal(BraidWord(2, ()), BraidWord(3, ()))


def test_word_problem_against_burau():
    rng = random.Random(20260815)
    for _ in range(300):
        length = rng.randrange(0, 14)
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
        b = BraidWord(3, word)
        assert is_trivial(b) == burau3_is_identity(word)


def test_resource_limit():
    comm = BraidWord(3, (1, 1, 2, 2, -1, -1, -2, -2))
    with pytest.raises(ResourceLimit):
        is_trivial(comm, limit=2)


def _pure_generator(i, j):
    """A_ij for 1 <= i < j: strand j wraps once around strand i."""
    down = list(range(j - 1, i, -1))
    return down + [i, i] + [-x for x in reversed(down)]


def _artin_sweep_words(rng, strands):
    def letters(count):
        return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(count)]

    def inverse(w):
        return [-x for x in reversed(w)]

    def conjugated_relator():
        a = rng.randint(1, strands - 2)
        b = rng.choice([x for x in range(1, strands) if abs(a - x) >= 2] or [a + 1])
        r = [a, b, -a, -b] if abs(a - b) >= 2 else [a, b, a, -b, -a, -b]
        g = letters(rng.randint(0, 5))
        return g + r + inverse(g)

    for _ in range(25):
        yield letters(rng.randint(0, 10))
    for _ in range(15):
        word = conjugated_relator() + conjugated_relator()
        yield word
        flipped = list(word)
        flipped[rng.randrange(len(flipped))] *= -1
        yield flipped
    pairs = [(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]
    for _ in range(15):
        a = _pure_generator(*rng.choice(pairs))
        b = _pure_generator(*rng.choice(pairs))
        g = letters(rng.randint(0, 3))
        yield g + a + b + inverse(a) + inverse(b) + inverse(g)


def test_word_problem_against_artin_action():
    """Artin's action on the free group is faithful on every strand count,
    where the Burau oracle is faithful only on 3 strands."""
    rng = random.Random(20261018)
    verdicts = set()
    for strands in range(3, 8):
        for word in _artin_sweep_words(rng, strands):
            want = artin_is_identity(strands, word)
            assert is_trivial(BraidWord(strands, tuple(word))) == want, (strands, word)
            verdicts.add(want)
    assert verdicts == {True, False}


def _shapes_words():
    rng = random.Random(20261018)
    for kind in BRAID_KINDS:
        for strands in range(3, 9):
            for length in (60, 240, 420, 600):
                yield kind, strands, padded_braid_word(rng, kind, strands, length)


def test_handle_reduction_takes_the_whole_word_walks_steps():
    """Same verdict as the whole-word loop, and the same number of handle
    reductions: the smallest limit that does not raise is that count plus
    one.  Words the invariants settle never reach the loop."""
    reached = 0
    for kind, strands, word in _shapes_words():
        b = BraidWord(strands, tuple(word))
        trivial, steps = handle_walk(word)
        assert is_trivial(b) is trivial, (kind, strands)
        assert trivial is (kind == "trivial")
        try:
            is_trivial(b, limit=0)
        except ResourceLimit:
            reached += 1
            assert is_trivial(b, limit=steps + 1) is trivial
            with pytest.raises(ResourceLimit):
                is_trivial(b, limit=steps)
    assert reached >= 2 * 6 * 4


@pytest.mark.parametrize("kind, strands", [("trivial", 6), ("commutator", 8)])
def test_long_words_are_decided_in_seconds(kind, strands):
    """20,000 letters; a walk that rescans the whole word after each handle
    takes several times the bound."""
    word = padded_braid_word(random.Random(f"{kind}:{strands}"), kind, strands, 20_000)
    b = BraidWord(strands, tuple(word))
    start = time.perf_counter()
    assert is_trivial(b) is (kind == "trivial")
    assert time.perf_counter() - start < 3.0


def test_block_transposition_and_permutation():
    assert block_transposition(2, 1) == (1, 2, 0)
    assert block_permutation((1, 0), [2, 1]) == (1, 2, 0)
    assert block_permutation([0, 1], [2, 1]) == (0, 1, 2)
    rho = (2, 0, 1)
    assert block_permutation(rho, [1, 2, 0]) == (2, 0, 1)


def test_cable_widths_and_permutation():
    b = BraidWord(2, (1,))
    c = cable(b, [2, 1])
    assert c.strands == 3
    assert c.permutation() == block_permutation(b.permutation(), [2, 1])
    # cabling respects the underlying block permutation in general
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randrange(1, 5)
        word = tuple(
            rng.choice((1, -1)) * rng.randrange(1, k) for _ in range(rng.randrange(0, 6))
        ) if k > 1 else ()
        mult = [rng.randrange(0, 3) for _ in range(k)]
        base = BraidWord(k, word)
        assert cable(base, mult).permutation() == block_permutation(
            base.permutation(), mult
        )


def test_cable_zero_width_and_identity():
    b = BraidWord(2, (1, -1, 1))
    assert cable(b, [0, 1]).word == ()
    assert cable(b, [1, 1]).word == (1, -1, 1)
    assert cable(BraidWord(3, ()), [2, 2, 2]).word == ()
    with pytest.raises(LengthMismatch):
        cable(b, [1])
    with pytest.raises(OutOfRange):
        cable(b, [1, -1])


def test_cable_respects_braid_relations():
    # images of both sides of the braid relation agree after cabling
    lhs = cable(BraidWord(3, (1, 2, 1)), [2, 1, 2])
    rhs = cable(BraidWord(3, (2, 1, 2)), [2, 1, 2])
    assert braid_equal(lhs, rhs)
    lhs = cable(BraidWord(4, (1, 3)), [2, 0, 1, 2])
    rhs = cable(BraidWord(4, (3, 1)), [2, 0, 1, 2])
    assert braid_equal(lhs, rhs)


def test_cable_composes():
    rng = random.Random(11)
    for _ in range(20):
        w1 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 4)))
        w2 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 4)))
        mult = [rng.randrange(0, 3) for _ in range(3)]
        a, b = BraidWord(3, w1), BraidWord(3, w2)
        ca = cable(a, mult)
        # widths after a are permuted by a's block moves
        at = list(range(3))
        for letter in w1:
            i = abs(letter)
            at[i - 1], at[i] = at[i], at[i - 1]
        mult_after = [0] * 3
        for pos, strand in enumerate(at):
            mult_after[pos] = mult[strand]
        cb = cable(b, mult_after)
        assert (ca * cb).word == cable(a * b, mult).word


def test_direct_sum_blocks():
    assert direct_sum_blocks((1, 0, 2, 4, 3)) == [(0, 2), (2, 3), (3, 5)]
    assert direct_sum_blocks([2, 1, 0]) == [(0, 3)]
    assert direct_sum_blocks(()) == []
    assert direct_sum_blocks(range(3)) == [(0, 1), (1, 2), (2, 3)]


def test_transposition_and_json():
    assert transposition(3, 1) == (1, 0, 2)
    with pytest.raises(OutOfRange):
        transposition(3, 3)
    b = BraidWord(4, (1, -3, 2))
    assert braid_from_json(b.to_json()) == b
    with pytest.raises(OutOfRange):
        braid_from_json({"word": [1]})
