"""Braid words, permutations, and the word problem.

Braid words are sequences of signed 1-indexed Artin generators on a fixed
number of strands, read left to right.  Permutations compose
diagrammatically: (p * q)(x) = q(p(x)), matching concatenation of braid
words.  The word problem is decided by Dehornoy handle reduction, with
cheap abelian invariants short-circuiting most non-trivial inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    LengthMismatch,
    OutOfRange,
    ResourceLimit,
    StrandMismatch,
    decode,
)


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(len(self.image))):
            raise OutOfRange("not a permutation", image=list(self.image))

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    def __call__(self, x: int) -> int:
        return self.image[x]

    def __len__(self) -> int:
        return len(self.image)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise LengthMismatch("permutations act on different sets")
        return Permutation(tuple(other.image[v] for v in self.image))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return self.image == tuple(range(len(self.image)))

    def inversions(self) -> int:
        return sum(
            1
            for i, j in itertools.combinations(range(len(self.image)), 2)
            if self.image[i] > self.image[j]
        )


def transposition(k: int, i: int) -> Permutation:
    """Adjacent transposition swapping positions i-1 and i (1-indexed i)."""
    if not 1 <= i <= k - 1:
        raise OutOfRange("transposition index out of range", k=k, i=i)
    img = list(range(k))
    img[i - 1], img[i] = img[i], img[i - 1]
    return Permutation(tuple(img))


def _free_reduce(letters: Sequence[int]) -> list[int]:
    """The letters with every adjacent pair x, -x cancelled."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


@dataclass(frozen=True)
class BraidWord:
    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if self.strands < 0:
            raise OutOfRange("strand count must be non-negative", strands=self.strands)
        for pos, letter in enumerate(self.word):
            if (
                not isinstance(letter, int)
                or isinstance(letter, bool)
                or letter == 0
                or abs(letter) > self.strands - 1
            ):
                raise OutOfRange(
                    "letter outside the generator range",
                    position=pos,
                    letter=letter,
                    strands=self.strands,
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise StrandMismatch(
                "cannot concatenate braids on different strand counts",
                left=self.strands,
                right=other.strands,
            )
        return BraidWord(self.strands, self.word + other.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.word)))

    def permutation(self) -> Permutation:
        img = list(range(self.strands))
        for letter in self.word:
            i = abs(letter)
            img[i - 1], img[i] = img[i], img[i - 1]
        # img[pos] is the strand that ends at pos; its inverse sends each
        # starting position to its end
        return Permutation(tuple(img)).inverse()

    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.word)

    def free_reduce(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(_free_reduce(self.word)))

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": list(self.word)}


def braid_from_json(obj: dict) -> BraidWord:
    if not isinstance(obj, dict) or not {"strands", "word"} <= set(obj):
        raise OutOfRange("braid object needs 'strands' and 'word' fields", got=obj)
    return BraidWord(
        decode(obj["strands"], int, "strands"), tuple(decode(obj["word"], list, "word"))
    )


def identity_braid(strands: int) -> BraidWord:
    return BraidWord(strands, ())


# -- the positive section over permutations ------------------------------


def q_section(perm: Permutation) -> BraidWord:
    """Positive braid word realising a permutation with one crossing per
    inversion (bubble sort of the image sequence)."""
    arr = list(perm.image)
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                word.append(j + 1)
                changed = True
    return BraidWord(len(arr), tuple(word))


# -- pairwise linking numbers --------------------------------------------


def crossing_sums(b: BraidWord) -> dict[tuple[int, int], int]:
    """Signed number of crossings between each pair of strands, keyed by
    the strands' starting positions.  Invariant under the braid relations."""
    at = list(range(b.strands))  # at[pos] = strand id currently there
    sums: dict[tuple[int, int], int] = {}
    for letter in b.word:
        i = abs(letter)
        a, c = at[i - 1], at[i]
        key = (a, c) if a < c else (c, a)
        sums[key] = sums.get(key, 0) + (1 if letter > 0 else -1)
        at[i - 1], at[i] = at[i], at[i - 1]
    return {k: v for k, v in sums.items() if v != 0}


# -- Dehornoy handle reduction -------------------------------------------


def _first_handle(word: Sequence[int]):
    """Leftmost-closing handle (s, t): word[s] and word[t] are opposite
    powers of one generator and nothing in between uses an index <= it."""
    for t, letter in enumerate(word):
        i = abs(letter)
        for s in range(t - 1, -1, -1):
            j = abs(word[s])
            if j < i:
                break
            if j == i:
                if word[s] == -letter:
                    return s, t
                break
    return None


def _reduce_handle(word: Sequence[int], s: int, t: int) -> list[int]:
    i = abs(word[s])
    e = 1 if word[s] > 0 else -1
    body: list[int] = []
    for letter in word[s + 1 : t]:
        if abs(letter) == i + 1:
            d = 1 if letter > 0 else -1
            body.extend([-e * (i + 1), d * i, e * (i + 1)])
        else:
            body.append(letter)
    return list(word[:s]) + body + list(word[t + 1 :])


def is_trivial(b: BraidWord, limit: int | None = None) -> bool:
    """Decide whether a braid word represents the identity braid.

    Handle reduction terminates on every input; ``limit`` caps the number
    of reduction steps anyway and raises ResourceLimit when exhausted.
    """
    b = b.free_reduce()
    if not b.word:
        return True
    if b.exponent_sum() != 0:
        return False
    if not b.permutation().is_identity:
        return False
    if crossing_sums(b):
        return False
    if limit is None:
        limit = 2000 * len(b.word) ** 2 + 100000
    word = list(b.word)
    for _ in range(limit):
        if not word:
            return True
        found = _first_handle(word)
        if found is None:
            # handle-free and non-empty: definite sign on the lowest
            # generator, hence non-trivial
            return False
        # cheap free reduction keeps intermediate words short
        word = _free_reduce(_reduce_handle(word, *found))
    raise ResourceLimit("handle reduction exceeded the step limit", limit=limit)


def braid_equal(a: BraidWord, b: BraidWord, limit: int | None = None) -> bool:
    if a.strands != b.strands:
        raise StrandMismatch(
            "cannot compare braids on different strand counts",
            left=a.strands,
            right=b.strands,
        )
    return is_trivial(a * b.inverse(), limit=limit)


# -- cabling --------------------------------------------------------------


def block_transposition(a: int, b: int) -> Permutation:
    """The permutation moving a leading block of width a past a block of
    width b, preserving the order inside each block."""
    return Permutation(tuple(b + x for x in range(a)) + tuple(range(b)))


def block_permutation(rho: Permutation, mult: Sequence[int]) -> Permutation:
    """Permutation of sum(mult) points moving the i-th block, of width
    mult[i], to the rho(i)-th block slot, order-preserving on blocks."""
    if len(rho) != len(mult):
        raise LengthMismatch(
            "multiplicity list length must match the permutation",
            perm=len(rho),
            mult=len(mult),
        )
    if any(m < 0 for m in mult):
        raise OutOfRange("multiplicities must be non-negative", mult=list(mult))
    image = []
    for i, m in enumerate(mult):
        offset = sum(mult[j] for j in range(len(mult)) if rho(j) < rho(i))
        image.extend(offset + r for r in range(m))
    return Permutation(tuple(image))


def cable(b: BraidWord, mult: Sequence[int]) -> BraidWord:
    """Replace the i-th strand by mult[i] parallel strands.

    Each crossing becomes a block crossing of the two bundles involved;
    bundle widths travel with the strands.  Zero widths are allowed.
    """
    if len(mult) != b.strands:
        raise LengthMismatch(
            "need one multiplicity per strand", strands=b.strands, mult=len(mult)
        )
    if any(m < 0 for m in mult):
        raise OutOfRange("multiplicities must be non-negative", mult=list(mult))
    widths = list(mult)
    total = sum(mult)
    word: list[int] = []
    for letter in b.word:
        i = abs(letter)
        offset = sum(widths[: i - 1])
        wa, wb = widths[i - 1], widths[i]
        if letter > 0:
            local = q_section(block_transposition(wa, wb))
        else:
            local = q_section(block_transposition(wb, wa)).inverse()
        word.extend(x + offset if x > 0 else x - offset for x in local.word)
        widths[i - 1], widths[i] = wb, wa
    return BraidWord(total, tuple(word))


def braid_sum(parts: Sequence[BraidWord]) -> BraidWord:
    """Juxtapose braids side by side on the disjoint union of strands."""
    total = sum(p.strands for p in parts)
    word: list[int] = []
    offset = 0
    for p in parts:
        word.extend(x + offset if x > 0 else x - offset for x in p.word)
        offset += p.strands
    return BraidWord(total, tuple(word))


# -- block structure of permutations --------------------------------------


def direct_sum_blocks(perm: Permutation) -> list[tuple[int, int]]:
    """Finest split of {0..k-1} into consecutive intervals each mapped to
    itself, as half-open (start, end) pairs."""
    blocks = []
    start = 0
    top = -1
    for i, v in enumerate(perm.image):
        top = max(top, v)
        if top == i:
            blocks.append((start, i + 1))
            start = i + 1
    return blocks
