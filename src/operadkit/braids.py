"""Braid words, permutations, and the word problem.

Braid words are sequences of signed 1-indexed Artin generators on a fixed
number of strands, read left to right.  A permutation is its image tuple:
it sends x to image[x], and a word's permutation sends each strand's
starting position to its end.  A word is freely reduced and its strands
walked at most once: the walk gives the permutation and the pairwise
crossing sums.

The word problem is decided by Dehornoy handle reduction, with those
abelian invariants short-circuiting most non-trivial inputs.  The word is
rewritten in place.  Each step free-reduces the rewritten handle only
against itself and its two seams, and the scan for the next handle
restarts at the first changed position: whether a handle closes at a
position depends only on the letters up to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    LengthMismatch,
    OutOfRange,
    ResourceLimit,
    StrandMismatch,
    decode,
    within_cap,
)


def invert(image: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation given by its image, which is not
    checked: callers pass images that are permutations by construction."""
    inv = [0] * len(image)
    for i, v in enumerate(image):
        inv[v] = i
    return tuple(inv)


def transposition(k: int, i: int) -> tuple[int, ...]:
    """Adjacent transposition swapping positions i-1 and i (1-indexed i)."""
    if not 1 <= i <= k - 1:
        raise OutOfRange("transposition index out of range", k=k, i=i)
    img = list(range(k))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def _free_reduce(letters: Sequence[int]) -> list[int]:
    """The letters with every adjacent pair x, -x cancelled."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _strand_walk(
    strands: int, letters: Sequence[int]
) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Walk the strands down the letters.  Returns ``at``, where at[pos] is
    the strand (named by its starting position) that ends at pos, and the
    signed number of crossings between each pair of strands a < c, zero
    sums included."""
    at = list(range(strands))
    sums: dict[tuple[int, int], int] = {}
    for letter in letters:
        i = abs(letter)
        a, c = at[i - 1], at[i]
        key = (a, c) if a < c else (c, a)
        sums[key] = sums.get(key, 0) + (1 if letter > 0 else -1)
        at[i - 1], at[i] = c, a
    return at, sums


@dataclass(frozen=True)
class BraidWord:
    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if self.strands < 0:
            raise OutOfRange("strand count must be non-negative", strands=self.strands)
        # the letters are checked at once; only a word that fails is read
        # again letter by letter, to name its first bad letter
        top = self.strands - 1
        if not word or (
            set(map(type, word)) == {int} and -top <= min(word) and max(word) <= top
            and 0 not in word
        ):
            return
        for pos, letter in enumerate(word):
            if (
                not isinstance(letter, int)
                or isinstance(letter, bool)
                or letter == 0
                or abs(letter) > top
            ):
                raise OutOfRange(
                    "letter outside the generator range",
                    position=pos,
                    letter=letter,
                    strands=self.strands,
                )

    @cached_property
    def reduced(self) -> tuple[int, ...]:
        """The letters with every adjacent pair x, -x cancelled."""
        return tuple(_free_reduce(self.word))

    @cached_property
    def _walk(self) -> tuple[list[int], dict[tuple[int, int], int]]:
        # free cancellation changes neither the permutation nor any crossing
        # sum, so the shorter reduced word is walked
        return _strand_walk(self.strands, self.reduced)

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

    def permutation(self) -> tuple[int, ...]:
        # at[pos] is the strand that ends at pos; its inverse sends each
        # starting position to its end
        return invert(self._walk[0])

    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.word)

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": list(self.word)}


def braid_from_json(obj: dict) -> BraidWord:
    if not isinstance(obj, dict) or not {"strands", "word"} <= set(obj):
        raise OutOfRange("braid object needs 'strands' and 'word' fields", got=obj)
    strands = decode(obj["strands"], int, "strands")
    within_cap(strands, "a braid document names too many strands")
    return BraidWord(strands, tuple(decode(obj["word"], list, "word")))


# -- the positive section over permutations ------------------------------


def q_section(image: Sequence[int]) -> BraidWord:
    """Positive braid word realising a permutation with one crossing per
    inversion (bubble sort of the image sequence)."""
    arr = list(image)
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
    return {k: v for k, v in b._walk[1].items() if v != 0}


# -- Dehornoy handle reduction -------------------------------------------


def _reduce_handles(word: list[int], limit: int) -> bool:
    """Decide a freely reduced word by handle reduction, rewriting it in place.

    A handle (s, t) has word[s] = -word[t] = i^e and every letter between
    them of index above i.  The scan finds the leftmost-closing one.  It
    keeps link[p], the nearest earlier position whose index is at most that
    of p, for every position it has passed, so following links from t - 1
    visits only the candidate openers.  The handle is rewritten by replacing
    each (i+1)^d inside it by (i+1)^-e i^d (i+1)^e and dropping both ends.
    The result is free-reduced against itself and the prefix, then against
    the suffix; both are already reduced, so the word is the one a
    whole-word free reduction gives.  Positions before the first changed
    one keep their links and close no handle, so the scan resumes there.
    Past ``limit`` rewrites it raises ResourceLimit.
    """
    link: list[int] = []
    steps = t = 0
    while True:
        if steps >= limit:
            raise ResourceLimit("handle reduction exceeded the step limit", limit=limit)
        if not word:
            return True
        n = len(word)
        while t < n:
            letter = word[t]
            i = abs(letter)
            s = t - 1
            while s >= 0 and abs(word[s]) > i:
                s = link[s]
            if s >= 0 and word[s] == -letter:
                break
            link.append(s)
            t += 1
        else:
            # handle-free and non-empty: definite sign on the lowest
            # generator, hence non-trivial
            return False
        i = abs(word[s])
        up = i + 1 if word[s] > 0 else -i - 1  # (i+1)^e
        left, right = s, t + 1
        body: list[int] = []  # reduced letters between word[:left] and word[right:]
        for x in word[s + 1 : t]:
            if abs(x) == i + 1:
                pieces = (-up, i if x > 0 else -i, up)
            else:
                pieces = (x,)
            for y in pieces:
                if body:
                    if body[-1] == -y:
                        body.pop()
                        continue
                elif left and word[left - 1] == -y:
                    left -= 1
                    continue
                body.append(y)
        while right < n:
            y = word[right]
            if body:
                if body[-1] != -y:
                    break
                body.pop()
            elif left and word[left - 1] == -y:
                left -= 1
            else:
                break
            right += 1
        word[left:right] = body
        del link[left:]
        t = left
        steps += 1


def is_trivial(b: BraidWord, limit: int | None = None) -> bool:
    """Decide whether a braid word represents the identity braid.

    Handle reduction terminates on every input; ``limit`` caps the number
    of reduction steps anyway and raises ResourceLimit when exhausted.
    """
    word = list(b.reduced)
    if not word:
        return True
    # the crossing sums add up to the exponent sum, so they settle it too
    at, sums = b._walk
    if at != list(range(b.strands)) or any(sums.values()):
        return False
    if limit is None:
        limit = 2000 * len(word) ** 2 + 100000
    return _reduce_handles(word, limit)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    if a.strands != b.strands:
        raise StrandMismatch(
            "cannot compare braids on different strand counts",
            left=a.strands,
            right=b.strands,
        )
    return is_trivial(a * b.inverse())


# -- cabling --------------------------------------------------------------


def block_transposition(a: int, b: int) -> tuple[int, ...]:
    """The permutation moving a leading block of width a past a block of
    width b, preserving the order inside each block."""
    return tuple(range(b, b + a)) + tuple(range(b))


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


def direct_sum_blocks(image: Sequence[int]) -> list[tuple[int, int]]:
    """Finest split of {0..k-1} into consecutive intervals each mapped to
    itself, as half-open (start, end) pairs."""
    blocks = []
    start = 0
    top = -1
    for i, v in enumerate(image):
        top = max(top, v)
        if top == i:
            blocks.append((start, i + 1))
            start = i + 1
    return blocks
