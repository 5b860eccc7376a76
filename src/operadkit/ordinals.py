"""Higher ordinals as finite sets with a family of order relations.

An n-ordinal is a finite set {0, ..., k-1} together with relations
<_0, ..., <_{n-1} such that every distinct pair is related in exactly one
way and a <_p b, b <_q c forces a <_{min(p,q)} c.  Such a structure is
determined by the linear order underlying the relations together with the
sequence of levels between consecutive elements, so we store an ordinal as
NOrdinal(n, arity, levels): that level sequence over the position order.
Infinite-ordinals have n = None ("inf" in JSON and make_ordinal) and use
non-positive levels instead, with 0 the top level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    AxiomViolation,
    DomainMismatch,
    LevelOutOfDomain,
    MalformedTree,
    MissingPair,
    OutOfRange,
    SameElement,
    TargetTooSmall,
    decode,
)


def _check_n(n) -> None:
    """Refuse ``n`` unless it is a finite level-domain size."""
    if type(n) is not int or n < 0:
        raise OutOfRange("level domain size must be a non-negative integer", n=n)


def _in_domain(n: int | None, level) -> bool:
    """Whether ``level`` lies in {0..n-1}, or is <= 0 when n is None."""
    return type(level) is int and (level <= 0 if n is None else 0 <= level < n)


def _parse_n(n) -> int | None:
    """A caller's or a JSON document's ``n`` as an NOrdinal holds it: "inf"
    and None name the infinite domain."""
    if n in ("inf", None):
        return None
    _check_n(n)
    return n


@dataclass(frozen=True)
class NOrdinal:
    """A higher ordinal in canonical position order.

    ``n`` is the level-domain size, or None for the infinite domain.
    ``levels[i]`` is the relation level between positions i and i+1; the
    level between positions a < b is the minimum of ``levels[a:b]``.
    """

    n: int | None
    arity: int
    levels: tuple[int, ...]

    def __post_init__(self):
        if self.n is not None:
            _check_n(self.n)
        if type(self.arity) is not int or self.arity < 0:
            raise OutOfRange("arity must be a non-negative integer", arity=self.arity)
        object.__setattr__(self, "levels", tuple(self.levels))
        expected = max(self.arity - 1, 0)
        if len(self.levels) != expected:
            raise OutOfRange(
                "level sequence length must be arity - 1",
                arity=self.arity,
                got=len(self.levels),
            )
        for i, lv in enumerate(self.levels):
            if not _in_domain(self.n, lv):
                raise LevelOutOfDomain(
                    f"level {lv} at gap {i} is outside the domain",
                    level=lv,
                    index=i,
                    domain=self.to_json()["n"],
                )

    # -- relations ----------------------------------------------------

    def check_position(self, a: int) -> None:
        if not 0 <= a < self.arity:
            raise OutOfRange("position outside the underlying set", position=a, arity=self.arity)

    def relation_of(self, a: int, b: int) -> int:
        """Level p such that min(a,b) <_p max(a,b)."""
        self.check_position(a)
        self.check_position(b)
        if a == b:
            raise SameElement("no relation between an element and itself", position=a)
        lo, hi = (a, b) if a < b else (b, a)
        return min(self.levels[lo:hi])

    def relations(self) -> Iterator[tuple[int, int, int]]:
        """Yield (a, b, p) for every a < b, meaning a <_p b."""
        for a, row in enumerate(self._rel):
            for b, p in enumerate(row, a + 1):
                yield (a, b, p)

    @functools.cached_property
    def _rel(self) -> tuple[tuple[int, ...], ...]:
        """rel[a][b - a - 1] = level between a and b, for a < b."""
        rows = []
        for a in range(self.arity):
            row = []
            run = None
            for b in range(a + 1, self.arity):
                lv = self.levels[b - 1]
                run = lv if run is None else min(run, lv)
                row.append(run)
            rows.append(tuple(row))
        return tuple(rows)

    def rel(self, a: int, b: int) -> int:
        """Unchecked fast form of relation_of for a < b."""
        return self._rel[a][b - a - 1]

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        n = "inf" if self.n is None else self.n
        return {"n": n, "k": self.arity, "levels": list(self.levels)}

    def __str__(self) -> str:
        return f"NOrdinal(n={self.to_json()['n']}, levels={list(self.levels)})"


def make_ordinal(n, levels: Sequence[int], arity: int | None = None) -> NOrdinal:
    """Build an ordinal from a level sequence.

    ``n`` is a non-negative integer or "inf"/None.  ``arity`` defaults to
    len(levels) + 1; pass it explicitly to build the empty ordinal.
    """
    levels = tuple(levels)
    if arity is None:
        arity = len(levels) + 1
    return NOrdinal(_parse_n(n), arity, levels)


def ordinal_from_json(obj: dict) -> NOrdinal:
    if not isinstance(obj, dict) or "n" not in obj or "levels" not in obj:
        raise OutOfRange("ordinal object needs 'n' and 'levels' fields", got=obj)
    if obj["n"] is None:  # a document spells the infinite domain "inf" only
        _check_n(None)
    arity = obj.get("k")
    return make_ordinal(obj["n"], decode(obj["levels"], list, "levels"), arity=arity)


# -- construction from an explicit relation table -----------------------


def from_relations(n, labels: Sequence, table: dict) -> tuple[NOrdinal, tuple]:
    """Reconstruct an ordinal from relations over an arbitrary label set.

    ``table`` maps ordered pairs (a, b) of labels to levels, read as
    a <_p b.  Validates the three ordinal axioms, raising AxiomViolation
    with the lexicographically first witness, then returns the ordinal in
    position order together with the label order.
    """
    n = _parse_n(n)
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise SameElement("duplicate label in underlying set", labels=list(labels))

    for (a, b), p in table.items():
        if a not in index or b not in index:
            raise OutOfRange("relation mentions an unknown label", pair=[a, b])
        if a == b:
            raise SameElement("relation relates an element to itself", label=a)
        if not _in_domain(n, p):
            raise LevelOutOfDomain(f"level {p} outside the domain", level=p, pair=[a, b])

    k = len(labels)
    directed = {}
    for i in range(k):
        for j in range(i + 1, k):
            a, b = labels[i], labels[j]
            fwd, bwd = (a, b) in table, (b, a) in table
            if fwd and bwd:
                raise AxiomViolation(
                    f"pair ({a}, {b}) is related in both directions",
                    axiom="unique-relation",
                    witness=(a, b),
                )
            if not fwd and not bwd:
                raise MissingPair(f"pair ({a}, {b}) is unrelated", pair=[a, b])
            if fwd:
                directed[(a, b)] = table[(a, b)]
            else:
                directed[(b, a)] = table[(b, a)]

    def before(a, b):
        return (a, b) in directed

    for a, b, c in itertools.permutations(labels, 3):
        if before(a, b) and before(b, c):
            need = min(directed[(a, b)], directed[(b, c)])
            if not before(a, c):
                raise AxiomViolation(
                    f"{a} < {b} < {c} but {c} < {a}: relation cycle",
                    axiom="transitivity",
                    witness=(a, b, c),
                )
            if directed[(a, c)] != need:
                raise AxiomViolation(
                    f"levels of {a} < {b} < {c} force level {need} on ({a}, {c}), "
                    f"got {directed[(a, c)]}",
                    axiom="transitivity",
                    witness=(a, b, c),
                )

    order = sorted(labels, key=functools.cmp_to_key(lambda a, b: -1 if before(a, b) else 1))
    levels = tuple(directed[(order[i], order[i + 1])] for i in range(k - 1))
    return NOrdinal(n, k, levels), tuple(order)


# -- sums and suspensions -----------------------------------------------


def ordinal_sum(a: NOrdinal, b: NOrdinal) -> NOrdinal:
    """Concatenation with a single level-0 gap between the summands."""
    if a.n != b.n:
        raise DomainMismatch(
            "summands live over different level domains",
            left=a.to_json()["n"],
            right=b.to_json()["n"],
        )
    if a.n == 0:
        raise LevelOutOfDomain("the sum needs level 0 in the domain", level=0)
    if a.arity == 0:
        return b
    if b.arity == 0:
        return a
    return NOrdinal(a.n, a.arity + b.arity, a.levels + (0,) + b.levels)


def suspend_vertical(a: NOrdinal, n: int) -> NOrdinal:
    """Reindex an m-ordinal as an n-ordinal by shifting all levels up by n - m."""
    if a.n is None:
        raise DomainMismatch("vertical suspension applies to finite-level ordinals")
    if n < a.n:
        raise TargetTooSmall("cannot suspend downwards", source=a.n, target=n)
    shift = n - a.n
    return NOrdinal(n, a.arity, tuple(lv + shift for lv in a.levels))


def suspend_horizontal(a: NOrdinal, n: int) -> NOrdinal:
    """Reindex an m-ordinal as an n-ordinal keeping every level as it is."""
    if a.n is None:
        raise DomainMismatch("horizontal suspension applies to finite-level ordinals")
    if n < a.n:
        raise TargetTooSmall("cannot suspend downwards", source=a.n, target=n)
    return NOrdinal(n, a.arity, a.levels)


def suspend_infinite(a: NOrdinal) -> NOrdinal:
    """Send an n-ordinal to the infinite-level ordinal, top level landing on 0."""
    if a.n is None:
        return a
    return NOrdinal(None, a.arity, tuple(lv - a.n + 1 for lv in a.levels))


# -- enumeration --------------------------------------------------------


def enumerate_ordinals(n: int, k: int) -> Iterator[NOrdinal]:
    """All n-ordinals of arity k, in lexicographic level-sequence order."""
    _check_n(n)
    for seq in itertools.product(range(n), repeat=max(k - 1, 0)):
        yield NOrdinal(n, k, seq)


def count_ordinals(n: int, k: int) -> int:
    """The number of n-ordinals of arity k, for the n and k that
    enumerate_ordinals accepts; others raise OutOfRange."""
    _check_n(n)
    if type(k) is not int or k < 0:
        raise OutOfRange("arity must be a non-negative integer", arity=k)
    return n ** max(k - 1, 0)


def count_log2(n: int, k: int) -> float | int:
    """log2 of count_ordinals(n, k), taken 0 where n or k is at most 1, as
    printable_by_log2 reads it.  Past a 64-bit k no float holds it, and an
    int below it stands in: n^(k-1) >= 2^((k-1)(bits of n - 1))."""
    if min(n, k) <= 1:
        return 0
    if k.bit_length() <= 64:
        return (k - 1) * math.log2(n)
    return (k - 1) * (n.bit_length() - 1)


def unrank(n: int, k: int, r: int) -> NOrdinal:
    """The ordinal at position r of enumerate_ordinals(n, k): its levels
    are the k - 1 base-n digits of r, most significant first."""
    count = count_ordinals(n, k)
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r < count:
        raise OutOfRange("rank outside the enumeration", rank=r, count=count)
    levels = [0] * max(k - 1, 0)
    for i in reversed(range(len(levels))):
        r, levels[i] = divmod(r, n)
    return NOrdinal(n, k, tuple(levels))


# -- planar level trees --------------------------------------------------


def to_tree(a: NOrdinal):
    """Encode a finite n-ordinal (n >= 1) as a nested list of depth n.

    Leaves are the positions 0..k-1 in order; two consecutive leaves branch
    apart at depth equal to the level between them.
    """
    n = a.n
    if n is None:
        raise MalformedTree("tree form is only defined over finite level domains")
    if n < 1:
        raise MalformedTree("tree form needs at least one level", n=n)

    def build(lo: int, hi: int, depth: int):
        # positions lo..hi-1, all internal levels >= depth
        if depth == n:
            return lo
        parts = []
        start = lo
        for i in range(lo, hi - 1):
            if a.levels[i] == depth:
                parts.append(build(start, i + 1, depth + 1))
                start = i + 1
        parts.append(build(start, hi, depth + 1))
        return parts

    if a.arity == 0:
        return []
    return build(0, a.arity, 0)


def from_tree(n, tree) -> NOrdinal:
    """Decode a nested list of depth n back into an n-ordinal."""
    n = _parse_n(n)
    if n is None:
        raise MalformedTree("tree form is only defined over finite level domains")
    if n < 1:
        raise MalformedTree("tree form needs at least one level", n=n)
    if tree == []:
        return NOrdinal(n, 0, ())

    leaves: list[int] = []
    levels: list[int] = []

    def walk(node, depth: int) -> None:
        if depth == n:
            if not isinstance(node, int) or isinstance(node, bool):
                raise MalformedTree(f"expected a leaf at depth {n}", got=node)
            if leaves:
                levels.append(pending[0])
            leaves.append(node)
            return
        if not isinstance(node, list) or not node:
            raise MalformedTree(
                f"expected a non-empty list at depth {depth}", got=node
            )
        for i, child in enumerate(node):
            if i > 0:
                pending[0] = depth
            walk(child, depth + 1)

    pending = [0]
    walk(tree, 0)
    if leaves != list(range(len(leaves))):
        raise MalformedTree("leaves must read 0..k-1 left to right", leaves=leaves)
    return NOrdinal(n, len(leaves), tuple(levels))
