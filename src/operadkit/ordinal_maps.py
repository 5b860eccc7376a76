"""Maps of higher ordinals.

A map sigma between ordinals is a function on positions such that for
every source pair i <_p j one of the following holds in the target:

  1. sigma(i) <_r sigma(j) with r >= p,
  2. sigma(i) = sigma(j),
  3. sigma(j) <_r sigma(i) with r > p.

Order-preserving maps use only the first two clauses, which over canonical
ordinals is the same as having a non-decreasing table.  Quasibijections
are the bijective maps; they may still strictly raise levels, so they are
not invertible in general.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .braids import invert
from .errors import (
    ComposeMismatch,
    DomainMismatch,
    NotAMorphism,
    OutOfRange,
    decode,
)
from .ordinals import NOrdinal, ordinal_from_json


def morphism_violation(source: NOrdinal, target: NOrdinal, table: Sequence[int]):
    """First source pair breaking the map conditions, or None if valid.

    Assumes the table values are already known to be in range.
    """
    k = source.arity
    for i in range(k):
        u = table[i]
        for j in range(i + 1, k):
            v = table[j]
            if u == v:
                continue
            p = source.rel(i, j)
            if u < v:
                if target.rel(u, v) < p:
                    return (i, j)
            elif target.rel(v, u) <= p:
                return (i, j)
    return None


@dataclass(frozen=True)
class OrdinalMap:
    source: NOrdinal
    target: NOrdinal
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.source.n != self.target.n:
            raise DomainMismatch(
                "source and target must share one level domain",
                source=self.source.to_json()["n"],
                target=self.target.to_json()["n"],
            )
        if len(self.table) != self.source.arity:
            raise OutOfRange(
                "table length must equal the source arity",
                expected=self.source.arity,
                got=len(self.table),
            )
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.target.arity:
                raise OutOfRange(
                    "table value outside the target", position=i, value=v
                )
        bad = morphism_violation(self.source, self.target, self.table)
        if bad is not None:
            i, j = bad
            raise NotAMorphism(
                f"pair ({i}, {j}) at level {self.source.rel(i, j)} maps to "
                f"({self.table[i]}, {self.table[j]}), which breaks every clause",
                pair=bad,
                images=[self.table[i], self.table[j]],
                level=self.source.rel(i, j),
            )

    # -- classification -------------------------------------------------

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.arity

    @property
    def is_quasibijection(self) -> bool:
        return self.source.arity == self.target.arity and self.is_injective

    @property
    def is_order_preserving(self) -> bool:
        return all(self.table[i] <= self.table[i + 1] for i in range(len(self.table) - 1))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.table == tuple(range(self.source.arity))

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "f": list(self.table),
        }

    def __str__(self) -> str:
        return f"{list(self.table)}: {self.source} -> {self.target}"


def map_fields(obj) -> tuple[NOrdinal, NOrdinal, tuple]:
    """The source, target and table of a map document, each decoded, with
    the table not yet checked against the map conditions."""
    if not isinstance(obj, dict) or not {"source", "target", "f"} <= set(obj):
        raise OutOfRange("map object needs 'source', 'target' and 'f' fields", got=obj)
    return (
        ordinal_from_json(obj["source"]),
        ordinal_from_json(obj["target"]),
        tuple(decode(obj["f"], list, "f")),
    )


def map_from_json(obj) -> OrdinalMap:
    return OrdinalMap(*map_fields(obj))


def identity_map(a: NOrdinal) -> OrdinalMap:
    return OrdinalMap(a, a, tuple(range(a.arity)))


def compose(late: OrdinalMap, early: OrdinalMap) -> OrdinalMap:
    """late after early."""
    if early.target != late.source:
        raise ComposeMismatch(
            "codomain of the first map must equal the domain of the second",
            middle_left=early.target.to_json(),
            middle_right=late.source.to_json(),
        )
    return OrdinalMap(early.source, late.target, tuple(late.table[v] for v in early.table))


# -- induced structures ------------------------------------------------


def induced(a: NOrdinal, positions: Sequence[int]) -> NOrdinal:
    """Sub-ordinal on a subset of positions, in position order."""
    positions = sorted(positions)
    for p in positions:
        a.check_position(p)
    if len(set(positions)) != len(positions):
        raise OutOfRange("repeated position in subset", positions=positions)
    levels = tuple(
        a.rel(positions[i], positions[i + 1]) for i in range(len(positions) - 1)
    )
    return NOrdinal(a.n, len(positions), levels)


def fiber(sigma: OrdinalMap, t: int) -> tuple[NOrdinal, tuple[int, ...]]:
    """Induced ordinal on the preimage of a target position, with the
    positions themselves."""
    sigma.target.check_position(t)
    positions = tuple(i for i, v in enumerate(sigma.table) if v == t)
    return induced(sigma.source, positions), positions


def restrict_map(
    sigma: OrdinalMap, src_positions: Sequence[int], tgt_positions: Sequence[int]
) -> OrdinalMap:
    """Restriction of a map to induced sub-ordinals on both sides."""
    src_positions = sorted(src_positions)
    tgt_positions = sorted(tgt_positions)
    tgt_index = {p: i for i, p in enumerate(tgt_positions)}
    table = []
    for p in src_positions:
        v = sigma.table[p]
        if v not in tgt_index:
            raise OutOfRange(
                "image leaves the chosen target subset", position=p, image=v
            )
        table.append(tgt_index[v])
    return OrdinalMap(
        induced(sigma.source, src_positions),
        induced(sigma.target, tgt_positions),
        tuple(table),
    )


# -- enumeration --------------------------------------------------------


def enumerate_maps(
    source: NOrdinal, target: NOrdinal, kind: str = "all"
) -> Iterator[OrdinalMap]:
    """All valid maps source -> target in lexicographic table order: the
    one listing of maps between ordinals.

    kind: "all", "onto" (surjections), "quasi" (bijections) or "order"
    (order-preserving).  "onto" and "quasi" return at once when no map of
    their kind can exist.  "all" and "onto" walk the m**k product tables
    of an m-ary target; "onto" tests the map conditions on the surjective
    ones only.
    """
    if kind not in ("all", "onto", "quasi", "order"):
        raise OutOfRange("unknown map kind", kind=kind)
    k, m = source.arity, target.arity
    if kind == "quasi":
        if k != m:
            return
        candidates = itertools.permutations(range(m))
    elif kind == "order":
        candidates = itertools.combinations_with_replacement(range(m), k)
    elif kind == "onto":
        if m > k:
            return
        candidates = (
            t for t in itertools.product(range(m), repeat=k) if len(set(t)) == m
        )
    else:
        candidates = itertools.product(range(m), repeat=k)
    for table in candidates:
        if morphism_violation(source, target, table) is None:
            yield OrdinalMap(source, target, table)


# -- factorization ------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """sigma = nu . pi with pi a quasibijection and nu order-preserving."""

    pi: OrdinalMap
    middle: NOrdinal
    nu: OrdinalMap

    def to_json(self) -> dict:
        return {
            "pi": self.pi.to_json(),
            "middle": self.middle.to_json(),
            "nu": self.nu.to_json(),
        }


def factorize(sigma: OrdinalMap) -> Factorization:
    """Canonical quasibijection / order-preserving factorization.

    The middle ordinal lists the fibers of sigma in target order, keeping
    the source order inside each fiber.  Gaps inside a fiber get the top
    level of the domain; gaps between consecutive non-empty fibers get the
    level separating them in the target.  pi is the stable sort of the
    source by image, nu collapses each fiber block to its image.
    """
    f = sigma.table
    k = sigma.source.arity
    order = sorted(range(k), key=lambda p: (f[p], p))
    rank = invert(order)

    n = sigma.source.n
    top = 0 if n is None else n - 1
    levels = []
    for r in range(k - 1):
        a, b = order[r], order[r + 1]
        if f[a] == f[b]:
            levels.append(top)
        else:
            levels.append(sigma.target.rel(f[a], f[b]))
    middle = NOrdinal(n, k, tuple(levels))
    pi = OrdinalMap(sigma.source, middle, rank)
    nu = OrdinalMap(middle, sigma.target, tuple(f[p] for p in order))
    return Factorization(pi, middle, nu)
