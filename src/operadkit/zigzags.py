"""Zigzags of quasibijections and the two-dimensional braid picture.

A zigzag is a chain of quasibijections with alternating directions.  Its
braid class lifts every forward leg to the positive braid word of its
permutation and every backward leg to the inverse word.  For zigzags of
2-ordinals two moves keep the class fixed:

  * pushforward: postcompose both legs of a span by one quasibijection;
  * merge: two adjacent spans A -> M <- B -> M' <- C collapse to
    A -> X <- C along legs x: M -> X, x': M' -> X that agree on B.

For n >= 3 they do not: the zigzag sigma_1 sigma_1 of 3-ordinals with
k = 2 has class [1, 1], yet a merge turns it into a span whose class is
the empty word.  The class is still computed for every n, but it is an
invariant of the zigzag only at n = 2.

The Artin relation certificates below connect both sides of each braid
relation to one common span by explicit merges, every leg checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braids import (
    BraidWord,
    braid_equal,
    braid_sum,
    direct_sum_blocks,
    invert,
    q_section,
    transposition,
)
from .errors import (
    DiagramBroken,
    EndpointMismatch,
    NotAMorphism,
    NotBlockDecomposable,
    NotQuasibijection,
    OutOfRange,
    decode,
)
from .ordinal_maps import (
    OrdinalMap,
    compose,
    identity_map,
    map_from_json,
    restrict_map,
)
from .ordinals import NOrdinal, ordinal_sum


@dataclass(frozen=True)
class ZigZag:
    """Chain of quasibijection legs; "fwd" legs point with the chain and
    "back" legs against it."""

    legs: tuple[tuple[str, OrdinalMap], ...]

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple((d, m) for d, m in self.legs))
        if not self.legs:
            raise OutOfRange("a zigzag needs at least one leg")
        current = None
        for pos, (direction, m) in enumerate(self.legs):
            if direction not in ("fwd", "back"):
                raise OutOfRange("leg direction must be 'fwd' or 'back'", got=direction)
            if not m.is_quasibijection:
                raise NotQuasibijection(
                    "zigzag legs must be quasibijections", position=pos
                )
            near = m.source if direction == "fwd" else m.target
            far = m.target if direction == "fwd" else m.source
            if current is not None and near != current:
                raise EndpointMismatch(
                    "legs do not chain", position=pos, expected=current.to_json()
                )
            current = far

    @property
    def start(self) -> NOrdinal:
        d, m = self.legs[0]
        return m.source if d == "fwd" else m.target

    @property
    def end(self) -> NOrdinal:
        d, m = self.legs[-1]
        return m.target if d == "fwd" else m.source

    @property
    def strands(self) -> int:
        return self.start.arity

    def __mul__(self, other: "ZigZag") -> "ZigZag":
        if self.end != other.start:
            raise EndpointMismatch(
                "second zigzag does not start where the first ends",
                left=self.end.to_json(),
                right=other.start.to_json(),
            )
        return ZigZag(self.legs + other.legs)

    def to_json(self) -> dict:
        return {
            "legs": [{"dir": d, "map": m.to_json()} for d, m in self.legs]
        }


def zigzag_from_json(obj: dict) -> ZigZag:
    if not isinstance(obj, dict) or "legs" not in obj:
        raise OutOfRange("zigzag object needs a 'legs' field", got=obj)
    legs = []
    for leg in decode(obj["legs"], list, "legs"):
        leg = decode(leg, dict, "leg")
        direction = decode(leg.get("dir"), str, "leg dir")
        legs.append((direction, map_from_json(decode(leg.get("map"), dict, "leg map"))))
    return ZigZag(tuple(legs))


def braid_of_quasibijection(sigma: OrdinalMap) -> BraidWord:
    """Positive braid word lifting the permutation of a quasibijection."""
    if not sigma.is_quasibijection:
        raise NotQuasibijection("braid lift needs a bijective map")
    return q_section(sigma.table)


def braid_of_zigzag(z: ZigZag) -> BraidWord:
    word: list[int] = []
    for d, m in z.legs:
        q = braid_of_quasibijection(m)
        word.extend(q.word if d == "fwd" else q.inverse().word)
    return BraidWord(z.strands, tuple(word))


# -- spans and the class-preserving moves ---------------------------------


def span(f: OrdinalMap, g: OrdinalMap) -> ZigZag:
    """The zigzag A -> M <- B for legs f: A -> M, g: B -> M."""
    return ZigZag((("fwd", f), ("back", g)))


def pushforward(z: ZigZag, h: OrdinalMap) -> ZigZag:
    """Postcompose both legs of a span by a quasibijection h."""
    (d1, f), (d2, g) = _as_span(z)
    return span(compose(h, f), compose(h, g))


def merge_spans(left: ZigZag, right: ZigZag, x: OrdinalMap, x2: OrdinalMap) -> ZigZag:
    """Collapse adjacent spans A -> M <- B, B -> M' <- C to A -> X <- C.

    x: M -> X and x2: M' -> X must be quasibijections with x . g = x2 . f'
    where g, f' are the two legs landing on the shared object B.
    """
    _as_span(left), _as_span(right)
    _, f = left.legs[0]
    _, g = left.legs[1]
    _, f2 = right.legs[0]
    _, g2 = right.legs[1]
    if g.source != f2.source:
        raise EndpointMismatch(
            "spans do not share their inner object",
            left=g.source.to_json(),
            right=f2.source.to_json(),
        )
    lhs = compose(x, g)
    rhs = compose(x2, f2)
    if lhs.table != rhs.table:
        raise DiagramBroken(
            "merge legs disagree on the shared object",
            left=list(lhs.table),
            right=list(rhs.table),
        )
    return span(compose(x, f), compose(x2, g2))


def _as_span(z: ZigZag):
    if len(z.legs) != 2 or z.legs[0][0] != "fwd" or z.legs[1][0] != "back":
        raise OutOfRange("expected a two-leg span (fwd, back)")
    return z.legs


# -- Artin relation certificates ------------------------------------------


def _flat(k: int) -> NOrdinal:
    return NOrdinal(2, k, (0,) * max(k - 1, 0))


def _sharp(k: int) -> NOrdinal:
    return NOrdinal(2, k, (1,) * max(k - 1, 0))


def _spike(k: int, g: int) -> NOrdinal:
    """All levels 0 except a single 1 at gap g-1."""
    levels = [0] * max(k - 1, 0)
    levels[g - 1] = 1
    return NOrdinal(2, k, tuple(levels))


def generator_span(k: int, g: int, sign: int = 1) -> ZigZag:
    """Span representing the Artin generator on k strands.

    The middle object has level 1 exactly at the crossing gap; the
    positive generator carries the swap on its forward leg.
    """
    if not 1 <= g <= k - 1:
        raise OutOfRange("generator index out of range", k=k, generator=g)
    flat, mid = _flat(k), _spike(k, g)
    swap = OrdinalMap(flat, mid, transposition(k, g))
    idl = OrdinalMap(flat, mid, tuple(range(k)))
    if sign >= 0:
        return span(swap, idl)
    return span(idl, swap)


def span_of_word(b: BraidWord) -> ZigZag:
    """Concatenated generator spans for a braid word."""
    legs: list[tuple[str, OrdinalMap]] = []
    for letter in b.word:
        z = generator_span(b.strands, abs(letter), 1 if letter > 0 else -1)
        legs.extend(z.legs)
    if not legs:
        f = _flat(b.strands)
        legs = [("fwd", identity_map(f)), ("back", identity_map(f))]
    return ZigZag(tuple(legs))


@dataclass(frozen=True)
class DiagramCertificate:
    """Record of a verified relation diagram.

    Both composite zigzags reduce by the listed merges to the same final
    span; every intermediate stage is kept so the whole reduction can be
    replayed and re-checked.
    """

    k: int
    i: int
    j: int
    relation: str
    lhs_stages: tuple[ZigZag, ...]
    rhs_stages: tuple[ZigZag, ...]
    final: ZigZag
    braid: BraidWord


def _merge_generator_pair(first: ZigZag, second: ZigZag, x_table, x2_table) -> ZigZag:
    sharp = _sharp(first.strands)
    x = OrdinalMap(first.legs[0][1].target, sharp, x_table)
    x2 = OrdinalMap(second.legs[0][1].target, sharp, x2_table)
    return merge_spans(first, second, x, x2)


def artin_diagram_check(k: int, i: int, j: int) -> DiagramCertificate:
    """Verify one Artin relation inside the span calculus.

    For |i - j| >= 2 both products of generator spans merge in one step to
    a common span; for j = i + 1 the braid relation takes two merges per
    side.  Raises DiagramBroken if any leg fails to validate or the two
    reductions end at different spans.
    """
    for g in (i, j):
        if not 1 <= g <= k - 1:
            raise OutOfRange("generator index out of range", k=k, generator=g)
    if i == j:
        raise OutOfRange("relation needs two distinct generators", i=i, j=j)

    ident = tuple(range(k))

    def braid_side(a: ZigZag, b: ZigZag, x, x2) -> list[ZigZag]:
        # a b a, then a and b merged along the leg tables x and x2, then the
        # third generator absorbed; the identity legs are forced: the back
        # leg of the merged span is the swap itself, so composing with the
        # third generator cancels it
        merged = _merge_generator_pair(a, b, x, x2)
        return [a * b * a, merged * a, _merge_generator_pair(merged, a, ident, ident)]

    si, sj = transposition(k, i), transposition(k, j)
    vi, vj = generator_span(k, i), generator_span(k, j)
    if abs(i - j) >= 2:
        relation = "far-commutation"
        lhs_stages = [vi * vj, _merge_generator_pair(vi, vj, sj, ident)]
        rhs_stages = [vj * vi, _merge_generator_pair(vj, vi, si, ident)]
    elif j == i + 1:
        relation = "braid"
        # first merge legs: the 3-cycles s_i s_j and s_j s_i of positions
        # i - 1, i, i + 1, then the swap of the repeated generator
        lhs_stages = braid_side(vi, vj, tuple(si[c] for c in sj), si)
        rhs_stages = braid_side(vj, vi, tuple(sj[c] for c in si), sj)
    else:
        # j == i - 1: same relation written the other way round
        cert = artin_diagram_check(k, j, i)
        return DiagramCertificate(
            k, i, j, cert.relation, cert.rhs_stages, cert.lhs_stages, cert.final, cert.braid
        )

    lhs_final, rhs_final = lhs_stages[-1], rhs_stages[-1]
    if lhs_final != rhs_final:
        raise DiagramBroken(
            "the two reductions end at different spans",
            left=lhs_final.to_json(),
            right=rhs_final.to_json(),
        )

    # independent route: the braid classes of every stage must agree
    reference = braid_of_zigzag(lhs_stages[0])
    for stage in list(lhs_stages) + list(rhs_stages):
        if not braid_equal(braid_of_zigzag(stage), reference):
            raise DiagramBroken(
                "a merge changed the braid class", stage=stage.to_json()
            )
    return DiagramCertificate(
        k, i, j, relation, tuple(lhs_stages), tuple(rhs_stages), lhs_final, reference
    )


# -- splitting a span along blocks ----------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """Decomposition of a span into independent blocks.

    components[i] is the span induced on the i-th block; kappa_table is
    the unshuffle from the block sum back to the original middle object
    (kappa_map is its validated form when the blocks do not interleave).
    """

    blocks: tuple[tuple[int, int], ...]
    components: tuple[ZigZag, ...]
    xi: OrdinalMap
    zeta: OrdinalMap
    kappa_table: tuple[int, ...]
    kappa_map: OrdinalMap | None
    braids: tuple[BraidWord, ...]
    total: BraidWord

    def to_json(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "components": [c.to_json() for c in self.components],
            "xi": self.xi.to_json(),
            "zeta": self.zeta.to_json(),
            "kappa": list(self.kappa_table),
            "kappa_is_map": self.kappa_map is not None,
            "braids": [b.to_json() for b in self.braids],
            "total": self.total.to_json(),
        }


def split_zigzag(z: ZigZag, blocks: Sequence[int] | None = None) -> SplitResult:
    """Split a span S <- T -> R into block components.

    The induced permutation of the target positions decomposes into
    consecutive blocks mapped to themselves; the span restricts to each
    block preimage, and the braid class of the whole span is the
    juxtaposition of the block braids.  ``blocks`` optionally prescribes
    the block sizes; they must be respected by the permutation.
    """
    if len(z.legs) != 2 or z.legs[0][0] != "back" or z.legs[1][0] != "fwd":
        raise OutOfRange("splitting expects a span of shape (back, fwd)")
    sigma = z.legs[0][1]
    eta = z.legs[1][1]
    k = sigma.source.arity

    omega = tuple(eta.table[v] for v in invert(sigma.table))

    finest = direct_sum_blocks(omega)
    if blocks is None:
        spans_of = finest
    else:
        spans_of = []
        start = 0
        for size in blocks:
            if size < 0:
                raise OutOfRange("block sizes must be non-negative", size=size)
            spans_of.append((start, start + size))
            start += size
        if start != k:
            raise NotBlockDecomposable(
                "block sizes must add up to the arity", total=start, arity=k
            )
        cuts = {e for _, e in finest}
        for _, e in spans_of:
            if e not in cuts and e != 0:
                raise NotBlockDecomposable(
                    "the permutation does not preserve these blocks",
                    blocks=[list(b) for b in spans_of],
                    finest=[list(b) for b in finest],
                )

    components = []
    braids = []
    kappa: list[int] = []
    middles = []
    for lo, hi in spans_of:
        block = range(lo, hi)
        positions = [p for p in range(k) if sigma.table[p] in block]
        kappa.extend(positions)
        sigma_i = restrict_map(sigma, positions, block)
        eta_i = restrict_map(eta, positions, block)
        comp = ZigZag((("back", sigma_i), ("fwd", eta_i)))
        components.append(comp)
        middles.append(sigma_i.source)
        braids.append(braid_of_zigzag(comp))

    middle_sum = _ordinal_sum_many(middles, sigma.source)
    xi = OrdinalMap(
        _ordinal_sum_many([c.legs[0][1].target for c in components], sigma.target),
        sigma.target,
        tuple(range(k)),
    )
    zeta = OrdinalMap(
        _ordinal_sum_many([c.legs[1][1].target for c in components], eta.target),
        eta.target,
        tuple(range(k)),
    )
    try:
        kappa_map = OrdinalMap(middle_sum, sigma.source, tuple(kappa))
    except NotAMorphism:
        kappa_map = None

    total = braid_of_zigzag(z)
    if not braid_equal(total, braid_sum(braids)):
        raise DiagramBroken("block braids do not recompose the span braid")
    return SplitResult(
        tuple(spans_of),
        tuple(components),
        xi,
        zeta,
        tuple(kappa),
        kappa_map,
        tuple(braids),
        total,
    )


def _ordinal_sum_many(parts, fallback: NOrdinal) -> NOrdinal:
    if not parts:
        return NOrdinal(fallback.n, 0, ())
    out = parts[0]
    for part in parts[1:]:
        out = ordinal_sum(out, part)
    return out
