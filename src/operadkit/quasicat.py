"""The category of quasibijections and the labeled poset over it.

Q_n(k) has the n-ordinals of arity k as objects and all quasibijections
between them as morphisms.  The poset J_n(k) has labeled ordinals (T, pi)
as elements, ordered by validity of the induced label map; forgetting
labels is a free symmetric group quotient J_n(k)/S_k = Q_n(k).  Its
elements are the labels of the Fox-Neuwirth strata, strata.StratumLabel.
That order is the face order of Milgram's cells below, and build_j
generates it from their facets alone (_facets), which are its covering
pairs; the label-map rule on every pair of labels is the oracle the tests
compare it with (perfbench/reference.py).

Both carry classifying spaces, and both are nerves: the nerve of Q
(chains of composable non-identity morphisms) and the order complex of J,
which is the nerve of J read as a thin category (strict chains).  One
function, _nerve, makes both from a list of arrows; a cell is a tuple of
arrow ids.  These are the definitional complexes.

Homology is computed from smaller ones: J_n(k) is the face poset of
Milgram's regular CW model of Conf_k(R^n), with one cell per labeled
ordinal, and S_k acts freely on it, so Q_n(k) gets one cell per n-ordinal
(cellular_j and cellular_q).
"""

from __future__ import annotations

import collections.abc
import itertools
import math
from dataclasses import dataclass

from .errors import (
    AntisymmetryViolation,
    EndoFound,
    StrictnessRequired,
    within_cap,
)
from .homology import ChainComplex
from .ordinal_maps import enumerate_maps
from .ordinals import NOrdinal, count_ordinals, enumerate_ordinals
from .strata import StratumLabel


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


@dataclass(frozen=True)
class QuasiCategory:
    n: int
    k: int
    objects: tuple[NOrdinal, ...]
    hom: dict  # (source index, target index) -> tuple of OrdinalMap

    def morphism_count(self) -> int:
        return sum(len(v) for v in self.hom.values())

    def non_identity(self):
        for (i, j), maps in sorted(self.hom.items()):
            for m in maps:
                if not m.is_identity:
                    yield (i, j, m)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "objects": [o.to_json() for o in self.objects],
            "hom_sizes": {
                f"{i}->{j}": len(v) for (i, j), v in sorted(self.hom.items()) if v
            },
        }


def build_q(n: int, k: int) -> QuasiCategory:
    """All n-ordinals of arity k with every quasibijection between them; the
    k! tables per ordered pair, n^(2(k-1)) k! in all, are predicted as in build_j."""
    count_ordinals(n, 0)  # refuses a bad n before anything is multiplied
    candidates = 1
    for m in range(2, k + 1):
        candidates *= n * n * m
        within_cap(candidates, "too many candidate maps between objects to test", n=n, k=k)
        if not candidates:
            return QuasiCategory(n, k, (), {})
    objects = tuple(enumerate_ordinals(n, k))
    hom = {}
    for i, s in enumerate(objects):
        for j, t in enumerate(objects):
            maps = tuple(enumerate_maps(s, t, "quasi"))
            if maps:
                hom[(i, j)] = maps
    return QuasiCategory(n, k, objects, hom)


def assert_strict(c: QuasiCategory) -> None:
    """Check that identities are the only endomorphisms and hom-sets never
    point both ways, so chains of non-identity morphisms cannot loop."""
    for i, obj in enumerate(c.objects):
        for m in c.hom.get((i, i), ()):
            if not m.is_identity:
                raise EndoFound(
                    "object has a non-identity endomorphism",
                    object=obj.to_json(),
                    table=list(m.table),
                )
    for (i, j) in c.hom:
        if i != j and (j, i) in c.hom:
            raise AntisymmetryViolation(
                "objects related in both directions",
                left=c.objects[i].to_json(),
                right=c.objects[j].to_json(),
            )


def _arrows(c: QuasiCategory) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The non-identity morphisms in ``non_identity`` order: heads[x] lists
    the target of each one out of object x, and tables their tables.
    Requires strictness; composites of chain arrows are then never
    identities, so the nerve closes under faces."""
    try:
        assert_strict(c)
    except (EndoFound, AntisymmetryViolation) as e:
        raise StrictnessRequired(
            "the nerve needs a strict category", reason=e.to_json()
        ) from e
    heads: list[list[int]] = [[] for _ in c.objects]
    tables = []
    for i, j, m in c.non_identity():
        heads[i].append(j)
        tables.append(m.table)
    return heads, tables


_CELLS = "too many cells in the nerve"


def nerve(c: QuasiCategory, max_dim: int | None = None) -> ChainComplex:
    """Chains of composable non-identity morphisms, as a chain complex.

    Arrows are numbered in ``non_identity`` order, and a d-cell is the
    tuple of its d arrow ids (see _nerve).
    """
    heads, tables = _arrows(c)
    return _nerve(heads, tables, max_dim, _CELLS, n=c.n, k=c.k)


def nerve_counts(c: QuasiCategory) -> list[int]:
    """The number of cells of nerve(c) in each dimension, without building
    it."""
    return _chain_counts(_arrows(c)[0], None, _CELLS, n=c.n, k=c.k)


def _nerve(heads: list, tables, max_dim: int | None, message: str, **where) -> ChainComplex:
    """The nerve of a category on objects 0..len(heads)-1, where heads[x]
    lists the target of each non-identity arrow out of x, and ``tables``
    yields the arrows' tables in that order, which numbers them.  The
    cells are counted first (_chain_counts), then built as tuples of arrow
    ids.  Each composable pair's composite is looked up once, by (source,
    target, table), for the 2-cells; inner faces of higher cells read it.
    """
    counts = _chain_counts(heads, max_dim, message, **where)
    sources = [x for x, ys in enumerate(heads) for _ in ys]
    arrows = list(zip(sources, itertools.chain.from_iterable(heads), tables))
    out_of: list[list[int]] = [[] for _ in heads]
    for a, x in enumerate(sources):
        out_of[x].append(a)
    cells: list[list] = [list(range(len(heads))), [(a,) for a in range(len(arrows))]]
    if len(counts) > 2:
        ident = {arrow: a for a, arrow in enumerate(arrows)}
        # after[a][b]: the id of the composite of a then b, or None
        after = [
            {
                b: ident.get((i, arrows[b][1], tuple(arrows[b][2][v] for v in early)))
                for b in out_of[j]
            }
            for i, j, early in arrows
        ]
    while len(cells) < len(counts):
        cells.append([path + (b,) for path in cells[-1] for b in after[path[-1]]])

    def face_list(d, path):
        if d == 1:
            i, j, _ = arrows[path[0]]
            return [(1, j), (-1, i)]
        faces = [(1, path[1:])]
        for drop in range(1, d):
            merged = after[path[drop - 1]][path[drop]]
            faces.append(((-1) ** drop, path[: drop - 1] + (merged,) + path[drop + 1 :]))
        faces.append(((-1) ** d, path[:-1]))
        return faces

    return ChainComplex.from_cells(cells[: len(counts)], face_list)


class _Relations(collections.abc.Set):
    """The pairs (i, j) with bit j of below[i] set, read from the masks:
    the size from their bit counts, membership by a bit test, and the
    pairs in order of i, then j."""

    __slots__ = ("_below",)

    def __init__(self, below: tuple[int, ...]):
        self._below = below

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self._below)

    def __contains__(self, pair) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        i, j = pair
        return (
            isinstance(i, int)
            and isinstance(j, int)
            and 0 <= i < len(self._below)
            and j >= 0
            and self._below[i] >> j & 1 == 1
        )

    def __iter__(self):
        return ((i, j) for i, mask in enumerate(self._below) for j in _bits(mask))


@dataclass(frozen=True)
class MilgramPoset:
    n: int
    k: int
    elements: tuple[StratumLabel, ...]
    below: tuple[int, ...]  # bit j of below[i]: element i strictly above element j
    covers: tuple[tuple[int, int], ...]  # sorted (i, j): j a facet of i, nothing between

    @property
    def above(self) -> _Relations:
        """Pairs (i, j) with element i strictly above element j, as a
        read-only set over the below masks."""
        return _Relations(self.below)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "elements": [e.to_json() for e in self.elements],
            "relations": [
                [i, j] for i, mask in enumerate(self.below) for j in _bits(mask)
            ],
        }


def build_j(n: int, k: int) -> MilgramPoset:
    """Labeled n-ordinals of arity k, as StratumLabels, each above the cells
    it is a face of.

    (T, pi) lies above (S, rho) when relabeling positions through the
    labels gives a valid map T -> S; coarser structures sit on top.  This
    order is the face order of Milgram's cells, so it is the closure of the
    facets: going down in dimension, each facet (S, rho) of (T, id) puts
    (S, pi rho) above (T, pi) and above everything (T, pi) is above.  The
    face poset of a regular CW complex is graded by dimension, so these
    facet pairs are exactly the covering pairs; they are kept, sorted, as
    ``covers``.  The element count n^(k-1) k! is predicted first, one
    arity at a time so that any k is cheap, and its square bounds the bits
    of the below masks: at the first partial count whose square passes
    LIST_CAP, ResourceLimit is raised, and at a count of 0 the empty poset
    is returned at once.
    """
    count_ordinals(n, 0)  # refuses a bad n before anything is multiplied
    size = 1
    for m in range(2, k + 1):
        size *= m * n
        within_cap(size * size, "too many ordered pairs of elements to test", n=n, k=k)
        if not size:
            return MilgramPoset(n, k, (), (), ())
    ordinals = list(enumerate_ordinals(n, k))
    perms = list(itertools.permutations(range(k)))
    elements = tuple(StratumLabel(t, pi) for t in ordinals for pi in perms)
    first = {t.levels: i * len(perms) for i, t in enumerate(ordinals)}
    rank = {pi: i for i, pi in enumerate(perms)}
    below = [0] * len(elements)
    covers = []
    for t in sorted(first, key=sum, reverse=True):
        for s, rho, _ in _facets(t):
            for x, pi in enumerate(perms, first[t]):
                y = first[s] + rank[tuple(pi[r] for r in rho)]
                below[y] |= 1 << x | below[x]
                covers.append((y, x))
    return MilgramPoset(n, k, elements, tuple(below), tuple(sorted(covers)))


def _chain_counts(heads: list, max_dim: int | None, message: str, **where) -> list[int]:
    """The number of paths of d arrows for each dimension d up to max_dim,
    where heads[x] lists the target of each arrow out of x.

    The paths starting at x number c_d(x) = sum of c_(d-1)(y) over the
    arrows x -> y.  With no objects there are no dimensions, as in the
    built complex.  Once the running total passes LIST_CAP, ResourceLimit
    is raised with ``message`` and ``where``, and that total as ``predicted``.
    """
    starting = [1] * len(heads)
    counts = [len(heads)] if heads else []
    while max_dim is None or len(counts) <= max_dim:
        starting = [sum(starting[y] for y in ys) for ys in heads]
        count = sum(starting)
        if not count:
            break
        counts.append(count)
        within_cap(sum(counts), message, **where, dim=len(counts) - 1)
    return counts


_CHAINS = "too many chains in the order complex"


def chain_counts(p: MilgramPoset) -> list[int]:
    """The number of strict chains x_0 > ... > x_d of the poset for each
    dimension d, from the below masks alone."""
    return _chain_counts([_bits(mask) for mask in p.below], None, _CHAINS, n=p.n, k=p.k)


def order_complex(p: MilgramPoset, max_dim: int | None = None) -> ChainComplex:
    """Strictly decreasing chains of the poset as a chain complex.

    This is the nerve of the poset read as a thin category: an arrow is a
    pair (x, y) with y below x, with the empty table, numbered by x and
    then by y.  ``below`` is transitively closed, so x -> y then y -> z
    composes to the arrow x -> z.  A d-cell x_0 > ... > x_d is the tuple of
    its d arrow ids, and the cells come in the order of their chains.  They
    are counted from the below masks first, so a complex past LIST_CAP
    cells is refused before any chain is built.
    """
    below = [_bits(mask) for mask in p.below]
    return _nerve(below, itertools.repeat(()), max_dim, _CHAINS, n=p.n, k=p.k)


# -- Milgram's cells ------------------------------------------------------------


def _cells(n: int, k: int, labeled: bool):
    """The level tuples of the n-ordinals of arity k by dimension, the sum
    of the levels, and the facets of each as _facets lists them, signed.

    Work is predicted before it is done.  The cells, n^(k-1) (times k!
    with labels), are counted one arity at a time as in build_j, with two
    bounds: cells times 2^k - 2 on their incidences, and cells times the
    (n-1)(k-1) + 1 dimensions, each of which gets its own layer, index and
    elimination.  At a count of 0 there are no layers at all.  At n = 1
    every level is 0, so no node has a facet, and neither bound applies:
    Q_1(k) is a single cell, whose k - 1 levels are the work, and J_1(k)
    is its k! labelings, counted one arity at a time, each with k labels
    to store.  Otherwise, as the facets are listed, the face steps are
    summed: each face of each facet of a cell.  They price listing the
    signed facets, each with its k labels, and the dd = 0 check of
    from_cells, which walks them again for each of the k! labelings of a
    cell of J.  The sum times k (times k! with labels) is refused past the
    cap as soon as it passes it.
    """
    count_ordinals(n, 0)  # refuses a bad n before anything is multiplied
    if n == 1:
        count_ordinals(n, k)  # refuses a bad k
        if labeled:
            cells = 1
            for m in range(2, k + 1):
                cells *= m
                within_cap(
                    cells * k, "too many labels in the cellular complex", n=n, k=k, cells=cells
                )
        else:
            within_cap(k - 1, "too many levels in the cellular complex", n=n, k=k)
        levels = (0,) * (k - 1)
        return [[levels]], {levels: []}
    cells = 1
    for m in range(2, k + 1):
        cells *= n * m if labeled else n
        where = {"n": n, "k": k, "cells": cells}
        within_cap(cells * (2**m - 2), "too many incidences in the cellular complex", **where)
        within_cap(
            cells * ((n - 1) * (m - 1) + 1), "too many dimensions in the cellular complex",
            **where,
        )
        if not cells:
            return [], {}
    count_ordinals(n, k)  # refuses a bad k
    ordinals = sorted((t.levels for t in enumerate_ordinals(n, k)), key=sum)
    layers = [list(layer) for _, layer in itertools.groupby(ordinals, key=sum)]
    weight = math.factorial(k) if labeled else k
    facets, steps = {}, 0
    for layer in layers:
        for levels in layer:
            facets[levels] = own = _facets(levels)
            steps += sum(len(facets[s]) or 1 for s, _, _ in own)
            within_cap(
                steps * weight, "too many face steps in the cellular complex", n=n, k=k
            )
    return layers, facets


def _facets(levels: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The facets of the cell (levels, identity labels) of J, as (facet
    levels, rho, sign): the facet's labels are rho, the positions of the
    cell it puts first, second, ..., and sign is the incidence
    [(levels, id) : (facet levels, rho)].

    A node of the level tree is a maximal run of positions lo..hi whose
    inner gaps are all >= L >= 1, with m >= 2 children split at the gaps
    equal to L.  Each ordered split of its children into two nonempty
    groups X, Y gives one facet, 2^m - 2 per node: X then Y, each in its
    own order, with gap L - 1 between the groups and every other gap kept.

    The sign is the Fox-Neuwirth boundary rule (Fox & Neuwirth 1962;
    Giusti & Sinha 2011).  With d_i the sum of the levels inside child i,
    it is (-1)^D, D the dimension in front of the new gap, that is the
    levels before lo, (|X| - 1) L and the d_x of X, times the Koszul sign
    of the shuffle that brings X to the front, each child in degree
    d_i + L: (-1)^((d_x + L)(d_y + L)) for each y of Y before an x of X.
    """
    k = len(levels) + 1
    out = []
    for node_level in sorted(set(levels) - {0}):
        lo = 0
        while lo < k - 1:
            hi = lo
            while hi < k - 1 and levels[hi] >= node_level:
                hi += 1
            cuts = [g for g in range(lo, hi) if levels[g] == node_level]
            # children are positions start..end, joined by the cut gaps
            children = list(zip([lo] + [g + 1 for g in cuts], cuts + [hi]))
            inner = [sum(levels[start:end]) for start, end in children]
            front = sum(levels[:lo]) - node_level
            for mask in range(1, 2 ** len(children) - 1):
                first, then = [], []
                exponent, passed = front, 0  # passed: the odd degrees in Y so far
                for i, (child, d) in enumerate(zip(children, inner)):
                    odd = (d + node_level) & 1
                    if mask >> i & 1:
                        first.append(child)
                        exponent += node_level + d + odd * passed
                    else:
                        then.append(child)
                        passed += odd
                order, gaps = [], []
                for c, (start, end) in enumerate(first + then):
                    if c:
                        gaps.append(node_level - (c == len(first)))
                    order.extend(range(start, end + 1))
                    gaps.extend(levels[start:end])
                out.append((
                    levels[:lo] + tuple(gaps) + levels[hi:],
                    tuple(range(lo)) + tuple(order) + tuple(range(hi + 1, k)),
                    (-1) ** exponent,
                ))
            lo = hi + 1
    return out


def cellular_q(n: int, k: int) -> ChainComplex:
    """The cellular chain complex of Milgram's model of Conf_k(R^n) divided
    by S_k, a model of Q_n(k): one cell per n-ordinal, as its level tuple,
    of dimension the sum of its levels.  The boundary of T is the sum of
    [(T, id) : (S, rho)] S over the facets of (T, id)."""
    layers, facets = _cells(n, k, labeled=False)
    return ChainComplex.from_cells(
        layers, lambda d, t: [(sign, s) for s, _, sign in facets[t]]
    )


def cellular_j(n: int, k: int) -> ChainComplex:
    """The cellular chain complex of Milgram's model of Conf_k(R^n), whose
    face poset is J_n(k): one cell per labeled ordinal (levels, pi), with
    pi[i] the label at position i as in build_j.  Incidences are those of
    the cells (T, id), carried along the action: [(T, pi) : (S, pi rho)] =
    [(T, id) : (S, rho)]."""
    layers, facets = _cells(n, k, labeled=True)

    def face_list(d, cell):
        t, pi = cell
        return [(sign, (s, tuple(pi[x] for x in rho))) for s, rho, sign in facets[t]]

    cells = [
        [(t, pi) for t in layer for pi in itertools.permutations(range(k))]
        for layer in layers
    ]
    return ChainComplex.from_cells(cells, face_list)
