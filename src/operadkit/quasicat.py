"""The category of quasibijections and the labeled poset over it.

Q_n(k) has the n-ordinals of arity k as objects and all quasibijections
between them as morphisms.  The poset J_n(k) has labeled ordinals (T, pi)
as elements, ordered by validity of the induced label map; forgetting
labels is a free symmetric group quotient J_n(k)/S_k = Q_n(k).

Both carry classifying spaces: the nerve of Q (chains of composable
non-identity morphisms) and the order complex of J (strict chains).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AntisymmetryViolation,
    EndoFound,
    IsoCheckFailed,
    StrictnessRequired,
)
from .homology import ChainComplex
from .ordinal_maps import enumerate_maps, morphism_violation
from .ordinals import NOrdinal, enumerate_ordinals


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
    """All n-ordinals of arity k with every quasibijection between them."""
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


def nerve(c: QuasiCategory, max_dim: int | None = None) -> ChainComplex:
    """Chains of composable non-identity morphisms, as a chain complex.

    Arrows are numbered in ``non_identity`` order, and a d-cell is the
    tuple of its d arrow ids.  The inner face that composes two arrows is
    found by looking up the composite's (source, target, table).
    Requires strictness; composites of chain arrows are then never
    identities, so the construction closes under faces.
    """
    try:
        assert_strict(c)
    except (EndoFound, AntisymmetryViolation) as e:
        raise StrictnessRequired(
            "the nerve needs a strict category", reason=e.to_json()
        ) from e

    arrows = [(i, j, m.table) for i, j, m in c.non_identity()]
    ident = {arrow: a for a, arrow in enumerate(arrows)}
    out_of: dict[int, list[int]] = {}
    for a, (i, _, _) in enumerate(arrows):
        out_of.setdefault(i, []).append(a)
    cells: list[list] = [list(range(len(c.objects)))]
    chains = [(a,) for a in range(len(arrows))]
    dim = 1
    while chains and (max_dim is None or dim <= max_dim):
        cells.append(chains)
        chains = [
            path + (b,) for path in chains for b in out_of.get(arrows[path[-1]][1], ())
        ]
        dim += 1

    def face_list(d, path):
        if d == 0:
            return []
        if d == 1:
            i, j, _ = arrows[path[0]]
            return [(1, j), (-1, i)]
        faces = [(1, path[1:])]
        for drop in range(1, d):
            i, _, early = arrows[path[drop - 1]]
            _, j, late = arrows[path[drop]]
            merged = ident.get((i, j, tuple(late[v] for v in early)))
            faces.append(((-1) ** drop, path[: drop - 1] + (merged,) + path[drop + 1 :]))
        faces.append(((-1) ** d, path[:-1]))
        return faces

    return ChainComplex.from_cells(cells, face_list)


@dataclass(frozen=True)
class MilgramPoset:
    n: int
    k: int
    elements: tuple[tuple[NOrdinal, tuple[int, ...]], ...]
    above: frozenset  # pairs (i, j) with element i strictly above element j

    def label_map(self, i: int, j: int) -> tuple[int, ...]:
        """Table sending positions of element i to positions of element j
        matching labels."""
        (_, pi), (_, pj) = self.elements[i], self.elements[j]
        inv = {lab: pos for pos, lab in enumerate(pj)}
        return tuple(inv[lab] for lab in pi)

    def covering_pairs(self) -> list[tuple[int, int]]:
        above = self.above
        covers = []
        for i, j in sorted(above):
            if not any((i, m) in above and (m, j) in above for m in range(len(self.elements))):
                covers.append((i, j))
        return covers

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "elements": [
                {"ordinal": t.to_json(), "labels": list(pi)} for t, pi in self.elements
            ],
            "relations": sorted(list(p) for p in self.above),
        }


def build_j(n: int, k: int) -> MilgramPoset:
    """Labeled n-ordinals of arity k ordered by label-map validity.

    (T, pi) lies above (S, rho) when relabeling positions through the
    labels gives a valid map T -> S; coarser structures sit on top.
    """
    elements = tuple(
        (t, pi)
        for t in enumerate_ordinals(n, k)
        for pi in itertools.permutations(range(k))
    )
    above = set()
    for i, (t, pi) in enumerate(elements):
        for j, (s, rho) in enumerate(elements):
            if i == j:
                continue
            inv = {lab: pos for pos, lab in enumerate(rho)}
            table = tuple(inv[lab] for lab in pi)
            if morphism_violation(t, s, table) is None:
                above.add((i, j))
    for i, j in above:
        if (j, i) in above:
            raise AntisymmetryViolation(
                "poset relation holds in both directions",
                left=list(elements[i][1]),
                right=list(elements[j][1]),
            )
    return MilgramPoset(n, k, elements, frozenset(above))


def order_complex(p: MilgramPoset, max_dim: int | None = None) -> ChainComplex:
    """Strictly decreasing chains of the poset as a chain complex."""
    n_el = len(p.elements)
    below = {i: sorted(j for j in range(n_el) if (i, j) in p.above) for i in range(n_el)}
    cells: list[list] = [list(range(n_el))]
    chains = [(i, j) for i in range(n_el) for j in below[i]]
    dim = 1
    while chains and (max_dim is None or dim <= max_dim):
        cells.append(list(chains))
        nxt = []
        for chain in chains:
            for j in below[chain[-1]]:
                nxt.append(chain + (j,))
        chains = nxt
        dim += 1

    def face_list(d, cell):
        if d == 0:
            return []
        if d == 1:
            return [(1, cell[1]), (-1, cell[0])]
        return [
            ((-1) ** drop, cell[:drop] + cell[drop + 1 :]) for drop in range(d + 1)
        ]

    return ChainComplex.from_cells(cells, face_list)


def verify_quotient_correspondence(p: MilgramPoset, c: QuasiCategory) -> int:
    """Check that forgetting labels identifies J/S_k with Q.

    For every element X = (T, pi) and object S, the elements below X with
    underlying ordinal S must correspond one to one with hom(T, S), the
    bijection reading off the label map.  Returns the number of relation
    pairs checked.  Raises IsoCheckFailed on any mismatch.
    """
    obj_index = {obj: i for i, obj in enumerate(c.objects)}
    checked = 0
    for i, (t, pi) in enumerate(p.elements):
        ti = obj_index[t]
        reached: dict[int, set] = {}
        for j in range(len(p.elements)):
            if (i, j) in p.above:
                s, rho = p.elements[j]
                reached.setdefault(obj_index[s], set()).add(p.label_map(i, j))
        for si, s in enumerate(c.objects):
            hom = {
                m.table
                for m in c.hom.get((ti, si), ())
                if not (ti == si and m.is_identity)
            }
            got = reached.get(si, set())
            if got != hom:
                raise IsoCheckFailed(
                    "label maps below an element do not match the hom-set",
                    element={"ordinal": t.to_json(), "labels": list(pi)},
                    target=s.to_json(),
                    got=sorted(got),
                    expected=sorted(hom),
                )
            checked += len(got)
    return checked
