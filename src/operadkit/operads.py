"""Finite-set operads of four flavors with exhaustive bounded axiom checks.

Carriers are finite sets indexed by arity (symmetric, braided and mixed
flavors) or by n-ordinals (the n-operad flavor).  Each carrier is the index
range ``range(size)`` plus one decode tuple that names its elements; the
decode tuple is read only at the edges: JSON in and out, failure witnesses
and ``BraidedActions.to_json``.  Multiplication tables are kept per
surjection as flat lists of source indices in mixed radix, the target
element outermost and then the fiber elements in order (the order of the
nested JSON arrays), and reached only through ``FiniteOperad.table``;
group actions are kept by generator images as index lists, and everything
else (whole-group actions, quasibijection actions, arbitrary
multiplications) is derived by word evaluation or factorization.  All
axiom checks require a table at every surjection within an explicit arity
bound and instantiate the identities, by offset arithmetic and list
gathers, over every morphism, square and element tuple within it, so a
passing report is a finite proof and a failing one carries a concrete
witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .braids import (
    BraidWord,
    Permutation,
    block_permutation,
    cable,
    q_section,
)
from .errors import (
    BadDocument,
    BoundExceeded,
    InvariantBroken,
    MissingTable,
    NotQuasibijection,
    NotQuasisymmetric,
    OutOfRange,
    RelationFailed,
    ResourceLimit,
    decode,
)
from .ordinal_maps import (
    OrdinalMap,
    compose,
    enumerate_maps,
    factorize,
    fiber,
    identity_map,
    induced,
    morphism_violation,
    restrict_map,
)
from .ordinals import LevelDomain, NOrdinal, enumerate_ordinals, make_ordinal
from .zigzags import generator_span

CARRIER_CAP = 100_000
# Longest flat list an axiom check builds (a multiplication table, or one
# side of an associativity instance), and the most table entries an operad
# document holds.  End{0,1} at bound 3 needs 2**20.
LIST_CAP = 2**24


# -- flavors and index plumbing --------------------------------------------


@dataclass(frozen=True)
class Flavor:
    """Operad flavor; ``n`` is set only for the n-operad kind."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "braided", "mixed2", "n-operad"):
            raise OutOfRange("unknown operad flavor", kind=self.kind)
        if (self.kind == "n-operad") != (self.n is not None):
            raise OutOfRange("n is set exactly for the n-operad flavor", kind=self.kind)
        if self.n is not None and self.n < 1:
            raise OutOfRange("n must be positive", n=self.n)

    @property
    def uses_arity_keys(self) -> bool:
        return self.kind != "n-operad"

    def __str__(self) -> str:
        if self.kind == "n-operad":
            return f"n-operad({self.n})"
        return self.kind


SYMMETRIC = Flavor("symmetric")
BRAIDED = Flavor("braided")
MIXED2 = Flavor("mixed2")


def N_OPERAD(n: int) -> Flavor:
    return Flavor("n-operad", int(n))


def _line(k: int) -> NOrdinal:
    """The unique 1-ordinal of arity k."""
    return NOrdinal(LevelDomain.finite(1), k, (0,) * max(k - 1, 0))


def _point(flavor: Flavor) -> NOrdinal:
    if flavor.uses_arity_keys:
        return _line(1)
    return make_ordinal(flavor.n, (), arity=1)


def _index_ordinals(flavor: Flavor, bound: int) -> list[NOrdinal]:
    """Carrier index objects with arity between 1 and bound, in lex order."""
    if flavor.uses_arity_keys:
        return [_line(k) for k in range(1, bound + 1)]
    out: list[NOrdinal] = []
    for k in range(1, bound + 1):
        out.extend(enumerate_ordinals(flavor.n, k))
    return out


def _carrier_key(flavor: Flavor, a: NOrdinal):
    return a.arity - 1 if flavor.uses_arity_keys else a


def ordinal_key(a: NOrdinal) -> str:
    """Stable string key for an index ordinal."""
    return f"{a.arity}:" + ",".join(str(v) for v in a.levels)


def morphism_key(sigma: OrdinalMap) -> str:
    """Stable string key for a morphism, used in reports and JSON tables."""
    table = ",".join(str(v) for v in sigma.table)
    return f"{ordinal_key(sigma.source)}>{ordinal_key(sigma.target)}|{table}"


# -- mixed-radix arithmetic ---------------------------------------------------


def _sums(terms: Iterable[Sequence[int]]) -> list[int]:
    """Every sum of one entry from each list, in itertools.product order."""
    out = [0]
    for options in terms:
        out = [o + v for o in out for v in options]
    return out


def _strides(radix: Sequence[int]) -> list[int]:
    """Place values of a mixed radix, most significant digit first."""
    out = [1] * len(radix)
    for i in range(len(radix) - 2, -1, -1):
        out[i] = out[i + 1] * radix[i + 1]
    return out


def _chunks(flat: Sequence, width: int) -> list:
    """A flat list cut into consecutive rows of the given width."""
    return [flat[i : i + width] for i in range(0, len(flat), width)]


def _moved(table: list[int], tops, sizes: Sequence[int], slots, acts) -> list[int]:
    """A flat table read at moved arguments, for every argument tuple.

    For each (a, f_0, .., f_k) in product order, with ``sizes`` the radix
    of the f_j, the entry read is the one at top element tops[a] whose
    fiber p holds acts[p] of f_slots[p]; ``slots`` is a permutation.
    """
    strides = _strides([sizes[j] for j in slots])
    terms: list = [None] * len(sizes)
    for p, j in enumerate(slots):
        terms[j] = [v * strides[p] for v in acts[p]]
    rows = _chunks(table, math.prod(sizes))
    offsets = _sums(terms)
    return [row[o] for row in [rows[t] for t in tops] for o in offsets]


# -- collections ------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCollection:
    """Finite carriers plus generator images of the acting groups.

    ``carrier`` maps an index key (int arity index, or NOrdinal for the
    n-operad flavor) to the carrier's decode tuple: the elements are the
    indices ``range(size)``, and entry i names element i at the edges.
    ``actions`` maps (key, i) to the image list of the i-th adjacent
    transposition (symmetric flavor) or the i-th Artin generator (braided
    and mixed flavors): entry x is the index of the image of x.  The
    n-operad flavor has no stored actions; its quasibijection actions are
    induced from multiplication by unit insertion.
    """

    flavor: Flavor
    carrier: Mapping
    actions: Mapping
    _act_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def decoding(self, key) -> tuple:
        """The decode tuple of the carrier at key."""
        if key not in self.carrier:
            raise BoundExceeded("no carrier at this index", key=str(key))
        return self.carrier[key]

    def size(self, key) -> int:
        return len(self.decoding(key))

    def generator_action(self, key, i: int) -> list[int]:
        if (key, i) not in self.actions:
            raise MissingTable("no generator action stored", key=str(key), generator=i)
        return self.actions[(key, i)]

    def action_of_word(self, key, letters: Sequence[int]) -> list[int]:
        """Composite action of a word in the generators, first letter first.

        Negative letters act by the inverse image, which must exist.
        """
        letters = tuple(letters)
        cached = self._act_cache.get((key, letters))
        if cached is not None:
            return cached
        table = list(range(self.size(key)))
        for letter in letters:
            g = self.generator_action(key, abs(letter))
            if letter < 0:
                g = _inverse(g, len(g))
                if g is None:
                    raise _not_invertible(key, abs(letter))
            table = [g[v] for v in table]
        self._act_cache[(key, letters)] = table
        return table

    def action_of_permutation(self, key, rho: Permutation) -> list[int]:
        return self.action_of_word(key, q_section(rho).word)


def _inverse(action: Sequence[int], size: int) -> list[int] | None:
    """The inverse of a bijection onto range(size), else None."""
    if sorted(action) != list(range(size)):
        return None
    inv = [0] * size
    for x, v in enumerate(action):
        inv[v] = x
    return inv


def _not_invertible(key, i: int) -> InvariantBroken:
    return InvariantBroken("generator action is not invertible", key=str(key), generator=i)


def validate_collection(c: FiniteCollection) -> None:
    """Check the generator images against the defining group relations.

    Symmetric actions must satisfy the full Coxeter relations; braided and
    mixed actions must be bijections satisfying far commutation and the
    braid relation, with no involution requirement.  Violations raise
    InvariantBroken with a decoded witness, because word evaluation is
    meaningless without them.
    """
    if not c.flavor.uses_arity_keys:
        if c.actions:
            raise InvariantBroken("n-operad collections store no actions")
        return
    for key, elems in c.carrier.items():
        k = key + 1
        gens = []
        for i in range(1, k):
            g = c.generator_action(key, i)
            if len(g) != len(elems):
                raise InvariantBroken(
                    "action domain differs from the carrier", key=key, generator=i
                )
            if any(not 0 <= v < len(elems) for v in g):
                raise InvariantBroken(
                    "action leaves the carrier", key=key, generator=i
                )
            gens.append(g)
        for i, g in enumerate(gens, 1):
            if c.flavor.kind == "symmetric":
                bad = next((x for x in range(len(g)) if g[g[x]] != x), None)
                if bad is not None:
                    raise InvariantBroken(
                        "transposition image is not an involution",
                        key=key,
                        generator=i,
                        witness=elems[bad],
                    )
            elif _inverse(g, len(g)) is None:
                raise _not_invertible(key, i)
        broken = _broken_relation(gens, len(elems))
        if broken is not None:
            relation, pair, witness = broken
            raise InvariantBroken(
                f"{_RELATION_TEXT[relation]} fails",
                key=key,
                generators=list(pair),
                witness=elems[witness],
            )


_RELATION_TEXT = {"far-commutation": "far commutation", "braid": "braid relation"}


def _artin_relations(k: int) -> Iterator[tuple[str, int, int]]:
    """Far-commutation pairs, then braid-relation pairs, of generators 1..k-1."""
    for i, j in itertools.combinations(range(1, k), 2):
        if j - i >= 2:
            yield "far-commutation", i, j
    for i in range(1, k - 1):
        yield "braid", i, i + 1


def _broken_relation(gens: Sequence[Sequence[int]], size: int):
    """First (relation, (i, j), x) such that the images gens[i - 1] of the
    Artin generators break the relation on element index x, or None."""
    for relation, i, j in _artin_relations(len(gens) + 1):
        a, b = gens[i - 1], gens[j - 1]
        for x in range(size):
            if relation == "braid":
                holds = a[b[a[x]]] == b[a[b[x]]]
            else:
                holds = a[b[x]] == b[a[x]]
            if not holds:
                return relation, (i, j), x
    return None


# -- operads ----------------------------------------------------------------


@dataclass
class FiniteOperad:
    """A finite collection with a unit and multiplication tables.

    Elements are carrier indices.  ``unit`` indexes the arity-one carrier,
    and the table at sigma is a flat list of indices into the source
    carrier, in mixed radix over the carriers of the target and then of
    each fiber: the entry for (a, f_0, .., f_k) sits at offset
    ((a * |F_0| + f_0) * |F_1| + f_1) .., the order of the nested JSON
    arrays.  ``table(sigma)`` is the one way to reach a table: it returns
    the table stored in ``tables``, or else the one ``supplier`` builds,
    which it then stores, or else None.  The supplier is asked only for
    surjections within the bound.  ``mult`` is ``table`` that raises
    MissingTable instead of returning None.  ``quasi_actor``, when set,
    gives induced quasibijection actions without building their tables.
    Nothing is validated at construction, the check_* functions do that,
    which keeps fault injection possible.
    """

    collection: FiniteCollection
    unit: int
    bound: int
    tables: dict = field(default_factory=dict)
    supplier: Callable[[OrdinalMap], list | None] | None = None
    quasi_actor: Callable[[OrdinalMap], list] | None = None

    @property
    def flavor(self) -> Flavor:
        return self.collection.flavor

    def carrier_of(self, a: NOrdinal) -> range:
        return range(self.collection.size(_carrier_key(self.flavor, a)))

    def table(self, sigma: OrdinalMap) -> list[int] | None:
        found = self.tables.get(sigma)
        if found is None and self.supplier is not None and sigma.is_surjective:
            found = self.supplier(sigma) if sigma.source.arity <= self.bound else None
            if found is not None:
                self.tables[sigma] = found
        return found

    def mult(self, sigma: OrdinalMap) -> list[int]:
        found = self.table(sigma)
        if found is None:
            raise MissingTable(
                "no multiplication table for this morphism",
                morphism=morphism_key(sigma),
            )
        return found

    def index_ordinals(self, bound: int | None = None) -> list[NOrdinal]:
        return _index_ordinals(self.flavor, self.bound if bound is None else bound)


@dataclass(frozen=True)
class _Surjection:
    """A required surjection with its source positions and induced
    ordinal over each target position, the carrier keys and sizes (0 when
    missing) of its target and fibers, and its table once looked up."""

    morphism: OrdinalMap
    name: str
    blocks: tuple[tuple[int, ...], ...]
    fibers: tuple[NOrdinal, ...]
    keys: tuple
    sizes: tuple[int, ...]
    table: list[int] | None = None


def _key(source: NOrdinal, target: NOrdinal, table: tuple[int, ...]) -> tuple:
    """The key of a surjection among those of one flavor."""
    return source.levels, target.arity, target.levels, table


def _surjections(op: FiniteOperad, bound: int) -> dict[tuple, _Surjection]:
    """Every surjection between index ordinals within bound, by key: the
    morphisms whose tables the axioms quantify over, each derived once."""
    size = {key: len(elems) for key, elems in op.collection.carrier.items()}
    objs = _index_ordinals(op.flavor, bound)
    out = {}
    for t, s in itertools.product(objs, repeat=2):
        for sigma in enumerate_maps(t, s) if s.arity <= t.arity else ():
            if not sigma.is_surjective:
                continue
            blocks = tuple(
                tuple(i for i, v in enumerate(sigma.table) if v == j) for j in range(s.arity)
            )
            fibers = tuple(induced(t, block) for block in blocks)
            keys = tuple(_carrier_key(op.flavor, a) for a in (s, *fibers))
            sizes = tuple(size.get(key, 0) for key in keys)
            rec = _Surjection(sigma, morphism_key(sigma), blocks, fibers, keys, sizes)
            out[_key(t, s, sigma.table)] = rec
    return out


def _covered(op: FiniteOperad, records: dict) -> dict[tuple, _Surjection]:
    """The records that have a multiplication table, with it filled in."""
    return {
        key: replace(rec, table=table)
        for key, rec in records.items()
        if (table := op.table(rec.morphism)) is not None
    }


# -- axiom reports -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    instance: str
    witness: tuple

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "instance": self.instance,
            "witness": _thaw(self.witness),
        }


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    failures: tuple[AxiomFailure, ...]
    checked: int

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "failures": [f.to_json() for f in self.failures],
        }

    def __str__(self) -> str:
        if self.passed:
            return f"pass ({self.checked} instances)"
        head = self.failures[0]
        return (
            f"FAIL ({len(self.failures)} failures / {self.checked} instances), "
            f"first: {head.axiom} at {head.instance}"
        )


def _report(failures: list[AxiomFailure], checked: int) -> AxiomReport:
    ordered = tuple(
        sorted(failures, key=lambda f: (f.axiom, f.instance, repr(f.witness)))
    )
    return AxiomReport(not ordered, ordered, checked)


def _mismatches(coll: FiniteCollection, keys, lhs, rhs, axiom, instance, failures) -> int:
    """Compare two flat lists over the argument tuples of the carriers at
    keys, in product order; each differing entry is one failure, with the
    decoded argument tuple as witness.  Returns the instance count."""
    if lhs != rhs:
        decodings = [coll.decoding(key) for key in keys]
        for args, left, right in zip(itertools.product(*decodings), lhs, rhs):
            if left != right:
                failures.append(AxiomFailure(axiom, instance, args))
    return len(lhs)


# -- the axiom checker -------------------------------------------------------


def check_operad_axioms(op: FiniteOperad, bound: int | None = None) -> AxiomReport:
    """Exhaustively instantiate every axiom of the operad's flavor.

    Every required surjection within bound must have a table; each one
    without is a ``coverage`` failure, and the instances that need it are
    skipped.  Before any table is built, the longest list the check would
    build is predicted from the carrier sizes; past LIST_CAP entries the
    check raises ResourceLimit.  Associativity and both unit laws run for
    all flavors.  The symmetric flavor adds the two equivariance
    identities in both presentations (whole-group reindexing and commuting
    squares with bijective verticals); the braided flavor checks
    equivariance on Artin generator words with cabled output braids; the
    mixed flavor checks the two square conditions over genuine 2-ordinal
    squares with quasibijection verticals.  Generator images are
    validated first and raise on failure.  Each surjection is keyed once
    per check, and the instances find composites and restrictions by key.
    """
    bound = op.bound if bound is None else bound
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    if bound > op.bound:
        raise BoundExceeded("check bound exceeds the operad bound", bound=bound)
    validate_collection(op.collection)
    if op.unit not in op.carrier_of(_point(op.flavor)):
        raise InvariantBroken("unit element is not in the arity-one carrier")
    records = _surjections(op, bound)
    longest = _longest_list(records.values())
    if longest > LIST_CAP:
        raise ResourceLimit(
            "an axiom check would build too long a list",
            predicted=longest, cap=LIST_CAP,
        )
    covered = _covered(op, records)
    failures = [
        AxiomFailure("coverage", rec.name, ())
        for key, rec in records.items()
        if key not in covered
    ]
    checked = 0
    checked += _check_units(op, covered, bound, failures)
    checked += _check_associativity(op, covered, failures)
    if op.flavor.kind == "symmetric":
        checked += _check_reindexing(op, covered, failures)
        checked += _check_square_eq1(op, covered, bound, failures, braided=False)
        checked += _check_square_eq2(op, covered, bound, failures, braided=False)
    elif op.flavor.kind == "braided":
        checked += _check_reindexing(op, covered, failures)
    elif op.flavor.kind == "mixed2":
        checked += _check_square_eq1(op, covered, bound, failures, braided=True)
        checked += _check_square_eq2(op, covered, bound, failures, braided=True)
    return _report(failures, checked)


def _longest_list(records: Iterable[_Surjection]) -> int:
    """The length of the longest list a check builds, from carrier sizes
    alone.

    The table at sigma has |target| times the product of its fiber sizes
    entries, and both sides of the associativity instance (sigma, omega)
    have the table length of omega times that product of sigma.  Every
    identity is required, so the longest side is at least every table.
    """
    tables_from, fibers_into = {}, {}
    for rec in records:
        source, target = rec.morphism.source, rec.morphism.target
        fibers = math.prod(rec.sizes[1:])
        tables_from[source] = max(tables_from.get(source, 0), rec.sizes[0] * fibers)
        fibers_into[target] = max(fibers_into.get(target, 0), fibers)
    return max((tables_from[b] * fibers for b, fibers in fibers_into.items()), default=0)


def _payload_entries(records: Iterable[_Surjection]) -> int:
    """The number of table entries over these surjections, from carrier
    sizes alone."""
    return sum(math.prod(rec.sizes) for rec in records)


def _unit_entries(op: FiniteOperad, arity: int) -> slice:
    """The entries (a, unit, .., unit), for every a, of a table whose
    fibers are all points."""
    points = op.collection.size(_carrier_key(op.flavor, _point(op.flavor)))
    return slice(op.unit * sum(points**j for j in range(arity)), None, points**arity)


def _check_units(op: FiniteOperad, covered: dict, bound: int, failures: list) -> int:
    checked = 0
    pt = _point(op.flavor)
    for t in op.index_ordinals(bound):
        elems = op.collection.decoding(_carrier_key(op.flavor, t))
        size = len(elems)
        # unit-right reads a at (a, unit, .., unit), unit-left reads f at (unit, f)
        left = slice(op.unit * size, (op.unit + 1) * size)
        for axiom, key, entries in (
            ("unit-right", _key(t, t, tuple(range(t.arity))), _unit_entries(op, t.arity)),
            ("unit-left", _key(t, pt, (0,) * t.arity), left),
        ):
            if (rec := covered.get(key)) is not None:
                checked += size
                for x, got in enumerate(rec.table[entries]):
                    if got != x:
                        witness = (elems[x], elems[got])
                        failures.append(AxiomFailure(axiom, rec.name, witness))
    return checked


def _associativity_instance(
    op: FiniteOperad, covered: dict, sigma: _Surjection, omega: _Surjection, failures: list
) -> int:
    """mu_sigma . mu_omega against mu_{omega . sigma} with fiber restrictions.

    The composite and the restrictions of sigma, whose sources are the
    composite's fibers, are looked up by key; the instance is skipped if
    one has no table.  Both sides are flat lists over (a, b_0, .., f_0, ..):
    the left side puts the sigma row of each omega entry in place, the
    right side gathers each composite row at offsets that substitute the
    fiber arguments into the restricted tables, which do not depend on a.
    """
    image = sigma.morphism.table
    joined = tuple(omega.morphism.table[v] for v in image)
    composite = covered.get(_key(sigma.morphism.source, omega.morphism.target, joined))
    if composite is None:
        return 0
    mu_parts = []
    for sources, positions, source, target in zip(
        composite.blocks, omega.blocks, composite.fibers, omega.fibers
    ):
        local = tuple(positions.index(image[t]) for t in sources)
        part = covered.get(_key(source, target, local))
        if part is None:
            return 0
        mu_parts.append(part.table)
    f_sizes = sigma.sizes[1:]
    width = math.prod(f_sizes)
    comp_sizes = composite.sizes[1:]
    comp_strides = _strides(comp_sizes)
    # per (b_0, ..) in product order, the composite-row offset of
    # (mu_r0(b_0; fs on fiber 0), mu_r1(b_1; ..), ..) for every fs
    by_b = [[0] * width]
    for i, positions in enumerate(omega.blocks):
        part_sizes = [f_sizes[j] for j in positions]
        terms = [[0] * m for m in f_sizes]
        for j, stride in zip(positions, _strides(part_sizes)):
            terms[j] = [x * stride for x in range(f_sizes[j])]
        picks = _sums(terms)
        scaled = [
            [comp_strides[i] * row[o] for o in picks]
            for row in _chunks(mu_parts[i], math.prod(part_sizes))
        ]
        by_b = [list(map(add, head, tail)) for head in by_b for tail in scaled]
    offsets = [o for offs in by_b for o in offs]
    comp_rows = _chunks(composite.table, math.prod(comp_sizes))
    rhs = [row[o] for row in comp_rows for o in offsets]
    sigma_rows = _chunks(sigma.table, width)
    lhs: list[int] = []
    for b in omega.table:
        lhs += sigma_rows[b]
    keys = [*omega.keys, *sigma.keys[1:]]
    instance = f"{sigma.name} ; {omega.name}"
    return _mismatches(op.collection, keys, lhs, rhs, "associativity", instance, failures)


def _check_associativity(op: FiniteOperad, covered: dict, failures: list) -> int:
    by_source: dict[NOrdinal, list[_Surjection]] = {}
    for rec in covered.values():
        by_source.setdefault(rec.morphism.source, []).append(rec)
    checked = 0
    for sigma in covered.values():
        for omega in by_source.get(sigma.morphism.target, ()):
            checked += _associativity_instance(op, covered, sigma, omega, failures)
    return checked


# -- equivariance by reindexing, symmetric and braided ----------------------


def _symmetric_moves(sizes: tuple[int, ...]) -> Iterator[tuple]:
    """Every permutation of the slots, lifted by block permutation, then
    every nontrivial tuple of permutations inside the slots."""
    k = len(sizes)
    for rho in itertools.permutations(range(k)):
        perm = Permutation(rho)
        out = q_section(block_permutation(perm, sizes)).word
        yield "equivariance-1", f"rho={list(rho)}", q_section(perm).word, ((),) * k, out
    offsets = [sum(sizes[:j]) for j in range(k)]
    for rhos in itertools.product(*[itertools.permutations(range(m)) for m in sizes]):
        if all(r == tuple(range(len(r))) for r in rhos):
            continue
        words = tuple(q_section(Permutation(r)).word for r in rhos)
        image = tuple(offsets[j] + v for j, r in enumerate(rhos) for v in r)
        out = q_section(Permutation(image)).word
        yield "equivariance-2", f"rhos={[list(r) for r in rhos]}", (), words, out


def _braided_moves(sizes: tuple[int, ...]) -> Iterator[tuple]:
    """Each positive Artin letter on the slots, lifted by cabling, then each
    letter inside one slot.

    The action of an arbitrary braid is the word evaluation of the
    generator images, so checking the generating letters decides the
    identities for all words, provided every order-preserving surjection
    within bound is quantified, which it is.
    """
    k = len(sizes)
    for i in range(1, k):
        out = cable(BraidWord(k, (i,)), sizes).word
        yield "equivariance-1", f"letter={i}", (i,), ((),) * k, out
    offset = 0
    for j, m in enumerate(sizes):
        for i in range(1, m):
            words = tuple((i,) if l == j else () for l in range(k))
            yield "equivariance-2", f"slot={j} letter={i}", (), words, (offset + i,)
        offset += m


def _check_reindexing(op: FiniteOperad, covered: dict, failures: list) -> int:
    """Both equivariance identities via carrier reindexing, one move at a time.

    A move acts on the top element by a word, which reorders the argument
    slots by its permutation, acts on each argument by a word, and
    multiplies along the reordered morphism; the result must equal the
    output word acting on the product.  The first identity moves the top
    element and the slots; the second moves the arguments in place.  The
    flavor picks the moves: every permutation lifted by block permutation
    (symmetric), or each Artin letter lifted by cabling (braided).
    """
    moves = _braided_moves if op.flavor.kind == "braided" else _symmetric_moves
    checked = 0
    coll = op.collection
    for rec in covered.values():
        sizes = tuple(map(len, rec.blocks))
        total, k = sum(sizes), len(sizes)
        for axiom, label, top_word, slot_words, out_word in moves(sizes):
            order = BraidWord(k, top_word).permutation().inverse().image
            slotted = tuple(l for l, j in enumerate(order) for _ in range(sizes[j]))
            moved = covered.get(_key(rec.morphism.source, rec.morphism.target, slotted))
            if moved is None:
                continue
            act_top = coll.action_of_word(k - 1, top_word)
            acts = [coll.action_of_word(sizes[j] - 1, slot_words[j]) for j in order]
            act_out = coll.action_of_word(total - 1, out_word)
            lhs = _moved(moved.table, act_top, rec.sizes[1:], order, acts)
            rhs = [act_out[v] for v in rec.table]
            instance = f"{rec.name} {label}"
            checked += _mismatches(coll, rec.keys, lhs, rhs, axiom, instance, failures)
    return checked


# -- square-style equivariance ----------------------------------------------


@functools.cache
def _lift_word(table: tuple[int, ...], braided: bool, inverse: bool) -> tuple[int, ...]:
    """The word of a vertical map's lift, or of its inverse.

    For the symmetric flavor the lift is the permutation itself; for the
    mixed flavor it is the positive braid word of the quasibijection, and
    the inverse is the reversed negative word, which need not act like the
    positive lift of the inverse permutation.
    """
    rho = Permutation(table)
    if braided:
        lift = BraidWord(len(table), q_section(rho).word)
        return lift.inverse().word if inverse else lift.word
    return q_section(rho.inverse() if inverse else rho).word


def _fiber_lifts(
    coll: FiniteCollection, lower, upper, vertical, slots, braided: bool, inverse: bool
) -> list[list[int]]:
    """Per slot l, the lift action of the vertical restricted to fibers: it
    maps the fiber of ``lower`` over l onto the fiber of ``upper`` over
    slots[l]."""
    acts = []
    for l, slot in enumerate(slots):
        above = [t for t, v in enumerate(upper) if v == slot]
        local = tuple(above.index(vertical[u]) for u, v in enumerate(lower) if v == l)
        acts.append(coll.action_of_word(len(local) - 1, _lift_word(local, braided, inverse)))
    return acts


def _square_eq1_instance(
    op: FiniteOperad,
    sigma: OrdinalMap,
    line: _Surjection,
    sigma2: OrdinalMap,
    line2: _Surjection,
    p_table: tuple[int, ...],
    r_table: tuple[int, ...],
    braided: bool,
    failures: list[AxiomFailure],
    signs: tuple[bool, bool, bool] = (True, True, True),
) -> int:
    """One commuting square sigma . p = r . sigma2 of the first condition,
    with line and line2 the covered line maps of sigma and sigma2.

    The default signs invert every vertical: the lifts transport elements
    against the direction of the maps.
    """
    coll = op.collection
    total, k = sigma.source.arity, sigma.target.arity
    act_top = coll.action_of_word(k - 1, _lift_word(r_table, braided, signs[0]))
    act_out = coll.action_of_word(total - 1, _lift_word(p_table, braided, signs[2]))
    fiber_acts = _fiber_lifts(
        coll, sigma2.table, sigma.table, p_table, r_table, braided, signs[1]
    )
    lhs = _moved(line2.table, act_top, line.sizes[1:], r_table, fiber_acts)
    rhs = [act_out[v] for v in line.table]
    instance = (
        f"{morphism_key(sigma)} p={list(p_table)} "
        f"r={list(r_table)} via={morphism_key(sigma2)}"
    )
    return _mismatches(coll, line.keys, lhs, rhs, "equivariance-1", instance, failures)


def _squares(covered: dict, bound: int, braided: bool):
    """Everything a square condition quantifies over, enumerated once.

    Corners are 2-ordinals (mixed flavor) or lines (1-ordinals), by
    arity.  ``verticals`` maps each same-arity corner pair (a, b) to the
    tables of the vertical maps a -> b: quasibijections, or every
    permutation between lines.  ``horizontals`` maps a corner a to a dict
    that maps each corner b of no larger arity to the order-preserving
    surjections a -> b whose line map is covered, keyed by their table
    and carrying (map, covered line map).
    """
    n = 2 if braided else 1
    by_arity = {k: list(enumerate_ordinals(n, k)) for k in range(1, bound + 1)}
    verticals = {
        (a, b): [m.table for m in enumerate_maps(a, b, kind="quasi")]
        if braided
        else list(itertools.permutations(range(a.arity)))
        for group in by_arity.values()
        for a, b in itertools.product(group, repeat=2)
    }
    objs = [o for group in by_arity.values() for o in group]
    horizontals = {a: {b: {} for b in objs if b.arity <= a.arity} for a in objs}
    for a, targets in horizontals.items():
        for b, found in targets.items():
            for m in enumerate_maps(a, b, kind="order"):
                line = covered.get(_key(_line(a.arity), _line(b.arity), m.table))
                if line is not None:
                    found[m.table] = (m, line)
    return by_arity, verticals, horizontals


def _check_square_eq1(
    op: FiniteOperad,
    covered: dict,
    bound: int,
    failures: list[AxiomFailure],
    braided: bool,
    signs: tuple[bool, bool, bool] = (True, True, True),
) -> int:
    """First square condition, quantified over all valid squares in bound.

    Horizontals are order-preserving surjections (of 2-ordinals in the
    mixed flavor), verticals are quasibijections (arbitrary bijections in
    the symmetric flavor), and the square must commute on tables.  Given
    sigma and the verticals p and r, the second horizontal is forced to be
    r^-1 . sigma . p, and the square exists when that is one of the
    horizontals.
    """
    checked = 0
    by_arity, verticals, horizontals = _squares(covered, bound, braided)
    for t, targets in horizontals.items():
        for s, found in targets.items():
            for sigma, line in found.values():
                for t2 in by_arity[t.arity]:
                    for p_table in verticals[(t2, t)]:
                        moved = [sigma.table[u] for u in p_table]
                        for s2 in by_arity[s.arity]:
                            candidates = horizontals[t2][s2]
                            for r_table in verticals[(s2, s)]:
                                hit = candidates.get(tuple(r_table.index(v) for v in moved))
                                if hit is not None:
                                    checked += _square_eq1_instance(
                                        op, sigma, line, *hit, p_table, r_table,
                                        braided, failures, signs,
                                    )
    return checked


def _route_value(
    op: FiniteOperad,
    eta: OrdinalMap,
    mu: list[int],
    q_table: tuple[int, ...],
    omega_table: tuple[int, ...],
    braided: bool,
    signs: tuple[bool, bool] = (True, False),
) -> list[int]:
    """Transport of mu, the table of eta, along a quasibijection onto the
    composite's fibers.

    The route value at (a, h_0, .., h_k) applies the forward fiber actions
    to the arguments, multiplies along eta, and pulls the result back with
    the inverse action of the whole quasibijection.
    """
    coll = op.collection
    k = eta.target.arity
    inverse_whole = coll.action_of_word(
        len(q_table) - 1, _lift_word(q_table, braided, signs[0])
    )
    forward = _fiber_lifts(
        coll, omega_table, eta.table, q_table, range(k), braided, signs[1]
    )
    sizes = [len(act) for act in forward]
    tops = range(coll.size(k - 1))
    return [inverse_whole[v] for v in _moved(mu, tops, sizes, range(k), forward)]


def _check_square_eq2(
    op: FiniteOperad,
    covered: dict,
    bound: int,
    failures: list[AxiomFailure],
    braided: bool,
    signs: tuple[bool, bool] = (True, False),
) -> int:
    """Second square condition: routes with a common composite agree.

    A route factors a map as a quasibijection followed by an
    order-preserving surjection; all routes sharing the composite must
    produce the same transported multiplication.
    """
    checked = 0
    by_arity, verticals, horizontals = _squares(covered, bound, braided)
    for t in horizontals:
        routes: dict[tuple, list] = {}
        for mid in by_arity[t.arity]:
            for q_table in verticals[(t, mid)]:
                for s, found in horizontals[mid].items():
                    for eta, line in found.values():
                        omega_table = tuple(eta.table[v] for v in q_table)
                        routes.setdefault((str(s), omega_table), []).append(
                            (q_table, eta, line.table)
                        )
        for (_, omega_table), rs in sorted(routes.items()):
            if len(rs) < 2:
                continue
            k = max(omega_table) + 1
            keys = [k - 1, *[omega_table.count(i) - 1 for i in range(k)]]
            base_q, base_eta, base_mu = rs[0]
            base = _route_value(op, base_eta, base_mu, base_q, omega_table, braided, signs)
            base_name = f"q={list(base_q)} ; {morphism_key(base_eta)}"
            for q_table, eta, mu in rs[1:]:
                value = _route_value(op, eta, mu, q_table, omega_table, braided, signs)
                instance = (
                    f"{base_name} versus q={list(q_table)} ; {morphism_key(eta)}"
                )
                checked += _mismatches(
                    op.collection, keys, base, value, "equivariance-2", instance, failures
                )
    return checked


# -- constructors ------------------------------------------------------------


def terminal_operad(flavor: Flavor, bound: int) -> FiniteOperad:
    """All carriers are singletons, so every axiom holds on the nose."""
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    ordinals = _index_ordinals(flavor, bound)
    carrier = {_carrier_key(flavor, a): ("*",) for a in ordinals}
    actions = {}
    if flavor.uses_arity_keys:
        for a in ordinals:
            for i in range(1, a.arity):
                actions[(a.arity - 1, i)] = [0]

    def supplier(sigma: OrdinalMap) -> list[int]:
        return [0]

    coll = FiniteCollection(flavor, carrier, actions)
    return FiniteOperad(coll, 0, bound, supplier=supplier)


def endomorphism_symmetric_operad(x: Sequence, bound: int = 2) -> FiniteOperad:
    """The symmetric operad of all functions X^k -> X under substitution.

    A function of arity k is its output tuple over the lex-ordered inputs
    X^k, and its index is that tuple's positions in X read as base-|X|
    digits, first input most significant; tables and actions are computed
    on those digits.  Carrier sizes grow doubly exponentially, so the
    bound is guarded.
    """
    x = tuple(x)
    if len(x) < 1 or len(set(x)) != len(x):
        raise OutOfRange("need a nonempty set of distinct values")
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    q = len(x)
    if q ** (q**bound) > CARRIER_CAP:
        raise ResourceLimit(
            "endomorphism carrier would be too large",
            size=q, bound=bound, cap=CARRIER_CAP,
        )
    inputs = {k: list(itertools.product(range(q), repeat=k)) for k in range(1, bound + 1)}
    carrier = {
        k - 1: tuple(itertools.product(x, repeat=q**k)) for k in range(1, bound + 1)
    }

    def index_of(values: Iterable[int]) -> int:
        out = 0
        for d in values:
            out = out * q + d
        return out

    actions = {}
    for k in range(2, bound + 1):
        place = _strides([q] * q**k)
        for i in range(1, k):
            # f . swap moves the digit of f at input v to the place of swap(v)
            swap = [index_of((*v[: i - 1], v[i], v[i - 1], *v[i + 1 :])) for v in inputs[k]]
            actions[(k - 1, i)] = _sums([d * place[u] for d in range(q)] for u in swap)

    def supplier(sigma: OrdinalMap) -> list[int]:
        total, k = sigma.source.arity, sigma.target.arity
        blocks = [
            [t for t in range(total) if sigma.table[t] == j] for j in range(k)
        ]
        restricted = [
            [index_of(args[t] for t in block) for args in inputs[total]]
            for block in blocks
        ]
        mid_place = _strides([q] * k)
        out_place = _strides([q] * q**total)
        f_digits = [itertools.product(range(q), repeat=q ** len(b)) for b in blocks]
        width = q ** sum(q ** len(b) for b in blocks)
        table = [0] * (q ** (q**k) * width)
        for offset, fs in enumerate(itertools.product(*f_digits)):
            # output digit u of the product is digit mid(u) of the top
            # element, so top digit v carries the places of all u with mid v
            weights = [0] * q**k
            for u, place in enumerate(out_place):
                mid = sum(fs[j][restricted[j][u]] * mid_place[j] for j in range(k))
                weights[mid] += place
            table[offset::width] = _sums([d * w for d in range(q)] for w in weights)
        return table

    unit = index_of(range(q))
    coll = FiniteCollection(SYMMETRIC, carrier, actions)
    return FiniteOperad(coll, unit, bound, supplier=supplier)


def orders_operad(bound: int = 3) -> FiniteOperad:
    """The symmetric operad of linear orders, one rank vector per element.

    Substitution nests the argument orders inside the bands cut out by the
    top order; actions precompose rank vectors with transpositions.
    """
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    carrier = {
        k - 1: tuple(sorted(itertools.permutations(range(k))))
        for k in range(1, bound + 1)
    }
    rank = {key: {a: i for i, a in enumerate(elems)} for key, elems in carrier.items()}
    actions = {}
    for k in range(2, bound + 1):
        for i in range(1, k):
            images = []
            for a in carrier[k - 1]:
                swapped = list(a)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                images.append(rank[k - 1][tuple(swapped)])
            actions[(k - 1, i)] = images

    def supplier(sigma: OrdinalMap) -> list[int]:
        total, k = sigma.source.arity, sigma.target.arity
        blocks = [
            [t for t in range(total) if sigma.table[t] == j] for j in range(k)
        ]
        sizes = [len(b) for b in blocks]
        table = []
        f_space = [carrier[m - 1] for m in sizes]
        for a in carrier[k - 1]:
            bands = [sum(sizes[l] for l in range(k) if a[l] < a[j]) for j in range(k)]
            for fs in itertools.product(*f_space):
                out = [0] * total
                for j in range(k):
                    for u, t in enumerate(blocks[j]):
                        out[t] = bands[j] + fs[j][u]
                table.append(rank[total - 1][tuple(out)])
        return table

    coll = FiniteCollection(SYMMETRIC, carrier, actions)
    return FiniteOperad(coll, 0, bound, supplier=supplier)


def reflavor(op: FiniteOperad, flavor: Flavor) -> FiniteOperad:
    """Pull a symmetric operad back to a flavor with arity keys.

    Transposition images serve as Artin generator images for the braided
    and mixed flavors; they satisfy the braid relations because the
    symmetric group does.  Carriers, stored tables and the supplier carry
    over unchanged.
    """
    if op.flavor.kind != "symmetric":
        raise OutOfRange("expected a symmetric operad", flavor=str(op.flavor))
    if not flavor.uses_arity_keys:
        raise OutOfRange("expected a flavor with arity keys", flavor=str(flavor))
    coll = FiniteCollection(flavor, dict(op.collection.carrier), dict(op.collection.actions))
    return FiniteOperad(coll, op.unit, op.bound, dict(op.tables), op.supplier)


def desymmetrise(sym: FiniteOperad, n: int, bound: int | None = None) -> FiniteOperad:
    """Pull a symmetric operad back along the underlying-ordinal functor.

    Every n-ordinal of arity k carries the symmetric operad's arity-k set;
    the multiplication at any valid surjection sorts the source stably by
    image, multiplies along the sorted order-preserving map, and lets the
    sorting permutation act on the result.
    """
    if sym.flavor.kind != "symmetric":
        raise OutOfRange("expected a symmetric operad", flavor=str(sym.flavor))
    bound = sym.bound if bound is None else bound
    if bound > sym.bound:
        raise BoundExceeded(
            "requested bound exceeds the symmetric operad", bound=bound
        )
    flavor = N_OPERAD(n)
    ordinals = _index_ordinals(flavor, bound)
    carrier = {a: sym.collection.decoding(a.arity - 1) for a in ordinals}

    def unsort(sigma: OrdinalMap) -> list[int]:
        # the sorting permutation lists source positions stably by image
        total = sigma.source.arity
        order = sorted(range(total), key=lambda p: (sigma.table[p], p))
        return sym.collection.action_of_permutation(
            total - 1, Permutation(tuple(order))
        )

    def supplier(sigma: OrdinalMap) -> list[int] | None:
        if sigma.source.domain.n != n:
            return None
        ordered = tuple(sorted(sigma.table))
        base = sym.mult(OrdinalMap(_line(len(ordered)), _line(sigma.target.arity), ordered))
        action = unsort(sigma)
        return [action[v] for v in base]

    def quasi_actor(sigma: OrdinalMap) -> list[int]:
        # A quasibijection sorts to the identity line map, and inserting
        # units along it returns the element unchanged, so the induced
        # action is exactly the symmetric action of the sorting
        # permutation.  This avoids materialising the full table, whose
        # size grows with the arity-one carrier raised to the arity.
        if sigma.source.arity > bound or sigma.source.domain.n != n:
            raise MissingTable(
                "no multiplication table for this morphism",
                morphism=morphism_key(sigma),
            )
        return unsort(sigma)

    coll = FiniteCollection(flavor, carrier, {})
    return FiniteOperad(coll, sym.unit, bound, supplier=supplier, quasi_actor=quasi_actor)


def non_quasisymmetric_operad() -> FiniteOperad:
    """A valid 2-operad whose swap action collapses a two-element carrier.

    The two arity-2 2-ordinals carry sets of different sizes, so the
    induced action of the twisting quasibijection between them cannot be a
    bijection, while every multiplication is forced by the unit laws.
    """
    flavor = N_OPERAD(2)
    pt = make_ordinal(2, (), arity=1)
    flat = make_ordinal(2, (0,))
    sharp = make_ordinal(2, (1,))
    carrier = {pt: ("e",), flat: (0,), sharp: (0, 1)}
    tables: dict[OrdinalMap, list[int]] = {identity_map(pt): [0]}
    for t in (flat, sharp):
        # the fibers are points, so a row holds one entry
        tables[OrdinalMap(t, pt, (0, 0))] = list(range(len(carrier[t])))
        tables[identity_map(t)] = list(range(len(carrier[t])))
    for table in ((0, 1), (1, 0)):
        tables[OrdinalMap(flat, sharp, table)] = [0] * len(carrier[sharp])
    coll = FiniteCollection(flavor, carrier, {})
    return FiniteOperad(coll, 0, 2, tables)


# -- induced actions and quasisymmetry ----------------------------------------


def induced_action(op: FiniteOperad, sigma: OrdinalMap) -> list[int]:
    """Action of a quasibijection by unit insertion, target to source.

    Entry a is the index in the source carrier of the image of target
    element a.
    """
    if not sigma.is_quasibijection:
        raise NotQuasibijection("induced actions exist for quasibijections only")
    if sigma.source.arity > op.bound:
        raise BoundExceeded(
            "quasibijection lies outside the operad bound", arity=sigma.source.arity
        )
    if op.quasi_actor is not None:
        return list(op.quasi_actor(sigma))
    return op.mult(sigma)[_unit_entries(op, sigma.source.arity)]


def _quasibijections(op: FiniteOperad, bound: int) -> Iterator[OrdinalMap]:
    objs = op.index_ordinals(bound)
    for s in objs:
        for t in objs:
            if t.arity != s.arity:
                continue
            yield from enumerate_maps(t, s, kind="quasi")


def is_locally_constant(
    op: FiniteOperad, we_predicate: Callable[[list], bool], bound: int | None = None
) -> bool:
    """Whether every induced quasibijection action is a weak equivalence.

    The predicate receives the action as an index list, as
    ``induced_action`` returns it.  With the bijection predicate this is
    exactly quasisymmetry.
    """
    bound = op.bound if bound is None else bound
    if bound > op.bound:
        raise BoundExceeded("check bound exceeds the operad bound", bound=bound)
    for sigma in _quasibijections(op, bound):
        if not we_predicate(induced_action(op, sigma)):
            return False
    return True


def action_is_bijection(action: Sequence[int]) -> bool:
    return len(set(action)) == len(action)


def is_quasisymmetric(op: FiniteOperad, bound: int | None = None) -> bool:
    """Whether all induced quasibijection actions within bound are bijections."""
    return is_locally_constant(op, action_is_bijection, bound)


# -- multiplication extension along factorizations ----------------------------


def all_factorizations(
    sigma: OrdinalMap, n: int
) -> Iterator[tuple[OrdinalMap, OrdinalMap]]:
    """Every splitting of sigma as an order-preserving map after a
    quasibijection, over all middle n-ordinals of the same arity."""
    total = sigma.source.arity
    for mid in enumerate_ordinals(n, total):
        for pi in enumerate_maps(sigma.source, mid, kind="quasi"):
            inv = [0] * total
            for p, r in enumerate(pi.table):
                inv[r] = p
            nu_table = tuple(sigma.table[inv[r]] for r in range(total))
            if any(nu_table[r] > nu_table[r + 1] for r in range(total - 1)):
                continue
            if morphism_violation(mid, sigma.target, nu_table) is not None:
                continue
            yield pi, OrdinalMap(mid, sigma.target, nu_table)


def extend_multiplication(
    op: FiniteOperad,
    sigma: OrdinalMap,
    route: tuple[OrdinalMap, OrdinalMap] | None = None,
) -> list[int]:
    """Multiplication table at an arbitrary surjection of n-ordinals.

    Splits sigma as an order-preserving surjection after a quasibijection,
    pushes every argument forward along the inverse fiber actions,
    multiplies along the order-preserving part, and acts by the whole
    quasibijection on the result.  Quasisymmetry makes the fiber actions
    invertible; a non-invertible one raises NotQuasisymmetric.  The table
    is flat, laid out like a stored one.
    """
    if op.flavor.uses_arity_keys:
        raise OutOfRange("extension applies to n-operads", flavor=str(op.flavor))
    if not sigma.is_surjective:
        raise OutOfRange("pruned operads have no empty fibers")
    if sigma.source.arity > op.bound:
        raise BoundExceeded("morphism lies outside the operad bound")
    if route is None:
        fac = factorize(sigma)
        pi, nu = fac.pi, fac.nu
    else:
        pi, nu = route
        if compose(nu, pi).table != sigma.table:
            raise OutOfRange("route does not compose to the morphism")
    alpha = induced_action(op, pi)
    k = sigma.target.arity
    fiber_pulls = []
    for j in range(k):
        src_positions = [t for t in range(sigma.source.arity) if sigma.table[t] == j]
        mid_positions = [r for r in range(nu.source.arity) if nu.table[r] == j]
        local = restrict_map(pi, src_positions, mid_positions)
        pull = _inverse(induced_action(op, local), len(op.carrier_of(local.source)))
        if pull is None:
            raise NotQuasisymmetric(
                "fiber action is not invertible", morphism=morphism_key(local)
            )
        fiber_pulls.append(pull)
    sizes = [len(pull) for pull in fiber_pulls]
    tops = op.carrier_of(sigma.target)
    return [alpha[v] for v in _moved(op.mult(nu), tops, sizes, range(k), fiber_pulls)]


# -- braided actions from a quasisymmetric 2-operad ---------------------------


@dataclass(frozen=True)
class BraidedActions:
    """Artin generator actions on the top homogeneous carrier, as index
    lists over its decode tuple, with the relation names that were
    verified."""

    strands: int
    carrier: tuple
    actions: tuple[list[int], ...]
    relations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "strands": self.strands,
            "carrier": [_thaw(x) for x in self.carrier],
            "actions": [list(a) for a in self.actions],
            "relations": list(self.relations),
        }


def braided_action_from_quasisymmetric(op: FiniteOperad, k: int) -> BraidedActions:
    """Build the braid group action hiding inside a quasisymmetric 2-operad.

    Each Artin generator acts on the carrier of the level-zero arity-k
    2-ordinal through the generator span: forward leg action composed with
    the inverted backward leg action.  Far commutation and the braid
    relation are verified; a failure raises RelationFailed with a witness.
    """
    if op.flavor.kind != "n-operad" or op.flavor.n != 2:
        raise OutOfRange("braided actions need a 2-operad", flavor=str(op.flavor))
    if k > op.bound:
        raise BoundExceeded("strand count exceeds the operad bound", strands=k)
    if k < 1:
        raise OutOfRange("need at least one strand", strands=k)
    flat = make_ordinal(2, (0,) * (k - 1))
    elems = op.collection.decoding(flat)
    actions = []
    for i in range(1, k):
        legs = generator_span(k, i).legs
        forward = induced_action(op, legs[0][1])
        back_inv = _inverse(induced_action(op, legs[1][1]), len(elems))
        if back_inv is None or not action_is_bijection(forward):
            raise NotQuasisymmetric(
                "span leg action is not invertible", strands=k, generator=i
            )
        actions.append([forward[v] for v in back_inv])
    broken = _broken_relation(actions, len(elems))
    if broken is not None:
        relation, (i, j), witness = broken
        raise RelationFailed(
            f"{relation}({i},{j})", strands=k, witness=_thaw(elems[witness])
        )
    relations = [f"{relation}({i},{j})" for relation, i, j in _artin_relations(k)]
    return BraidedActions(k, elems, tuple(actions), tuple(relations))


# -- JSON bundles -------------------------------------------------------------


def _thaw(x):
    if isinstance(x, tuple):
        return [_thaw(v) for v in x]
    return x


def _freeze(x):
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        raise BadDocument("carrier elements are scalars or lists", got=repr(x)[:80])
    return x


def operad_to_json(op: FiniteOperad) -> dict:
    """Serialize carriers, actions and every table at a required surjection.

    Carriers are their decode tuples; actions are their index lists;
    tables are their flat lists nested by the mixed radix, outermost
    dimension the target carrier.  Before any table is built, the number
    of table entries is predicted from the carrier sizes; past LIST_CAP
    entries the document is refused with ResourceLimit.
    """
    flavor = op.flavor
    coll = op.collection
    keys = {
        _carrier_key(flavor, a): ordinal_key(a) for a in op.index_ordinals()
    }
    carriers = {keys[key]: [_thaw(x) for x in coll.decoding(key)] for key in keys}
    actions = {
        f"{keys[key]}|{i}": list(image)
        for (key, i), image in sorted(coll.actions.items(), key=lambda kv: kv[0])
    }
    records = _surjections(op, op.bound).values()
    entries = _payload_entries(records)
    if entries > LIST_CAP:
        raise ResourceLimit(
            "an operad document would hold too many table entries",
            predicted=entries, cap=LIST_CAP,
        )
    mult = {}
    for rec in sorted(records, key=lambda rec: rec.name):
        nested = op.table(rec.morphism)
        if nested is None:
            continue
        for size in reversed(rec.sizes[1:]):
            nested = _chunks(nested, size)
        mult[rec.name] = nested
    return {
        "flavor": flavor.kind,
        "n": flavor.n,
        "bound": op.bound,
        "unit": op.unit,
        "carriers": carriers,
        "actions": actions,
        "mult": mult,
    }


def _key_ints(text: str, key: str) -> tuple[int, ...]:
    """The comma-separated naturals in one part of a key."""
    parts = text.split(",") if text else []
    if not all(p.isdecimal() for p in parts):
        raise BadDocument("bad key", field=key)
    return tuple(int(p) for p in parts)


def _ordinal_from_key(flavor: Flavor, key: str) -> NOrdinal:
    arity_text, _, levels_text = key.partition(":")
    if not arity_text.isdecimal():
        raise BadDocument("bad key", field=key)
    n = 1 if flavor.uses_arity_keys else flavor.n
    return make_ordinal(n, _key_ints(levels_text, key), arity=int(arity_text))


def operad_from_json(obj: dict) -> FiniteOperad:
    """Read an operad bundle; malformed fields raise BadDocument.

    Each carrier list becomes a decode tuple and must not name an element
    twice; actions and table leaves must be indices into their carriers,
    and tables are flattened level by level into their mixed radix.
    """
    if not isinstance(obj, dict) or "flavor" not in obj:
        raise OutOfRange("operad bundle needs a 'flavor' field")
    n = obj.get("n")
    flavor = Flavor(obj["flavor"], None if n is None else decode(n, int, "n"))
    bound = decode(obj.get("bound"), int, "bound")
    carrier = {}
    for key_text, elems in decode(obj.get("carriers"), dict, "carriers").items():
        key = _carrier_key(flavor, _ordinal_from_key(flavor, key_text))
        what = f"carrier {key_text}"
        elems = tuple(_freeze(x) for x in decode(elems, list, what))
        if len(set(elems)) != len(elems):
            raise BadDocument(f"{what} lists an element twice", field=what)
        carrier[key] = elems

    def size_at(a: NOrdinal) -> int:
        found = carrier.get(_carrier_key(flavor, a))
        return len(decode(found, tuple, f"carrier {ordinal_key(a)}"))

    actions = {}
    for key_text, arr in decode(obj.get("actions", {}), dict, "actions").items():
        ordinal_text, _, gen_text = key_text.rpartition("|")
        a = _ordinal_from_key(flavor, ordinal_text)
        size = size_at(a)
        if not gen_text.isdecimal():
            raise BadDocument("bad key", field=key_text)
        what = f"action {key_text}"
        actions[(_carrier_key(flavor, a), int(gen_text))] = [
            decode(v, int, what, size) for v in decode(arr, list, what, size)
        ]
    tables = {}
    for m_key, nested in decode(obj.get("mult", {}), dict, "mult").items():
        src_text, _, rest = m_key.partition(">")
        tgt_text, _, table_text = rest.partition("|")
        source = _ordinal_from_key(flavor, src_text)
        target = _ordinal_from_key(flavor, tgt_text)
        sigma = OrdinalMap(source, target, _key_ints(table_text, m_key))
        level = [nested]
        for a in (target, *[fiber(sigma, t)[0] for t in range(target.arity)]):
            size = size_at(a)
            level = [x for node in level for x in decode(node, list, m_key, size)]
        size = size_at(source)
        tables[sigma] = [decode(leaf, int, m_key, size) for leaf in level]
    unit = decode(obj.get("unit"), int, "unit", size_at(_point(flavor)))
    coll = FiniteCollection(flavor, carrier, actions)
    return FiniteOperad(coll, unit, bound, tables)
