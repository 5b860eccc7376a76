"""Finite-set operads of four flavors with exhaustive bounded axiom checks.

Carriers are finite sets indexed by arity (symmetric, braided and mixed
flavors) or by n-ordinals (the n-operad flavor).  Multiplication tables are
kept per surjection and reached only through ``FiniteOperad.table``; group
actions are kept by generator images, and everything else (whole-group
actions, quasibijection actions, arbitrary multiplications) is derived by
word evaluation or factorization.  All axiom checks require a table at
every surjection within an explicit arity bound and instantiate the
identities over every morphism, square and element tuple within it, so a
passing report is a finite proof and a failing one carries a concrete
witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

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
    morphism_violation,
    restrict_map,
)
from .ordinals import LevelDomain, NOrdinal, enumerate_ordinals, make_ordinal
from .zigzags import generator_span

CARRIER_CAP = 100_000


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


# -- collections ------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCollection:
    """Finite carriers plus generator images of the acting groups.

    ``carrier`` maps an index key (int arity index, or NOrdinal for the
    n-operad flavor) to a tuple of elements.  ``actions`` maps (key, i) to
    the image of the i-th adjacent transposition (symmetric flavor) or the
    i-th Artin generator (braided and mixed flavors) as an element dict.
    The n-operad flavor has no stored actions; its quasibijection actions
    are induced from multiplication by unit insertion.
    """

    flavor: Flavor
    carrier: Mapping
    actions: Mapping
    _act_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def elements(self, key) -> tuple:
        if key not in self.carrier:
            raise BoundExceeded("no carrier at this index", key=str(key))
        return self.carrier[key]

    def generator_action(self, key, i: int) -> dict:
        if (key, i) not in self.actions:
            raise MissingTable("no generator action stored", key=str(key), generator=i)
        return self.actions[(key, i)]

    def action_of_word(self, key, letters: Sequence[int]) -> dict:
        """Composite action of a word in the generators, first letter first.

        Negative letters act by the inverse image, which must exist.
        """
        letters = tuple(letters)
        cached = self._act_cache.get((key, letters))
        if cached is not None:
            return cached
        table = {x: x for x in self.elements(key)}
        for letter in letters:
            g = self.generator_action(key, abs(letter))
            if letter < 0:
                g = _invert_action(g, key, abs(letter))
            table = {x: g[v] for x, v in table.items()}
        self._act_cache[(key, letters)] = table
        return table

    def action_of_permutation(self, key, rho: Permutation) -> dict:
        return self.action_of_word(key, q_section(rho).word)


def _invert_action(g: dict, key, i: int) -> dict:
    inv = {v: x for x, v in g.items()}
    if len(inv) != len(g):
        raise InvariantBroken(
            "generator action is not invertible", key=str(key), generator=i
        )
    return inv


def validate_collection(c: FiniteCollection) -> None:
    """Check the generator images against the defining group relations.

    Symmetric actions must satisfy the full Coxeter relations; braided and
    mixed actions must be bijections satisfying far commutation and the
    braid relation, with no involution requirement.  Violations raise
    InvariantBroken, because word evaluation is meaningless without them.
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
            if set(g) != set(elems):
                raise InvariantBroken(
                    "action domain differs from the carrier", key=key, generator=i
                )
            if any(v not in set(elems) for v in g.values()):
                raise InvariantBroken(
                    "action leaves the carrier", key=key, generator=i
                )
            gens.append(g)
        for i, g in enumerate(gens, 1):
            if c.flavor.kind == "symmetric":
                bad = next((x for x in elems if g[g[x]] != x), None)
                if bad is not None:
                    raise InvariantBroken(
                        "transposition image is not an involution",
                        key=key,
                        generator=i,
                        witness=bad,
                    )
            else:
                _invert_action(g, key, i)
        broken = _broken_relation(gens, elems)
        if broken is not None:
            relation, pair, witness = broken
            raise InvariantBroken(
                f"{_RELATION_TEXT[relation]} fails",
                key=key,
                generators=list(pair),
                witness=witness,
            )


_RELATION_TEXT = {"far-commutation": "far commutation", "braid": "braid relation"}


def _artin_relations(k: int) -> Iterator[tuple[str, int, int]]:
    """Far-commutation pairs, then braid-relation pairs, of generators 1..k-1."""
    for i, j in itertools.combinations(range(1, k), 2):
        if j - i >= 2:
            yield "far-commutation", i, j
    for i in range(1, k - 1):
        yield "braid", i, i + 1


def _broken_relation(gens: Sequence[dict], elems):
    """First (relation, (i, j), witness) that the images gens[i - 1] of the
    Artin generators break on an element of elems, or None."""
    for relation, i, j in _artin_relations(len(gens) + 1):
        a, b = gens[i - 1], gens[j - 1]
        for x in elems:
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

    ``table(sigma)`` is the one way to reach a multiplication table, an
    argument dict sending (a, f_0, .., f_k) to an element: it returns the
    table stored in ``tables``, or else the one ``supplier`` builds, which it
    then stores, or else None.  The supplier is asked only for surjections
    within the bound.  ``mult`` is ``table`` that raises
    MissingTable instead of returning None.  ``quasi_actor``, when set,
    gives induced quasibijection actions without building their tables.
    Nothing is validated at construction, the check_* functions do that,
    which keeps fault injection possible.
    """

    collection: FiniteCollection
    unit: object
    bound: int
    tables: dict = field(default_factory=dict)
    supplier: Callable[[OrdinalMap], dict | None] | None = None
    quasi_actor: Callable[[OrdinalMap], dict] | None = None

    @property
    def flavor(self) -> Flavor:
        return self.collection.flavor

    def carrier_of(self, a: NOrdinal) -> tuple:
        return self.collection.elements(_carrier_key(self.flavor, a))

    def table(self, sigma: OrdinalMap) -> dict | None:
        found = self.tables.get(sigma)
        if found is None and self.supplier is not None and sigma.is_surjective:
            found = self.supplier(sigma) if sigma.source.arity <= self.bound else None
            if found is not None:
                self.tables[sigma] = found
        return found

    def mult(self, sigma: OrdinalMap) -> dict:
        found = self.table(sigma)
        if found is None:
            raise MissingTable(
                "no multiplication table for this morphism",
                morphism=morphism_key(sigma),
            )
        return found

    def index_ordinals(self, bound: int | None = None) -> list[NOrdinal]:
        return _index_ordinals(self.flavor, self.bound if bound is None else bound)


def _fiber_keys(flavor: Flavor, sigma: OrdinalMap) -> list:
    return [
        _carrier_key(flavor, fiber(sigma, t)[0])
        for t in range(sigma.target.arity)
    ]


def _argument_space(op: FiniteOperad, sigma: OrdinalMap) -> Iterator[tuple]:
    """All (a, f_0, .., f_k) argument tuples of the multiplication at sigma."""
    tops = op.collection.elements(_carrier_key(op.flavor, sigma.target))
    fibs = [op.collection.elements(key) for key in _fiber_keys(op.flavor, sigma)]
    return itertools.product(tops, *fibs)


Surjections = dict[tuple[NOrdinal, NOrdinal], list[OrdinalMap]]


def required_surjections(flavor: Flavor, bound: int) -> Surjections:
    """Every surjection source -> target within bound, keyed by the pair.

    These are the morphisms whose tables the axioms quantify over.  Pairs
    come in lex order of the index objects, source first.
    """
    objs = _index_ordinals(flavor, bound)
    return {
        (t, s): [m for m in enumerate_maps(t, s, kind="all") if m.is_surjective]
        for t in objs
        for s in objs
        if s.arity <= t.arity
    }


def covered_surjections(op: FiniteOperad, required: Surjections) -> Surjections:
    """The required surjections that have a multiplication table."""
    return {
        pair: [s for s in maps if op.table(s) is not None]
        for pair, maps in required.items()
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


# -- the axiom checker -------------------------------------------------------


def check_operad_axioms(op: FiniteOperad, bound: int | None = None) -> AxiomReport:
    """Exhaustively instantiate every axiom of the operad's flavor.

    Every required surjection within bound must have a table; each one
    without is a ``coverage`` failure, and the instances that need it are
    skipped.  Associativity and both unit laws run for all flavors.  The
    symmetric flavor adds the two equivariance identities in both
    presentations (whole-group reindexing and commuting squares with
    bijective verticals); the braided flavor checks equivariance on Artin
    generator words with cabled output braids; the mixed flavor checks the
    two square conditions over genuine 2-ordinal squares with
    quasibijection verticals.  Generator images are validated first and
    raise on failure.
    """
    bound = op.bound if bound is None else bound
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    if bound > op.bound:
        raise BoundExceeded("check bound exceeds the operad bound", bound=bound)
    validate_collection(op.collection)
    point_key = _carrier_key(op.flavor, _point(op.flavor))
    if op.unit not in set(op.collection.elements(point_key)):
        raise InvariantBroken("unit element is not in the arity-one carrier")
    required = required_surjections(op.flavor, bound)
    covered = covered_surjections(op, required)
    failures = [
        AxiomFailure("coverage", morphism_key(s), ())
        for maps in required.values()
        for s in maps
        if op.table(s) is None
    ]
    checked = 0
    checked += _check_units(op, bound, failures)
    checked += _check_associativity(op, covered, failures)
    if op.flavor.kind == "symmetric":
        checked += _check_reindexing(op, covered, failures)
        checked += _check_square_eq1(op, bound, failures, braided=False)
        checked += _check_square_eq2(op, bound, failures, braided=False)
    elif op.flavor.kind == "braided":
        checked += _check_reindexing(op, covered, failures)
    elif op.flavor.kind == "mixed2":
        checked += _check_square_eq1(op, bound, failures, braided=True)
        checked += _check_square_eq2(op, bound, failures, braided=True)
    return _report(failures, checked)


def _check_units(op: FiniteOperad, bound: int, failures: list[AxiomFailure]) -> int:
    checked = 0
    pt = _point(op.flavor)
    for t in op.index_ordinals(bound):
        ident = identity_map(t)
        table = op.table(ident)
        if table is not None:
            units = (op.unit,) * t.arity
            for a in op.carrier_of(t):
                checked += 1
                got = table[(a, *units)]
                if got != a:
                    failures.append(
                        AxiomFailure(
                            "unit-right", morphism_key(ident), (a, got)
                        )
                    )
        if t.arity >= 1:
            const = OrdinalMap(t, pt, (0,) * t.arity)
            table = op.table(const)
            if table is not None:
                for f in op.carrier_of(t):
                    checked += 1
                    got = table[(op.unit, f)]
                    if got != f:
                        failures.append(
                            AxiomFailure(
                                "unit-left", morphism_key(const), (f, got)
                            )
                        )
    return checked


def _rows(table: dict, cache: dict) -> dict:
    """Regroup a multiplication table by its leading key component.

    The residual keys are the argument tuples itertools.product yields, so
    hot loops can index rows without rebuilding tuples.
    """
    rows = cache.get(id(table))
    if rows is None:
        rows = {}
        for key, val in table.items():
            rows.setdefault(key[0], {})[key[1:]] = val
        cache[id(table)] = rows
    return rows


def _associativity_instance(
    op: FiniteOperad,
    sigma: OrdinalMap,
    omega: OrdinalMap,
    failures: list[AxiomFailure],
    rows_cache: dict | None = None,
) -> int:
    """mu_sigma . mu_omega against mu_{omega . sigma} with fiber restrictions."""
    if rows_cache is None:
        rows_cache = {}
    composite = compose(omega, sigma)
    restrictions = []
    for i in range(omega.target.arity):
        _, tgt_positions = fiber(omega, i)
        src_positions = [
            t for t in range(sigma.source.arity) if sigma.table[t] in set(tgt_positions)
        ]
        restrictions.append(restrict_map(sigma, src_positions, tgt_positions))
    mu_parts = [op.table(r) for r in restrictions]
    mu_comp = op.table(composite)
    if mu_comp is None or None in mu_parts:
        return 0
    sigma_rows = _rows(op.mult(sigma), rows_cache)
    omega_rows = _rows(op.mult(omega), rows_cache)
    comp_rows = _rows(mu_comp, rows_cache)
    omega_fibers = [fiber(omega, i)[1] for i in range(omega.target.arity)]
    nfib = omega.target.arity
    tops = op.carrier_of(omega.target)
    b_space = [op.carrier_of(fiber(omega, i)[0]) for i in range(omega.target.arity)]
    f_space = [
        op.carrier_of(fiber(sigma, j)[0]) for j in range(sigma.target.arity)
    ]
    fs_list = list(itertools.product(*f_space))
    checked = 0
    instance = f"{morphism_key(sigma)} ; {morphism_key(omega)}"
    for bs in itertools.product(*b_space):
        # substituting into the arguments is independent of the top element
        inn_list = [
            tuple(
                mu_parts[i][(bs[i], *[fs[j] for j in omega_fibers[i]])]
                for i in range(nfib)
            )
            for fs in fs_list
        ]
        for a in tops:
            lhs_row = sigma_rows[omega_rows[a][bs]]
            rhs_row = comp_rows[a]
            checked += len(fs_list)
            lhs_vals = list(map(lhs_row.__getitem__, fs_list))
            rhs_vals = list(map(rhs_row.__getitem__, inn_list))
            if lhs_vals != rhs_vals:
                for fs, lv, rv in zip(fs_list, lhs_vals, rhs_vals):
                    if lv != rv:
                        failures.append(
                            AxiomFailure("associativity", instance, (a, *bs, *fs))
                        )
    return checked


def _check_associativity(
    op: FiniteOperad, covered: Surjections, failures: list[AxiomFailure]
) -> int:
    by_source: dict[NOrdinal, list[OrdinalMap]] = {}
    for (source, _), maps in covered.items():
        by_source.setdefault(source, []).extend(maps)
    checked = 0
    rows_cache: dict = {}
    for sigmas in by_source.values():
        for sigma in sigmas:
            for omega in by_source[sigma.target]:
                checked += _associativity_instance(
                    op, sigma, omega, failures, rows_cache
                )
    return checked


# -- equivariance by reindexing, symmetric and braided ----------------------


def _block_sizes(sigma: OrdinalMap) -> tuple[int, ...]:
    return tuple(
        sum(1 for v in sigma.table if v == j) for j in range(sigma.target.arity)
    )


def _line_map_with_fibers(sizes: Sequence[int]) -> OrdinalMap:
    table = []
    for j, m in enumerate(sizes):
        table.extend([j] * m)
    return OrdinalMap(_line(sum(sizes)), _line(len(sizes)), tuple(table))


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


def _check_reindexing(
    op: FiniteOperad, covered: Surjections, failures: list[AxiomFailure]
) -> int:
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
    for (source, target), sigmas in covered.items():
        total, k = source.arity, target.arity
        tops = coll.elements(k - 1)
        for sigma in sigmas:
            sizes = _block_sizes(sigma)
            mu = op.mult(sigma)
            f_space = [coll.elements(m - 1) for m in sizes]
            for axiom, label, top_word, slot_words, out_word in moves(sizes):
                order = BraidWord(k, top_word).permutation().inverse().image
                mu_s = op.table(_line_map_with_fibers([sizes[j] for j in order]))
                if mu_s is None:
                    continue
                act_top = coll.action_of_word(k - 1, top_word)
                acts = [
                    (coll.action_of_word(sizes[j] - 1, slot_words[j]), j)
                    for j in order
                ]
                act_out = coll.action_of_word(total - 1, out_word)
                instance = f"{morphism_key(sigma)} {label}"
                for a in tops:
                    moved = act_top[a]
                    for fs in itertools.product(*f_space):
                        checked += 1
                        lhs = mu_s[(moved, *[act[fs[j]] for act, j in acts])]
                        if lhs != act_out[mu[(a, *fs)]]:
                            failures.append(AxiomFailure(axiom, instance, (a, *fs)))
    return checked


# -- square-style equivariance ----------------------------------------------


def _lift_action(
    op, key: int, table: Sequence[int], braided: bool, inverse: bool
) -> dict:
    """Action of a vertical map's lift on one carrier, or its inverse.

    For the symmetric flavor the lift is the permutation itself; for the
    mixed flavor it is the positive braid word of the quasibijection, and
    the inverse is the reversed negative word, which need not act like the
    positive lift of the inverse permutation.
    """
    coll = op.collection
    if braided:
        lift = BraidWord(len(table), q_section(Permutation(table)).word)
        if inverse:
            lift = lift.inverse()
        return coll.action_of_word(key, lift.word)
    rho = Permutation(tuple(table))
    if inverse:
        rho = rho.inverse()
    return coll.action_of_permutation(key, rho)


def _square_eq1_instance(
    op: FiniteOperad,
    sigma: OrdinalMap,
    sigma2: OrdinalMap,
    p_table: tuple[int, ...],
    r_table: tuple[int, ...],
    braided: bool,
    failures: list[AxiomFailure],
    instance: str,
    signs: tuple[bool, bool, bool] = (True, True, True),
) -> int:
    """One commuting square sigma . p = r . sigma2 of the first condition.

    The default signs invert every vertical: the lifts transport elements
    against the direction of the maps.
    """
    coll = op.collection
    total, k = sigma.source.arity, sigma.target.arity
    mu = op.mult(_as_line_map(sigma))
    mu2 = op.mult(_as_line_map(sigma2))
    sizes = _block_sizes(sigma)
    act_top = _lift_action(op, k - 1, r_table, braided, inverse=signs[0])
    act_out = _lift_action(op, total - 1, p_table, braided, inverse=signs[2])
    fiber_acts = []
    for l in range(k):
        u_positions = [t for t in range(total) if sigma2.table[t] == l]
        b_positions = [t for t in range(total) if sigma.table[t] == r_table[l]]
        local = tuple(
            b_positions.index(p_table[u]) for u in u_positions
        )
        fiber_acts.append(
            _lift_action(op, len(local) - 1, local, braided, inverse=signs[1])
        )
    tops = coll.elements(k - 1)
    f_space = [coll.elements(m - 1) for m in sizes]
    checked = 0
    for a in tops:
        for fs in itertools.product(*f_space):
            checked += 1
            args = tuple(
                fiber_acts[l][fs[r_table[l]]] for l in range(k)
            )
            lhs = mu2[(act_top[a], *args)]
            rhs = act_out[mu[(a, *fs)]]
            if lhs != rhs:
                failures.append(AxiomFailure("equivariance-1", instance, (a, *fs)))
    return checked


def _as_line_map(sigma: OrdinalMap) -> OrdinalMap:
    if sigma.source.domain.n == 1:
        return sigma
    return OrdinalMap(
        _line(sigma.source.arity), _line(sigma.target.arity), sigma.table
    )


def _square_verticals(
    source: NOrdinal, target: NOrdinal, braided: bool
) -> list[tuple[int, ...]]:
    if braided:
        return [m.table for m in enumerate_maps(source, target, kind="quasi")]
    if source == target:
        return [t for t in itertools.permutations(range(source.arity))]
    return []


def _square_objects(bound: int, braided: bool) -> dict[int, list[NOrdinal]]:
    """Square corners by arity: 2-ordinals (mixed flavor) or lines."""
    if braided:
        return {k: list(enumerate_ordinals(2, k)) for k in range(1, bound + 1)}
    return {k: [_line(k)] for k in range(1, bound + 1)}


def _check_square_eq1(
    op: FiniteOperad,
    bound: int,
    failures: list[AxiomFailure],
    braided: bool,
    signs: tuple[bool, bool, bool] = (True, True, True),
) -> int:
    """First square condition, quantified over all valid squares in bound.

    Horizontals are order-preserving surjections (of 2-ordinals in the
    mixed flavor), verticals are quasibijections (arbitrary bijections in
    the symmetric flavor), and the square must commute on tables.
    """
    checked = 0
    by_arity = _square_objects(bound, braided)
    objs = [o for group in by_arity.values() for o in group]
    for t in objs:
        for s in objs:
            if s.arity > t.arity:
                continue
            for sigma in _op_surjections(t, s):
                if op.table(_as_line_map(sigma)) is None:
                    continue
                for t2 in by_arity[t.arity]:
                    for p_table in _square_verticals(t2, t, braided):
                        for s2 in by_arity[s.arity]:
                            for r_table in _square_verticals(s2, s, braided):
                                r_inv = [0] * len(r_table)
                                for l, v in enumerate(r_table):
                                    r_inv[v] = l
                                table2 = tuple(
                                    r_inv[sigma.table[p_table[u]]]
                                    for u in range(t.arity)
                                )
                                if any(
                                    table2[u] > table2[u + 1]
                                    for u in range(len(table2) - 1)
                                ):
                                    continue
                                if morphism_violation(t2, s2, table2) is not None:
                                    continue
                                sigma2 = OrdinalMap(t2, s2, table2)
                                if op.table(_as_line_map(sigma2)) is None:
                                    continue
                                instance = (
                                    f"{morphism_key(sigma)} p={list(p_table)} "
                                    f"r={list(r_table)} via={morphism_key(sigma2)}"
                                )
                                checked += _square_eq1_instance(
                                    op,
                                    sigma,
                                    sigma2,
                                    p_table,
                                    r_table,
                                    braided,
                                    failures,
                                    instance,
                                    signs,
                                )
    return checked


def _op_surjections(source: NOrdinal, target: NOrdinal) -> list[OrdinalMap]:
    return [
        m for m in enumerate_maps(source, target, kind="order") if m.is_surjective
    ]


def _route_value(
    op: FiniteOperad,
    eta: OrdinalMap,
    q_table: tuple[int, ...],
    omega_table: tuple[int, ...],
    braided: bool,
    signs: tuple[bool, bool] = (True, False),
) -> dict:
    """Transport of mu_eta along a quasibijection onto the composite's fibers.

    The route value at (a, h_0, .., h_k) applies the forward fiber actions
    to the arguments, multiplies along eta, and pulls the result back with
    the inverse action of the whole quasibijection.
    """
    coll = op.collection
    total = len(q_table)
    k = eta.target.arity
    mu = op.mult(_as_line_map(eta))
    inverse_whole = _lift_action(op, total - 1, q_table, braided, inverse=signs[0])
    forward_locals = []
    for i in range(k):
        omega_positions = [t for t in range(total) if omega_table[t] == i]
        eta_positions = [t for t in range(total) if eta.table[t] == i]
        local = tuple(
            eta_positions.index(q_table[t]) for t in omega_positions
        )
        forward_locals.append(
            _lift_action(op, len(local) - 1, local, braided, inverse=signs[1])
        )
    tops = coll.elements(k - 1)
    h_space = [
        coll.elements(sum(1 for v in omega_table if v == i) - 1) for i in range(k)
    ]
    out = {}
    for a in tops:
        for hs in itertools.product(*h_space):
            args = tuple(forward_locals[i][hs[i]] for i in range(k))
            out[(a, *hs)] = inverse_whole[mu[(a, *args)]]
    return out


def _check_square_eq2(
    op: FiniteOperad,
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
    by_arity = _square_objects(bound, braided)
    for t in [o for group in by_arity.values() for o in group]:
        total = t.arity
        routes: dict[tuple, list] = {}
        for mid in by_arity[total]:
            for q_table in _square_verticals(t, mid, braided):
                for k in range(1, total + 1):
                    for s in by_arity[k]:
                        for eta in _op_surjections(mid, s):
                            if op.table(_as_line_map(eta)) is None:
                                continue
                            omega_table = tuple(
                                eta.table[q_table[u]] for u in range(total)
                            )
                            key = (str(s), omega_table)
                            routes.setdefault(key, []).append((q_table, eta))
        for key, rs in sorted(routes.items()):
            if len(rs) < 2:
                continue
            omega_table = key[1]
            base_q, base_eta = rs[0]
            base = _route_value(op, base_eta, base_q, omega_table, braided, signs)
            base_name = f"q={list(base_q)} ; {morphism_key(base_eta)}"
            for q_table, eta in rs[1:]:
                value = _route_value(op, eta, q_table, omega_table, braided, signs)
                instance = (
                    f"{base_name} versus q={list(q_table)} ; {morphism_key(eta)}"
                )
                for args in base:
                    checked += 1
                    if base[args] != value[args]:
                        failures.append(
                            AxiomFailure("equivariance-2", instance, args)
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
                actions[(a.arity - 1, i)] = {"*": "*"}

    def supplier(sigma: OrdinalMap) -> dict:
        return {("*",) * (sigma.target.arity + 1): "*"}

    coll = FiniteCollection(flavor, carrier, actions)
    return FiniteOperad(coll, "*", bound, supplier=supplier)


def _function_tuples(x: tuple, arity: int) -> tuple:
    """All functions X^arity -> X as output tuples over lex-ordered inputs."""
    count = len(x) ** arity
    return tuple(itertools.product(x, repeat=count))


def endomorphism_symmetric_operad(x: Sequence, bound: int = 2) -> FiniteOperad:
    """The symmetric operad of all functions X^k -> X under substitution.

    Carrier sizes grow doubly exponentially, so the bound is guarded.
    """
    x = tuple(x)
    if len(x) < 1 or len(set(x)) != len(x):
        raise OutOfRange("need a nonempty set of distinct values")
    if bound < 1:
        raise OutOfRange("bound must be at least 1", bound=bound)
    if len(x) ** (len(x) ** bound) > CARRIER_CAP:
        raise ResourceLimit(
            "endomorphism carrier would be too large",
            size=len(x), bound=bound, cap=CARRIER_CAP,
        )
    inputs = {k: list(itertools.product(x, repeat=k)) for k in range(1, bound + 1)}
    index = {k: {t: i for i, t in enumerate(inputs[k])} for k in inputs}
    carrier = {k - 1: _function_tuples(x, k) for k in range(1, bound + 1)}
    actions = {}
    for k in range(2, bound + 1):
        for i in range(1, k):
            table = {}
            for f in carrier[k - 1]:
                out = []
                for args in inputs[k]:
                    swapped = list(args)
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    out.append(f[index[k][tuple(swapped)]])
                table[f] = tuple(out)
            actions[(k - 1, i)] = table

    def supplier(sigma: OrdinalMap) -> dict:
        total, k = sigma.source.arity, sigma.target.arity
        blocks = [
            [t for t in range(total) if sigma.table[t] == j] for j in range(k)
        ]
        table = {}
        f_space = [carrier[len(b) - 1] for b in blocks]
        for a in carrier[k - 1]:
            for fs in itertools.product(*f_space):
                out = []
                for args in inputs[total]:
                    mids = tuple(
                        fs[j][index[len(blocks[j])][tuple(args[t] for t in blocks[j])]]
                        for j in range(k)
                    )
                    out.append(a[index[k][mids]])
                table[(a, *fs)] = tuple(out)
        return table

    unit = tuple(x)
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
    actions = {}
    for k in range(2, bound + 1):
        for i in range(1, k):
            table = {}
            for a in carrier[k - 1]:
                swapped = list(a)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                table[a] = tuple(swapped)
            actions[(k - 1, i)] = table

    def supplier(sigma: OrdinalMap) -> dict:
        total, k = sigma.source.arity, sigma.target.arity
        blocks = [
            [t for t in range(total) if sigma.table[t] == j] for j in range(k)
        ]
        sizes = [len(b) for b in blocks]
        table = {}
        f_space = [carrier[m - 1] for m in sizes]
        for a in carrier[k - 1]:
            bands = [sum(sizes[l] for l in range(k) if a[l] < a[j]) for j in range(k)]
            for fs in itertools.product(*f_space):
                out = [0] * total
                for j in range(k):
                    for u, t in enumerate(blocks[j]):
                        out[t] = bands[j] + fs[j][u]
                table[(a, *fs)] = tuple(out)
        return table

    coll = FiniteCollection(SYMMETRIC, carrier, actions)
    return FiniteOperad(coll, (0,), bound, supplier=supplier)


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
    carrier = {a: sym.collection.elements(a.arity - 1) for a in ordinals}

    def unsort(sigma: OrdinalMap) -> dict:
        # the sorting permutation lists source positions stably by image
        total = sigma.source.arity
        order = sorted(range(total), key=lambda p: (sigma.table[p], p))
        return sym.collection.action_of_permutation(
            total - 1, Permutation(tuple(order))
        )

    def supplier(sigma: OrdinalMap) -> dict | None:
        if sigma.source.domain.n != n:
            return None
        base = sym.mult(_line_map_with_fibers(_block_sizes(sigma)))
        action = unsort(sigma)
        return {args: action[base[args]] for args in base}

    def quasi_actor(sigma: OrdinalMap) -> dict:
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
    tables: dict[OrdinalMap, dict] = {}
    tables[identity_map(pt)] = {("e", "e"): "e"}
    for t in (flat, sharp):
        const = OrdinalMap(t, pt, (0, 0))
        tables[const] = {("e", f): f for f in carrier[t]}
        ident = identity_map(t)
        tables[ident] = {
            (a, "e", "e"): a for a in carrier[t]
        }
    for table in ((0, 1), (1, 0)):
        m = OrdinalMap(flat, sharp, table)
        tables[m] = {(a, "e", "e"): 0 for a in carrier[sharp]}
    coll = FiniteCollection(flavor, carrier, {})
    return FiniteOperad(coll, "e", 2, tables)


# -- induced actions and quasisymmetry ----------------------------------------


def induced_action(op: FiniteOperad, sigma: OrdinalMap) -> dict:
    """Action of a quasibijection by unit insertion, target to source."""
    if not sigma.is_quasibijection:
        raise NotQuasibijection("induced actions exist for quasibijections only")
    if sigma.source.arity > op.bound:
        raise BoundExceeded(
            "quasibijection lies outside the operad bound", arity=sigma.source.arity
        )
    if op.quasi_actor is not None:
        return dict(op.quasi_actor(sigma))
    table = op.mult(sigma)
    units = (op.unit,) * sigma.source.arity
    return {a: table[(a, *units)] for a in op.carrier_of(sigma.target)}


def _quasibijections(op: FiniteOperad, bound: int) -> Iterator[OrdinalMap]:
    objs = op.index_ordinals(bound)
    for s in objs:
        for t in objs:
            if t.arity != s.arity:
                continue
            yield from enumerate_maps(t, s, kind="quasi")


def is_locally_constant(
    op: FiniteOperad, we_predicate: Callable[[dict], bool], bound: int | None = None
) -> bool:
    """Whether every induced quasibijection action is a weak equivalence.

    The predicate receives the action as an element dict.  With the
    bijection predicate this is exactly quasisymmetry.
    """
    bound = op.bound if bound is None else bound
    if bound > op.bound:
        raise BoundExceeded("check bound exceeds the operad bound", bound=bound)
    for sigma in _quasibijections(op, bound):
        if not we_predicate(induced_action(op, sigma)):
            return False
    return True


def action_is_bijection(action: dict) -> bool:
    return len(set(action.values())) == len(action)


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
) -> dict:
    """Multiplication table at an arbitrary surjection of n-ordinals.

    Splits sigma as an order-preserving surjection after a quasibijection,
    pushes every argument forward along the inverse fiber actions,
    multiplies along the order-preserving part, and acts by the whole
    quasibijection on the result.  Quasisymmetry makes the fiber actions
    invertible; a non-invertible one raises NotQuasisymmetric.
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
        act = induced_action(op, local)
        if not action_is_bijection(act):
            raise NotQuasisymmetric(
                "fiber action is not invertible", morphism=morphism_key(local)
            )
        fiber_pulls.append({v: x for x, v in act.items()})
    mu = op.mult(nu)
    out = {}
    for args in _argument_space(op, sigma):
        a, fs = args[0], args[1:]
        pushed = tuple(fiber_pulls[j][fs[j]] for j in range(k))
        out[args] = alpha[mu[(a, *pushed)]]
    return out


# -- braided actions from a quasisymmetric 2-operad ---------------------------


@dataclass(frozen=True)
class BraidedActions:
    """Artin generator actions on the top homogeneous carrier, with the
    relation names that were verified."""

    strands: int
    carrier: tuple
    actions: tuple[dict, ...]
    relations: tuple[str, ...]

    def to_json(self) -> dict:
        index = {x: i for i, x in enumerate(self.carrier)}
        return {
            "strands": self.strands,
            "carrier": [_thaw(x) for x in self.carrier],
            "actions": [
                [index[a[x]] for x in self.carrier] for a in self.actions
            ],
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
    elems = op.carrier_of(flat)
    actions = []
    for i in range(1, k):
        legs = generator_span(k, i).legs
        forward = induced_action(op, legs[0][1])
        backward = induced_action(op, legs[1][1])
        if not (action_is_bijection(forward) and action_is_bijection(backward)):
            raise NotQuasisymmetric(
                "span leg action is not invertible", strands=k, generator=i
            )
        back_inv = {v: x for x, v in backward.items()}
        actions.append({x: forward[back_inv[x]] for x in elems})
    broken = _broken_relation(actions, elems)
    if broken is not None:
        relation, (i, j), witness = broken
        raise RelationFailed(f"{relation}({i},{j})", strands=k, witness=_thaw(witness))
    relations = [f"{relation}({i},{j})" for relation, i, j in _artin_relations(k)]
    return BraidedActions(k, tuple(elems), tuple(actions), tuple(relations))


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

    Elements are referenced by index into their carrier list; tables are
    nested index arrays, outermost dimension the target carrier.
    """
    flavor = op.flavor
    keys = {
        _carrier_key(flavor, a): ordinal_key(a) for a in op.index_ordinals()
    }
    index = {
        key: {x: i for i, x in enumerate(op.collection.elements(key))}
        for key in keys
    }
    carriers = {
        keys[key]: [_thaw(x) for x in op.collection.elements(key)] for key in keys
    }
    actions = {}
    for (key, i), table in sorted(
        op.collection.actions.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        elems = op.collection.elements(key)
        actions[f"{keys[key]}|{i}"] = [index[key][table[x]] for x in elems]
    mult = {}
    covered = covered_surjections(op, required_surjections(flavor, op.bound))
    for sigma in sorted(itertools.chain(*covered.values()), key=morphism_key):
        table = op.mult(sigma)
        tgt_key = _carrier_key(flavor, sigma.target)
        fib_keys = _fiber_keys(flavor, sigma)
        src_key = _carrier_key(flavor, sigma.source)
        dims = [op.collection.elements(k) for k in (tgt_key, *fib_keys)]

        def build(prefix: tuple, depth: int):
            if depth == len(dims):
                return index[src_key][table[prefix]]
            return [build(prefix + (x,), depth + 1) for x in dims[depth]]

        mult[morphism_key(sigma)] = build((), 0)
    pt_key = _carrier_key(flavor, _point(flavor))
    return {
        "flavor": flavor.kind,
        "n": flavor.n,
        "bound": op.bound,
        "unit": index[pt_key][op.unit],
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
    """Read an operad bundle; malformed fields raise BadDocument."""
    if not isinstance(obj, dict) or "flavor" not in obj:
        raise OutOfRange("operad bundle needs a 'flavor' field")
    n = obj.get("n")
    flavor = Flavor(obj["flavor"], None if n is None else decode(n, int, "n"))
    bound = decode(obj.get("bound"), int, "bound")
    carrier = {}
    for key_text, elems in decode(obj.get("carriers"), dict, "carriers").items():
        key = _carrier_key(flavor, _ordinal_from_key(flavor, key_text))
        elems = decode(elems, list, f"carrier {key_text}")
        carrier[key] = tuple(_freeze(x) for x in elems)

    def elements_at(a: NOrdinal) -> tuple:
        found = carrier.get(_carrier_key(flavor, a))
        return decode(found, tuple, f"carrier {ordinal_key(a)}")

    actions = {}
    for key_text, arr in decode(obj.get("actions", {}), dict, "actions").items():
        ordinal_text, _, gen_text = key_text.rpartition("|")
        a = _ordinal_from_key(flavor, ordinal_text)
        elems = elements_at(a)
        if not gen_text.isdecimal():
            raise BadDocument("bad key", field=key_text)
        decode(arr, list, f"action {key_text}", len(elems))
        actions[(_carrier_key(flavor, a), int(gen_text))] = {
            elems[i]: elems[decode(v, int, f"action {key_text}", len(elems))]
            for i, v in enumerate(arr)
        }
    tables = {}
    for m_key, nested in decode(obj.get("mult", {}), dict, "mult").items():
        src_text, _, rest = m_key.partition(">")
        tgt_text, _, table_text = rest.partition("|")
        source = _ordinal_from_key(flavor, src_text)
        target = _ordinal_from_key(flavor, tgt_text)
        sigma = OrdinalMap(source, target, _key_ints(table_text, m_key))
        by_index = dict(enumerate(elements_at(source)))
        dims = [elements_at(target)] + [
            elements_at(fiber(sigma, t)[0]) for t in range(target.arity)
        ]
        entries = {}

        def fill(prefix: tuple, node, depth: int):
            if depth == len(dims):
                entries[prefix] = by_index[node]
                return
            decode(node, list, m_key, len(dims[depth]))
            for x, child in zip(dims[depth], node):
                fill(prefix + (x,), child, depth + 1)

        try:
            fill((), nested, 0)
        except (KeyError, TypeError):  # a leaf that is no index of the carrier
            raise BadDocument(f"bad {m_key}", field=m_key) from None
        tables[sigma] = entries
    units = elements_at(_point(flavor))
    unit = units[decode(obj.get("unit"), int, "unit", len(units))]
    coll = FiniteCollection(flavor, carrier, actions)
    return FiniteOperad(coll, unit, bound, tables)
