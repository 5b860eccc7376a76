"""Seeded task lists for the three workloads, each task with its reference.

A task is one CLI invocation: an argv, an optional JSON document (written
to a file whose path the argv then names) and a check.  The check receives
the exit code and the decoded run report and returns None when the verdict
agrees with the reference, or a short description of the disagreement.

The seed drives every random choice: braid words, zigzags, maps, strata
samples, corruption sites, the partition-audit seed and the task order.
Sizes come in two scales: "full" for measurement and "tiny" for the
benchmark's self-test.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref


@dataclass
class Task:
    name: str
    argv: list
    check: Callable
    doc: object = None


def _expect(code: int, outcome: str):
    """Problem text when the exit code or outcome is not the expected one."""

    def check(got_code, report):
        if got_code != code or report.get("outcome") != outcome:
            return f"exit {got_code} {report.get('outcome')}, expected {code} {outcome}"
        return None

    return check


def _all(*checks):
    def check(code, report):
        for c in checks:
            problem = c(code, report)
            if problem:
                return problem
        return None

    return check


def _payload(test, what: str):
    def check(code, report):
        try:
            ok = test(report["payload"])
        except (KeyError, IndexError, TypeError, ValueError) as e:
            return f"{what}: malformed payload ({e!r})"
        return None if ok else what

    return check


def _passes(test, what: str):
    return _all(_expect(0, "PASS"), _payload(test, what))


# -- complexes ---------------------------------------------------------------

# (n, k) per category; every one finishes within a run at the seed commit.
# Left out: homology of J(3,3) (over 60 s) and of Q(3,4) (out of memory).
_SMALL = [(n, k) for n in range(1, 7) for k in (1, 2)]
Q_SIZES = {"full": _SMALL + [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)],
           "tiny": [(1, 1), (2, 2), (3, 2), (2, 3)]}
J_SIZES = {"full": _SMALL + [(1, 3), (2, 3)], "tiny": [(1, 2), (2, 2), (3, 2)]}
# build-j and degeneration only
J_POSET_ONLY = {"full": [(2, 4), (3, 3)], "tiny": [(1, 3)]}


def _nk(n, k):
    return ["--n", str(n), "--k", str(k)]


def _lazy(fn, *args):
    """fn(*args), computed on first use: references are worked out when
    verdicts are checked, not during set-up."""
    box = []

    def get():
        if not box:
            box.append(fn(*args))
        return box[0]

    return get


def _cells_check(category, n, k, objects, arrows, betti):
    def test(p):
        cells = p["cells"]
        alternating = sum((-1) ** d * c for d, c in enumerate(cells))
        return (
            cells[0] == objects
            and (len(cells) < 2 or cells[1] == arrows())
            and p["euler"] == alternating == ref.euler(betti)
            and (p["category"], p["n"], p["k"]) == (category, n, k)
        )

    return _passes(test, f"nerve {category}({n},{k}): cells or Euler characteristic")


def _homology_check(category, n, k, betti):
    frozen = ref.FROZEN_Q_TORSION.get((n, k), {}) if category == "Q" else {}

    def test(p):
        groups = p["H"]
        ranks = [g["rank"] for g in groups]
        torsion = {d: g["torsion"] for d, g in enumerate(groups) if g["torsion"]}
        if category == "J" and torsion:  # Conf_k(R^n) has free homology
            return False
        if category == "Q" and (n, k) in ref.FROZEN_Q_TORSION and torsion != frozen:
            return False
        return ref.same_betti(ranks, betti)

    return _passes(test, f"homology {category}({n},{k}): Betti numbers or torsion")


def complexes(rng: random.Random, scale: str) -> list[Task]:
    tasks = []
    for n, k in Q_SIZES[scale]:
        objects = len(ref.ordinals(n, k))
        morphisms = _lazy(ref.q_morphisms, n, k)
        betti = ref.q_betti(n, k)

        def build_test(p, objects=objects, morphisms=morphisms):
            return (
                len(p["objects"]) == objects
                and p["morphisms"] == morphisms() == sum(p["hom_sizes"].values())
            )

        tasks += [
            Task(f"build-q Q({n},{k})", ["build-q", *_nk(n, k)],
                 _passes(build_test, f"build-q Q({n},{k}): objects or morphisms")),
            Task(f"nerve Q({n},{k})", ["nerve", *_nk(n, k), "--category", "Q"],
                 _cells_check("Q", n, k, objects, lambda m=morphisms, o=objects: m() - o, betti)),
            Task(f"homology Q({n},{k})", ["homology", *_nk(n, k), "--category", "Q"],
                 _homology_check("Q", n, k, betti)),
        ]
    for n, k in J_SIZES[scale] + J_POSET_ONLY[scale]:
        elements = [
            {"ordinal": {"n": n, "k": k, "levels": list(t)}, "labels": list(pi)}
            for t, pi in ref.j_elements(n, k)
        ]
        relations = _lazy(ref.j_relations, n, k)
        covers = _lazy(lambda r=relations: ref.covering_pairs(r()))

        def poset_test(p, elements=elements, relations=relations, covers=covers):
            return (
                p["elements"] == elements
                and {tuple(r) for r in p["relations"]} == relations()
                and {tuple(c) for c in p["covering_pairs"]} == covers()
            )

        def degeneration_test(p, covers=covers):
            return p["covering_pairs"] == len(covers()) and p["failures"] == []

        tasks += [
            Task(f"build-j J({n},{k})", ["build-j", *_nk(n, k)],
                 _passes(poset_test, f"build-j J({n},{k}): elements, relations or covers")),
            Task(f"degeneration J({n},{k})", ["degeneration", *_nk(n, k)],
                 _passes(degeneration_test, f"degeneration J({n},{k})")),
        ]
        if (n, k) in J_SIZES[scale]:
            betti = ref.j_betti(n, k)
            tasks += [
                Task(f"nerve J({n},{k})", ["nerve", *_nk(n, k), "--category", "J"],
                     _cells_check("J", n, k, len(elements), lambda r=relations: len(r()), betti)),
                Task(f"homology J({n},{k})", ["homology", *_nk(n, k), "--category", "J"],
                     _homology_check("J", n, k, betti)),
            ]
    rng.shuffle(tasks)
    return tasks


# -- operad-tables -----------------------------------------------------------


def _operad_passes(name):
    return _passes(lambda p: p["passed"] and p["checked"] > 0 and not p["failures"],
                   f"{name}: expected a PASS with instances checked")


def _desymmetrised(n, bound):
    """desymmetrise of End{0,1}: one carrier End(|T|) of size 2^(2^|T|) per
    n-ordinal T of arity 1..bound."""
    sizes = {a: 2 ** (2 ** a) for a in range(1, bound + 1)}

    def test(p):
        carriers = p["carriers"]
        expected = sum(len(ref.ordinals(n, a)) for a in range(1, bound + 1))
        return (
            (p["flavor"], p["n"], p["bound"]) == ("n-operad", n, bound)
            and len(carriers) == expected
            and all(len(v) == sizes[int(key.partition(":")[0])]
                    for key, v in carriers.items())
            and 0 <= p["unit"] < len(carriers["1:"])
        )

    return _passes(test, f"desymmetrise n={n} bound={bound}: carriers")


def _corruption_fails(code, report):
    """A corrupted bundle must FAIL with at least one witness."""
    if code != 1 or report.get("outcome") != "FAIL":
        return f"corruption not caught: exit {code} {report.get('outcome')}"
    p = report.get("payload", {})
    failures = p.get("failures")
    if failures is not None:
        if p.get("passed") is False and failures and all("witness" in f for f in failures):
            return None
        return "corruption FAIL without witnesses"
    return None if "witness" in p else "corruption FAIL without a witness"


def _leaves(node, path=()):
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path, node


def corruptions(bundle: dict, count: int, rng: random.Random) -> list[dict]:
    """Bundles that differ from `bundle` in one multiplication or action
    entry, each changed to another element of the same carrier.

    Sites are a stratified sample: one at random from each of `count`
    equal slices of the site list, so every seed corrupts every table in
    the same proportions and only the exact entries vary."""
    sites = []
    for key, table in bundle["mult"].items():
        size = len(bundle["carriers"][key.partition(">")[0]])
        sites += [("mult", key, path, size) for path, _ in _leaves(table)]
    for key, table in bundle["actions"].items():
        sites += [("actions", key, (i,), len(table)) for i in range(len(table))]
    bounds = [len(sites) * j // count for j in range(count + 1)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        kind, key, path, size = sites[rng.randrange(lo, hi)]
        doc = copy.deepcopy(bundle)
        node = doc[kind][key]
        for i in path[:-1]:
            node = node[i]
        node[path[-1]] = rng.choice([v for v in range(size) if v != node[path[-1]]])
        out.append(doc)
    return out


OPERAD_SIZES = {
    # End{0,1} check bound, orders bounds, desymmetrise (n, bound) pairs,
    # n of the desymmetrised payloads checked, corruptions.  The n sweep
    # runs to 8 so that the slowest tenth of the tasks are fixed ones, not
    # the seeded corruptions.  Left out: the check of desymmetrised
    # End{0,1} at bound 3 (24.5 s at the seed commit).
    "full": (3, (4, 5), [(n, 2) for n in range(2, 9)] + [(2, 3)], range(2, 9), 100),
    "tiny": (2, (3,), [(2, 2)], [2], 5),
}


def operad_tables(rng: random.Random, scale: str, library) -> list[Task]:
    """`library` is operadkit itself, used at set-up to produce the bundles
    that the checked tasks read: End{0,1} at bound 2 and its desymmetrised
    forms."""
    end_bound, orders_bounds, desym, payload_ns, corrupt = OPERAD_SIZES[scale]
    end2 = library.endomorphism_symmetric_operad((0, 1), 2)
    bundle = library.operad_to_json(end2)
    tasks = [
        Task(f"operad-check End{{0,1}} bound {end_bound}", ["operad-check"],
             _operad_passes("End{0,1}"),
             {"builtin": "endomorphism", "set": [0, 1], "bound": end_bound}),
        Task("operad-check End{0,1} bundle", ["operad-check"],
             _operad_passes("End{0,1} bundle"), bundle),
    ]
    for bound in orders_bounds:
        tasks.append(Task(f"operad-check orders bound {bound}", ["operad-check"],
                          _operad_passes("orders"), {"builtin": "orders", "bound": bound}))
    for n, bound in desym:
        tasks.append(Task(
            f"desymmetrise n={n} bound={bound}",
            ["desymmetrise", "--n", str(n), "--bound", str(bound)],
            _desymmetrised(n, bound),
            {"builtin": "endomorphism", "set": [0, 1], "bound": bound}))
    for n in payload_ns:
        doc = library.operad_to_json(library.desymmetrise(end2, n, 2))
        tasks.append(Task(f"operad-check desymmetrised n={n}", ["operad-check"],
                          _operad_passes(f"desymmetrised n={n}"), doc))
    for i, doc in enumerate(corruptions(bundle, corrupt, rng)):
        tasks.append(Task(f"operad-check corruption {i}", ["operad-check"],
                          _corruption_fails, doc))
    rng.shuffle(tasks)
    return tasks


# -- shapes ------------------------------------------------------------------


def _ordinal_doc(n, levels):
    return {"n": n, "k": len(levels) + 1, "levels": list(levels)}


def _random_levels(rng, n, k):
    return tuple(rng.randrange(n) for _ in range(k - 1))


def _map_tasks(rng, count):
    tasks = []
    for i in range(count):
        n, k, m = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5)
        src, tgt = _random_levels(rng, n, k), _random_levels(rng, n, m)
        table = [rng.randrange(m) for _ in range(k)]
        doc = {"source": _ordinal_doc(n, src), "target": _ordinal_doc(n, tgt), "f": table}
        bad = ref.first_violation(src, tgt, table)
        if bad is None:
            quasi = k == m and len(set(table)) == k
            monotone = table == sorted(table)
            check = _passes(
                lambda p, q=quasi, o=monotone: (p["quasibijection"], p["order_preserving"]) == (q, o),
                "check-map: classification")
        else:
            check = _all(_expect(1, "FAIL"), _payload(
                lambda p, bad=bad: p["error"] == "NOT_A_MORPHISM"
                and p["witness"]["pair"] == list(bad), "check-map: witness pair"))
        tasks.append(Task(f"check-map {i}", ["check-map"], check, doc))
    return tasks


def _factorize_tasks(rng, count):
    tasks = []
    for i in range(count):
        n, k, m = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5)
        src, tgt = _random_levels(rng, n, k), _random_levels(rng, n, m)
        for _ in range(200):
            table = [rng.randrange(m) for _ in range(k)]
            if ref.is_map(src, tgt, table):
                break
        else:
            table = [0] * k  # a constant map is always valid
        order = sorted(range(k), key=lambda p: (table[p], p))
        rank = [0] * k
        for r, p in enumerate(order):
            rank[p] = r

        def test(p, table=table, rank=rank):
            pi, nu = p["pi"]["f"], p["nu"]["f"]
            return (
                p["recomposes"] is True
                and pi == rank
                and nu == sorted(nu)
                and [nu[pi[q]] for q in range(len(table))] == table
            )

        doc = {"source": _ordinal_doc(n, src), "target": _ordinal_doc(n, tgt), "f": table}
        tasks.append(Task(f"factorize {i}", ["factorize"],
                          _passes(test, "factorize: pi, nu or recomposition"), doc))
    return tasks


def _inverse(word):
    return [-x for x in reversed(word)]


def _random_word(rng, strands, length):
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def _relator(rng, strands):
    """A word equal to the identity by one Artin relation."""
    i = rng.randint(1, strands - 1)
    far = [j for j in range(1, strands) if abs(i - j) >= 2]
    if far and rng.random() < 0.5:
        j = rng.choice(far)
        return [i, j, -i, -j]
    i = rng.randint(1, strands - 2)
    return [i, i + 1, i, -(i + 1), -i, -(i + 1)]


def _pad_trivially(rng, strands, word, length):
    """Insert conjugated relators at random places until about `length`
    letters; the braid class does not change."""
    word = list(word)
    while len(word) < length:
        g = _random_word(rng, strands, rng.randint(1, 12))
        piece = g + _relator(rng, strands) + _inverse(g)
        at = rng.randint(0, len(word))
        word[at:at] = piece
    return word


BRAID_KINDS = ("trivial", "writhe", "permutation", "crossing", "commutator")


def _core(kind, rng, s):
    """A word on s strands that is trivial, or non-trivial for the reason
    its kind names.  The commutator of two pure-braid generators passes
    every invariant pre-check."""
    if kind == "trivial":
        return []
    if kind == "writhe":
        return [rng.choice((1, -1)) * rng.randint(1, s - 1)]
    if kind == "commutator":
        i = rng.randint(1, s - 2)
        return [i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1)]
    i, j = rng.sample(range(1, s), 2)
    return [i, -j] if kind == "permutation" else [i, i, -j, -j]


BRAID_LENGTHS = {"full": (60, 150, 240, 330, 420, 510, 600), "tiny": (20, 40)}
BRAID_STRANDS = {"full": range(3, 9), "tiny": range(3, 5)}


def _braid_tasks(rng, scale):
    """Words stratified by kind, strand count and length; only the letters
    are random, so every seed gets the same mix."""
    tasks = []
    cells = itertools.product(BRAID_KINDS, BRAID_STRANDS[scale], BRAID_LENGTHS[scale])
    for kind, strands, length in cells:
        g = _random_word(rng, strands, rng.randint(0, 20))
        word = _pad_trivially(rng, strands, g + _core(kind, rng, strands) + _inverse(g), length)

        def test(p, word=word, strands=strands, trivial=kind == "trivial"):
            return (
                p["trivial"] is trivial
                and p["reduced"] == ref.free_reduce(word)
                and p["permutation"] == ref.braid_permutation(strands, word)
                and p["writhe"] == ref.writhe(word)
            )

        tasks.append(Task(f"braid {kind} s={strands} len={len(word)}", ["braid"],
                          _passes(test, f"braid {kind}: verdict or invariants"),
                          {"strands": strands, "word": word}))
    return tasks


def _quasibijection_from(rng, n, t):
    """A random quasibijection out of the n-ordinal with levels t, as
    (T, S, permutation): a random permutation, with the first target in a
    random order that makes it valid.  The identity always is, so this ends."""
    k = len(t) + 1
    targets = ref.ordinals(n, k)
    while True:
        perm = rng.sample(range(k), k)
        for s in rng.sample(targets, len(targets)):
            if ref.is_map(t, s, perm):
                return t, s, perm


def _block_sum(parts):
    """Ordinal sum (level-0 gaps) of quasibijections given as (T, S, perm)."""
    t, s, perm, offset = [], [], [], 0
    for pt, ps, pp in parts:
        if offset:
            t.append(0)
            s.append(0)
        t += pt
        s += ps
        perm += [v + offset for v in pp]
        offset += len(pp)
    return tuple(t), tuple(s), perm


def _split_tasks(rng, count):
    """Spans S <- T -> R built as block sums, so that they split.  A third
    ask for the finest blocks, a third for coarser ones, and a third for
    blocks the permutation does not respect, which must FAIL."""
    tasks = []
    for i in range(count):
        n = rng.randint(2, 3)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        # both legs leave the same middle T, a block sum of random pieces
        middles = [_random_levels(rng, n, size) for size in sizes]
        sigma_parts = [_quasibijection_from(rng, n, t) for t in middles]
        eta_parts = [_quasibijection_from(rng, n, t) for t in middles]
        t, s, sigma = _block_sum(sigma_parts)
        _, r, eta = _block_sum(eta_parts)
        k = len(sigma)
        inv = [0] * k
        for p, v in enumerate(sigma):
            inv[v] = p
        finest = ref.finest_blocks([eta[inv[x]] for x in range(k)])
        cuts = {e for _, e in finest}
        zigzag = {"legs": [
            {"dir": "back", "map": {"source": _ordinal_doc(n, t), "target": _ordinal_doc(n, s), "f": sigma}},
            {"dir": "fwd", "map": {"source": _ordinal_doc(n, t), "target": _ordinal_doc(n, r), "f": eta}},
        ]}
        mode = i % 3
        if mode == 0:
            doc, blocks = zigzag, finest
        elif mode == 1:  # merge neighbouring finest blocks at random
            kept = sorted(e for e in cuts if e == k or rng.random() < 0.5)
            blocks = [[a, b] for a, b in zip([0] + kept, kept)]
            doc = {"zigzag": zigzag, "blocks": [b - a for a, b in blocks]}
        else:  # a cut the permutation does not respect, or a wrong total
            free = [e for e in range(1, k) if e not in cuts]
            sizes = [free[0], k - free[0]] if free else [k + 1]
            doc, blocks = {"zigzag": zigzag, "blocks": sizes}, None
        if blocks is None:
            check = _all(_expect(1, "FAIL"), _payload(
                lambda p: p["error"] == "NOT_BLOCK_DECOMPOSABLE", "split: error code"))
        else:
            check = _passes(
                lambda p, blocks=blocks: p["blocks"] == blocks
                and p["braid_class_agrees"] is True and len(p["braids"]) == len(blocks),
                "split: blocks")
        tasks.append(Task(f"split {i}", ["split"], check, doc))
    return tasks


def _artin_tasks(ks):
    tasks = []
    for k in ks:
        def test(p, k=k):
            names = {(q["i"], q["j"]): q["relation"] for q in p["pairs"]}
            want = {(i, j): "far-commutation" if abs(i - j) >= 2 else "braid"
                    for i in range(1, k) for j in range(1, k) if i != j}
            return p["count"] == (k - 1) * (k - 2) and names == want

        tasks.append(Task(f"artin-check k={k}", ["artin-check", "--k", str(k)],
                          _passes(test, f"artin-check k={k}: relations")))
    return tasks


def _strata_tasks(rng, count):
    tasks = []
    for i in range(count):
        n, k = rng.randint(1, 4), rng.randint(1, 6)
        levels = _random_levels(rng, n, k)
        labels = rng.sample(range(k), k)
        doc = {"ordinal": _ordinal_doc(n, levels), "labels": labels}
        tasks.append(Task(
            f"sample {i}", ["sample"],
            _passes(lambda p, want=(levels, tuple(labels)):
                    p["roundtrip"] is True
                    and ref.classify(p["configuration"]["points"]) == want,
                    "sample: the configuration lies in another stratum"),
            doc))
    for i in range(count):
        n, k = rng.randint(1, 4), rng.randint(1, 6)
        points = rng.sample(list(itertools.product(range(k), repeat=n)), k)
        levels, labels = ref.classify(points)
        tasks.append(Task(
            f"classify {i}", ["classify"],
            _passes(lambda p, levels=levels, labels=labels:
                    p["label"]["ordinal"]["levels"] == list(levels)
                    and p["label"]["labels"] == list(labels)
                    and p["key"] == f"{list(levels)}|{list(labels)}",
                    "classify: label"),
            {"dim": n, "points": [list(p) for p in points]}))
    return tasks


def _partition_task(rng, n, k, trials):
    seed = rng.randrange(10**6)
    tally = _lazy(ref.partition_tally, n, k, trials, seed)

    def test(p):
        return (
            p["universe"] == ref.universe(n, k)
            and p["observed"] == len(tally()) <= p["universe"]
            and p["tally"] == tally()
        )

    return Task(f"verify-partition {n},{k}",
                ["verify-partition", *_nk(n, k), "--trials", str(trials), "--seed", str(seed)],
                _passes(test, "verify-partition: tally"))


TERMINAL = {
    # flavor document fields -> bounds.  Left out: n-operad(3) at bound 4
    # (52 s at the seed commit).
    "full": [({"flavor": f}, (3, 4)) for f in ("symmetric", "braided", "mixed2")]
    + [({"flavor": "n", "n": 1}, (3, 4)), ({"flavor": "n", "n": 2}, (3, 4)),
       ({"flavor": "n", "n": 3}, (3,))],
    "tiny": [({"flavor": "symmetric"}, (2,)), ({"flavor": "n", "n": 2}, (3,))],
}
SHAPE_COUNTS = {
    # check-map, factorize, split, sample and classify each, artin k range,
    # verify-partition (n, k, trials)
    "full": (100, 60, 45, 40, range(3, 8), (3, 4, 1000)),
    "tiny": (6, 6, 6, 4, range(3, 5), (2, 3, 50)),
}


def shapes(rng: random.Random, scale: str) -> list[Task]:
    maps, facts, splits, strata, artin, (pn, pk, trials) = SHAPE_COUNTS[scale]
    tasks = []
    for fields, bounds in TERMINAL[scale]:
        for bound in bounds:
            doc = {"builtin": "terminal", "bound": bound, **fields}
            tasks.append(Task(f"operad-check terminal {fields} bound {bound}",
                              ["operad-check"], _operad_passes("terminal"), doc))
    tasks += _map_tasks(rng, maps)
    tasks += _factorize_tasks(rng, facts)
    tasks += _braid_tasks(rng, scale)
    tasks += _split_tasks(rng, splits)
    tasks += _artin_tasks(artin)
    tasks += _strata_tasks(rng, strata)
    tasks.append(_partition_task(rng, pn, pk, trials))
    rng.shuffle(tasks)
    return tasks


# Seconds one full-scale pass took at the seed commit on a 2-vCPU shared
# host, rounded up: a run of --seconds makes as many passes as fit.
PASS_S = {"complexes": 15.0, "operad-tables": 13.0, "shapes": 7.0}


def passes(workload: str, scale: str, seconds: float) -> int:
    """Passes per untraced run; at least two, so each task has a best of two."""
    return max(2, int(seconds // PASS_S[workload])) if scale == "full" else 2


def build(workload: str, seed: int, scale: str, library) -> list[Task]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "complexes":
        return complexes(rng, scale)
    if workload == "operad-tables":
        return operad_tables(rng, scale, library)
    if workload == "shapes":
        return shapes(rng, scale)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("complexes", "operad-tables", "shapes")
