"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately written from first principles with plain
itertools, without importing the package under test, so that expected
values come from a second route.  Oracles that the benchmark also grades
with (free reduction, Cohen's Betti numbers, J_n(k) by all pairs, map
validity) live once, in perfbench/reference.py; the tests import that
module as ``reference``.
"""

import itertools
import math
from fractions import Fraction

from reference import free_reduce


def count_ascending_structures(n, k):
    """Count level assignments on all pairs of {0..k-1} (read ascending)
    that satisfy the composition law rel(a,c) = min(rel(a,b), rel(b,c))."""
    if k <= 1:
        return 1
    pairs = list(itertools.combinations(range(k), 2))
    triples = list(itertools.combinations(range(k), 3))
    count = 0
    for assignment in itertools.product(range(n), repeat=len(pairs)):
        lv = dict(zip(pairs, assignment))
        ok = True
        for a, b, c in triples:
            if lv[(a, c)] != min(lv[(a, b)], lv[(b, c)]):
                ok = False
                break
        if ok:
            count += 1
    return count


def count_all_structures(n, k):
    """Count all (direction, level) tables on unordered pairs of {0..k-1}
    satisfying: no cycles, and a < b < c forces level(a,c) = min of the
    two step levels.  Should come to k! times the ascending count."""
    if k <= 1:
        return 1
    pairs = list(itertools.combinations(range(k), 2))
    count = 0
    for dirs in itertools.product((0, 1), repeat=len(pairs)):
        directed_pairs = [
            (a, b) if d == 0 else (b, a) for (a, b), d in zip(pairs, dirs)
        ]
        for assignment in itertools.product(range(n), repeat=len(pairs)):
            rel = dict(zip(directed_pairs, assignment))
            ok = True
            for a, b, c in itertools.permutations(range(k), 3):
                if (a, b) in rel and (b, c) in rel:
                    if (a, c) not in rel or rel[(a, c)] != min(rel[(a, b)], rel[(b, c)]):
                        ok = False
                        break
            if ok:
                count += 1
    return count


# -- invariant factors of integer matrices ----------------------------------


def determinant(m):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for t in range(len(a)):
        pivot = next((i for i in range(t, len(a)) if a[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            sign = -sign
        for i in range(t + 1, len(a)):
            for j in range(t + 1, len(a)):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[-1][-1] if a else 1


def determinantal_factors(m):
    """Invariant factors as d_k / d_(k-1), where d_k is the gcd of all
    k x k minors (d_0 = 1); they stop at the rank, the largest k with
    d_k non-zero."""
    factors, before = [], 1
    for k in range(1, min(len(m), len(m[0]) if m else 0) + 1):
        d = 0
        for rows in itertools.combinations(m, k):
            for cols in itertools.combinations(range(len(m[0])), k):
                d = math.gcd(d, determinant([[row[j] for j in cols] for row in rows]))
        if not d:
            break
        factors.append(d // before)
        before = d
    return tuple(factors)


def snf_diagonal(m):
    """Invariant factors by dense elimination, for matrices too big for
    minors.  Every step pivots on a least-magnitude entry of what is left
    and reduces the pivot's column by row steps and its row by column
    steps.  A remainder is a smaller entry for the next step.  With row
    and column clear, a pivot that divides every entry splits off;
    otherwise a row holding an entry it does not divide is added to the
    pivot row and reduced, which leaves a remainder.  So the least entry
    shrinks until the next split, and the entries stay small."""
    a = [list(row) for row in m]
    factors = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            return tuple(factors)
        _, i, j = min(entries)
        pivot = a[i][j]
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = row[j] // pivot
                a[r] = [x - q * y for x, y in zip(row, a[i])]
        for c in range(len(a[i])):
            if c != j and a[i][c]:
                q = a[i][c] // pivot
                for row in a:
                    row[c] -= q * row[j]
        if sum(1 for row in a if row[j]) > 1 or sum(1 for x in a[i] if x) > 1:
            continue
        offender = next(
            ((r, c) for r, row in enumerate(a) for c, x in enumerate(row) if x % pivot),
            None,
        )
        if offender is None:
            factors.append(abs(pivot))
            del a[i]
            for row in a:
                del row[j]
            continue
        r, c = offender
        a[i] = [x + y for x, y in zip(a[i], a[r])]
        q = a[i][c] // pivot
        for row in a:
            row[c] -= q * row[j]


# -- reduced Burau representation of the 3-strand braid group ------------
#
# Laurent polynomials over Z are dicts exponent -> coefficient.  The
# reduced Burau representation is faithful for 3 strands, so equality of
# images decides equality of braids.


def _lp_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _lp_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _mat_mul(a, b):
    return [
        [
            _lp_add(_lp_mul(a[i][0], b[0][j]), _lp_mul(a[i][1], b[1][j]))
            for j in range(2)
        ]
        for i in range(2)
    ]


_ONE = {0: 1}
_ZERO = {}

_BURAU = {
    1: [[{1: -1}, {0: 1}], [_ZERO, _ONE]],
    -1: [[{-1: -1}, {-1: 1}], [_ZERO, _ONE]],
    2: [[_ONE, _ZERO], [{1: 1}, {1: -1}]],
    -2: [[_ONE, _ZERO], [{0: 1}, {-1: -1}]],
}


def burau3(word):
    """Image of a 3-strand braid word (list of signed generators) in the
    reduced Burau representation."""
    m = [[_ONE, _ZERO], [_ZERO, _ONE]]
    for letter in word:
        m = _mat_mul(m, _BURAU[letter])
    return m


def burau3_is_identity(word):
    m = burau3(word)
    return m[0][0] == _ONE and m[1][1] == _ONE and m[0][1] == _ZERO and m[1][0] == _ZERO


# -- Artin's action on the free group, and handle reduction ----------------
#
# Elements of the free group F_s are freely reduced lists of signed
# generators 1..s.  Artin's action of B_s on F_s is faithful, so a braid
# word is trivial exactly when it fixes every generator.


def artin_is_identity(strands, word):
    """Whether the braid word acts trivially on F_strands: sigma_i sends
    x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i, its inverse sends x_i to
    x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}.  Each letter is composed
    on the right, so images[j] is the image of x_{j+1} under the prefix."""
    images = [[x] for x in range(1, strands + 1)]
    for letter in word:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            images[i], images[i + 1] = free_reduce(a + b + [-x for x in a[::-1]]), a
        else:
            images[i], images[i + 1] = b, free_reduce([-x for x in b[::-1]] + a + b)
    return images == [[x] for x in range(1, strands + 1)]


def handle_walk(word):
    """Dehornoy handle reduction as a whole-word loop: free-reduce, find
    the leftmost-closing handle by scanning from the start, rewrite it,
    free-reduce the whole word, repeat.  Returns (trivial, handles reduced).

    A handle (s, t) has word[s] = -word[t] = i^e and every letter between
    them of index above |i|; it is rewritten by dropping both ends and
    replacing each (|i|+1)^d between them by (|i|+1)^-e |i|^d (|i|+1)^e.
    """
    word = free_reduce(word)
    steps = 0
    while word:
        handle = None
        for t, letter in enumerate(word):
            s = t - 1
            while s >= 0 and abs(word[s]) > abs(letter):
                s -= 1
            if s >= 0 and word[s] == -letter:
                handle = s, t
                break
        if handle is None:
            return False, steps
        s, t = handle
        i, e = abs(word[s]), (1 if word[s] > 0 else -1)
        body = []
        for x in word[s + 1 : t]:
            d = 1 if x > 0 else -1
            body += [-e * (i + 1), d * i, e * (i + 1)] if abs(x) == i + 1 else [x]
        word = free_reduce(word[:s] + body + word[t + 1 :])
        steps += 1
    return True, steps


BRAID_KINDS = ("trivial", "writhe", "permutation", "crossing", "commutator")


def padded_braid_word(rng, kind, strands, length):
    """A test input, not an oracle: g core g^-1 for a random word g, padded
    to about ``length`` letters by conjugated relators inserted at random
    places.  The core is empty for 'trivial'; for 'writhe', 'permutation'
    and 'crossing' it breaks that invariant; for 'commutator' it is the
    commutator of two pure-braid generators, which passes them all.
    Needs strands >= 3."""

    def letters(count):
        return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(count)]

    def inverse(w):
        return [-x for x in reversed(w)]

    i, j = rng.sample(range(1, strands), 2)
    c = min(i, j)
    core = {
        "trivial": [],
        "writhe": [rng.choice((1, -1)) * i],
        "permutation": [i, -j],
        "crossing": [i, i, -j, -j],
        "commutator": [c, c, c + 1, c + 1, -c, -c, -c - 1, -c - 1],
    }[kind]
    g = letters(rng.randint(0, 20))
    word = g + core + inverse(g)
    while len(word) < length:
        h = letters(rng.randint(1, 12))
        a = rng.randint(1, strands - 2)
        far = [b for b in range(1, strands) if abs(a - b) >= 2]
        if far and rng.random() < 0.5:
            b = rng.choice(far)
            relator = [a, b, -a, -b]
        else:
            relator = [a, a + 1, a, -(a + 1), -a, -(a + 1)]
        at = rng.randint(0, len(word))
        word[at:at] = h + relator + inverse(h)
    return word


# -- mod-2 homology of unordered configuration spaces ----------------------


def mod2_betti(n, k):
    """dim H_d(Conf_k(R^n)/S_k; F_2) for d = 0..(n-1)(k-1), k >= 1.

    F. Cohen (LNM 533, 1976): over all k together this homology is the
    polynomial algebra on the classes Q_{i_1} ... Q_{i_r} iota with
    1 <= i_1 <= ... <= i_r <= n-1, Q_{i_1} applied last.  iota has weight
    1 and degree 0; Q_i doubles the weight and sends degree e to i + 2e.
    So the answer counts the monomials of weight k by degree.
    """
    generators, todo = [], [(1, 0, n - 1)]  # weight, degree, largest next index
    while todo:
        weight, degree, top = todo.pop()
        generators.append((weight, degree))
        if 2 * weight <= k:
            todo.extend((2 * weight, i + 2 * degree, i) for i in range(1, top + 1))
    size = (n - 1) * (k - 1) + 1
    count = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(k)]
    for weight, degree in generators:  # each may appear to any power
        for total in range(weight, k + 1):
            for e in range(degree, size):
                count[total][e] += count[total - weight][e - degree]
    return count[k]


def mod2_from_integral(groups):
    """dim H_d(-; F_2) by universal coefficients, from integral groups as
    (rank, torsion) per degree: the rank plus the even invariant factors in
    degrees d and d-1."""
    even = [sum(1 for t in torsion if t % 2 == 0) for _, torsion in groups]
    return [rank + even[d] + (even[d - 1] if d else 0) for d, (rank, _) in enumerate(groups)]


# -- the Salvetti complex of the braid group --------------------------------


def salvetti_complex(k):
    """Cells by dimension and face rule of the Salvetti complex of B_k with
    trivial integer coefficients, a K(B_k, 1) (De Concini & Salvetti 1996):
    one cell per subset of the generators 1..k-1, as a sorted tuple.

    The face cell minus s has coefficient (-1)^(members before s) times
    the Gaussian binomial [m+1 choose j] at q = -1, where s is the j-th of
    the m consecutive generators in the cell around it: the Poincare
    polynomial at -1 of S_(m+1) over S_j x S_(m+1-j).  At q = -1 that is
    C((m+1) // 2, j // 2), or 0 when m + 1 is even and j odd.
    """
    cells = [list(itertools.combinations(range(1, k), d)) for d in range(max(k, 1))]

    def face_list(d, cell):
        faces = []
        for i, s in enumerate(cell):
            lo, hi = i, i
            while lo and cell[lo - 1] == cell[lo] - 1:
                lo -= 1
            while hi + 1 < d and cell[hi + 1] == cell[hi] + 1:
                hi += 1
            m, j = hi - lo + 1, i - lo + 1
            if not (m % 2 and j % 2):
                coeff = (-1) ** i * math.comb((m + 1) // 2, j // 2)
                faces.append((coeff, cell[:i] + cell[i + 1 :]))
        return faces

    return cells, face_list


# -- strata by pairwise comparison, over Fractions -------------------------


def lex_relation_table(points):
    """For every pair of points, as Fractions: the first coordinate where
    they differ, keyed (i, j) with point i lexicographically below point j.
    None when two points coincide."""
    points = [tuple(Fraction(c) for c in p) for p in points]
    table = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        diffs = [p for p, (a, b) in enumerate(zip(points[i], points[j])) if a != b]
        if not diffs:
            return None
        p = diffs[0]
        table[(i, j) if points[i][p] < points[j][p] else (j, i)] = p
    return table


def fraction_walk(low, high, steps):
    """The points low + t (high - low) at t = 1, 1/2, 1/4, ..., one
    configuration per step, with t a Fraction halved at each step."""
    t = Fraction(1)
    for _ in range(max(1, steps)):
        yield [
            tuple(Fraction(a) + t * (Fraction(b) - Fraction(a)) for a, b in zip(p, q))
            for p, q in zip(low, high)
        ]
        t /= 2


# -- incidence signs of a regular CW complex by Björner's diamond rule -----


def diamond_walk(layers, facets):
    """Incidence signs of the cells (T, id) of a regular CW complex on which
    S_k acts freely by relabeling, by Björner's diamond rule.

    ``layers`` lists the cells T by dimension, and facets[T] the facets of
    (T, id) as (S, rho) or (S, rho, sign): the facet (S, rho) has labels
    rho, and its faces are those of (S, id) with their labels composed
    with rho, the action carrying orientations along.  A codimension-2
    face g of a cell c lies in exactly two facets f1, f2, and
    [c:f2] = -[c:f1] [f1:g] [f2:g]; a vertex's one face is the empty one,
    with sign +1.  The first facet of each cell gets its listed sign, or
    +1, and the rest follow through shared faces.  Returns facets[T] as
    (S, rho, sign) for every T.  Fails, naming the cell, when a face is
    not in exactly two facets, the facets are not connected through
    faces, or the signs disagree; with listed signs, the faces' signs are
    the listed ones, and a walk that reaches other signs for the facets
    disagrees, so the walk checks the diamond condition on them.
    """
    signed = {}
    for layer in layers:
        for cell in layer:
            own = facets[cell]
            shared = {}
            for f, (s, rho, *_) in enumerate(own):
                for r, sigma, sign in signed[s] or [(None, (), 1)]:
                    face = (r, tuple(rho[x] for x in sigma))
                    shared.setdefault(face, []).append((f, sign))
            edges = [[] for _ in own]
            for pair in shared.values():
                assert len(pair) == 2, f"a face of a cell is not in exactly two facets: {cell}"
                (f1, s1), (f2, s2) = pair
                edges[f1].append((f2, -s1 * s2))
                edges[f2].append((f1, -s1 * s2))
            listed = [facet[2] if len(facet) == 3 else 0 for facet in own]
            signs = [0] * len(own)
            todo = [0] if own else []
            if own:
                signs[0] = listed[0] or 1
            while todo:
                f = todo.pop()
                for g, relative in edges[f]:
                    if not signs[g]:
                        signs[g] = signs[f] * relative
                        todo.append(g)
                    assert signs[g] == signs[f] * relative and listed[g] in (0, signs[g]), (
                        f"the diamond signs of a cell disagree: {cell}"
                    )
            assert all(signs), f"the facets of a cell are not connected: {cell}"
            signed[cell] = [(s, rho, sign) for (s, rho, *_), sign in zip(own, signs)]
    return signed


# -- the axiom checker's witnesses, by the plain loop ------------------------


def differing_arguments(decodings, lhs, rhs):
    """The argument tuples, in itertools.product order over ``decodings``,
    at which the flat tables ``lhs`` and ``rhs`` differ: one pass that
    zips every tuple against both sides."""
    out = []
    for args, left, right in zip(itertools.product(*decodings), lhs, rhs):
        if left != right:
            out.append(args)
    return out


# -- covering pairs of a closed order, by un-closing -------------------------


def covers_from_masks(below):
    """The pairs (i, j), in sorted order, with j below i and nothing
    between, where bit j of the int below[i] says j is below i and the
    masks are transitively closed: the mask below i less everything below
    its members."""
    covers = []
    for i, mask in enumerate(below):
        members = [j for j in range(mask.bit_length()) if mask >> j & 1]
        deeper = 0
        for j in members:
            deeper |= below[j]
        covers.extend((i, j) for j in members if not deeper >> j & 1)
    return covers
