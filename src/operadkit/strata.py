"""Fox-Neuwirth strata of configurations with exact rational coordinates.

Coordinates are exact Python numbers: an int stays an int, and a 'p/q'
string becomes a Fraction.  A configuration of k labeled points in R^n
determines an n-ordinal on the labels: sort the points lexicographically
and record, between consecutive points, how many leading coordinates
agree.  Strata are classified, sampled, and cross-validated against the
labeled-ordinal poset by walking straight segments between sample points.
All arithmetic is exact; there are no tolerances.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadDocument,
    DimensionMismatch,
    EqualPoints,
    OutOfRange,
    ResourceLimit,
    decode,
    printable_by_log2,
    within_cap,
)
from .ordinals import NOrdinal, count_log2, count_ordinals, make_ordinal, ordinal_from_json


def _exact(value) -> int | Fraction:
    """An int (a bool becomes its int) or Fraction as it is; a 'p/q'
    string as a Fraction."""
    if isinstance(value, (int, Fraction)):
        return int(value) if isinstance(value, bool) else value
    if isinstance(value, str):
        return Fraction(value)
    raise OutOfRange("coordinates must be integers or 'p/q' strings", got=repr(value))


@dataclass(frozen=True)
class Configuration:
    """k labeled points in R^n, pairwise distinct."""

    dim: int
    points: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise OutOfRange("dimension must be non-negative", dim=self.dim)
        pts = tuple(tuple(_exact(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for i, p in enumerate(pts):
            if len(p) != self.dim:
                raise DimensionMismatch(
                    "point length disagrees with the ambient dimension",
                    point=i,
                    expected=self.dim,
                    got=len(p),
                )
        for i, j in itertools.combinations(range(len(pts)), 2):
            if pts[i] == pts[j]:
                raise EqualPoints("points must be pairwise distinct", pair=[i, j])

    @property
    def arity(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "points": [[str(c) for c in p] for p in self.points],
        }


def _coordinate(value) -> int | Fraction:
    """A coordinate read from a document: an integer or a 'p/q' string."""
    decode(value, (int, str), "coordinate")
    try:
        return _exact(value)
    except (ValueError, ZeroDivisionError):
        raise BadDocument("bad coordinate", field="coordinate", got=repr(value)[:80]) from None


def configuration_from_json(obj: dict) -> Configuration:
    if not isinstance(obj, dict) or "dim" not in obj or "points" not in obj:
        raise OutOfRange("configuration needs 'dim' and 'points' fields", got=obj)
    points = decode(obj["points"], list, "points")
    return Configuration(
        decode(obj["dim"], int, "dim"),
        tuple(tuple(_coordinate(c) for c in decode(p, list, "point")) for p in points),
    )


@dataclass(frozen=True)
class StratumLabel:
    """A labeled n-ordinal: the shape in sorted order plus the permutation
    listing which point label sits at each sorted position."""

    ordinal: NOrdinal
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.ordinal.n is None:
            raise OutOfRange("strata live over a finite level domain")
        if sorted(self.labels) != list(range(self.ordinal.arity)):
            raise OutOfRange(
                "labels must permute the positions",
                labels=list(self.labels),
                arity=self.ordinal.arity,
            )

    def to_json(self) -> dict:
        return {"ordinal": self.ordinal.to_json(), "labels": list(self.labels)}


def stratum_from_json(obj: dict) -> StratumLabel:
    if not isinstance(obj, dict) or "ordinal" not in obj or "labels" not in obj:
        raise OutOfRange("stratum needs 'ordinal' and 'labels' fields", got=obj)
    labels = decode(obj["labels"], list, "labels")
    return StratumLabel(
        ordinal_from_json(obj["ordinal"]), tuple(decode(v, int, "label") for v in labels)
    )


def _classify(points: Sequence[Sequence]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(levels, labels) of the stratum of the points, or None when two
    coincide.

    One sort: the labels are the positions sorted by point, and each level
    is the first coordinate where two consecutive sorted points differ;
    equal neighbours are a collision.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    levels = []
    for a, b in zip(order, order[1:]):
        for p, (u, v) in enumerate(zip(points[a], points[b])):
            if u != v:
                levels.append(p)
                break
        else:
            return None
    return tuple(levels), tuple(order)


def classify_stratum(c: Configuration) -> StratumLabel:
    """The labeled n-ordinal whose stratum contains the configuration.

    The labels are the positions sorted by point, and each level is the
    first coordinate where two consecutive sorted points differ.
    """
    levels, order = _classify(c.points)
    return StratumLabel(make_ordinal(c.dim, levels, c.arity), order)


def _sample_points(label: StratumLabel) -> list[tuple]:
    """Coordinates of sample_stratum, as a list of tuples by label."""
    levels = label.ordinal.levels
    coords = [0] * label.ordinal.n
    placed = [()] * len(label.labels)
    for r, lab in enumerate(label.labels):
        if r:
            for j in range(levels[r - 1], len(coords)):
                coords[j] += 1
        placed[lab] = tuple(coords)
    return placed


def sample_stratum(label: StratumLabel) -> Configuration:
    """A deterministic interior point of the stratum, with integer
    coordinates.

    Position r of the sorted order gets coordinate j equal to the number
    of earlier separations at level <= j, so consecutive points first
    differ exactly at their relation level.
    """
    n, k = label.ordinal.n, len(label.labels)
    within_cap(k * n, "too many coordinates to sample", n=n, k=k)
    return Configuration(label.ordinal.n, tuple(_sample_points(label)))


@dataclass
class PartitionReport:
    n: int
    k: int
    trials: int
    universe: int
    observed: int
    tally: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "universe": self.universe,
            "observed": self.observed,
            "tally": dict(sorted(self.tally.items())),
        }


def label_key(label: StratumLabel) -> str:
    return f"{list(label.ordinal.levels)}|{list(label.labels)}"


_DRAWS = 1000  # draws of k points before random_configuration gives up


def random_configuration(rng, n: int, k: int) -> Configuration:
    """Uniform points on a small integer grid, rejecting coincidences.

    The grid is kept coarse on purpose: ties in leading coordinates are
    what populate the deeper strata.  After ``_DRAWS`` draws with a
    coincidence, ResourceLimit is raised.
    """
    for _ in range(_DRAWS):
        pts = tuple(
            tuple(rng.randint(0, k) for _ in range(n)) for _ in range(k)
        )
        if len(set(pts)) == k:
            return Configuration(n, pts)
    raise ResourceLimit(
        "could not draw pairwise distinct points", attempts=_DRAWS, n=n, k=k
    )


def verify_partition(n: int, k: int, trials: int, seed: int = 0) -> PartitionReport:
    """Classify seeded random configurations and tally the strata seen.

    Every draw lands in exactly one stratum; the tally is measured against
    the full label universe of size n^(k-1) * k!.
    """
    if n < 1 or k < 0 or trials < 0:
        raise OutOfRange("need n >= 1, k >= 0, trials >= 0", n=n, k=k, trials=trials)
    # log2 of k!, or past where count_log2 leaves floats the int k! >= 2^(k-1)
    fact_log2 = math.lgamma(k + 1) / math.log(2) if k.bit_length() <= 64 else k - 1
    universe = printable_by_log2(
        count_log2(n, k) + fact_log2, lambda: count_ordinals(n, k) * math.factorial(k),
        "universe",
    )
    within_cap(trials * k * n, "too many coordinates to draw", n=n, k=k, trials=trials)
    tally: dict[str, int] = {}
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        config = random_configuration(rng, n, k)
        key = label_key(classify_stratum(config))
        tally[key] = tally.get(key, 0) + 1
    return PartitionReport(n, k, trials, universe, len(tally), tally)


def _evidence(label: StratumLabel) -> tuple[tuple, list[tuple] | None, list[tuple] | None]:
    """The (levels, labels) of the label, its sample points, and those
    points scaled by 2^7 - 1; None in place of both when the sample does
    not classify back into the label."""
    want = (label.ordinal.levels, label.labels)
    points = _sample_points(label)
    if _classify(points) != want:
        return want, None, None
    return want, points, [tuple((2**7 - 1) * a for a in p) for p in points]


def degeneration_failures(
    elements: Sequence[StratumLabel], covers: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs (i, j) of covers, in their order, for which the numeric
    evidence that elements[j] lies in the closure of elements[i] fails.

    The evidence walks the straight segment from a lower sample point to an
    upper sample point and checks that its points at t = 1, 1/2, .., 1/128
    lie in the upper stratum.  A stratum is an intersection of hyperplanes
    (consecutive sorted points agree below their level) and open
    half-spaces (they increase at it), so it is convex: the 8 points lie
    in it exactly when the two ends, t = 1 and t = 1/128, do.  The end
    t = 1 is the upper sample itself, so each element that a cover reads
    is sampled, and its sample classified back into it, once; a cover
    reading an element whose sample fails fails.  Each cover then
    classifies its end t = 1/128, scaled by 2^7 as the integer point
    2^7 * low + (high - low); scaling by a positive number keeps a
    configuration in its stratum.  Each sample is kept scaled by 2^7 - 1
    as well, so a cover only adds its upper sample to its lower one.
    Plain integer tuples are classified with the classifier of
    classify_stratum and compared with the upper (levels, labels); no
    configuration or label is built along the way.  This is a falsifier
    on convex cells, not a proof: a cover fails when an end leaves the
    upper stratum, two points collide there, or its two elements are
    equal.  Elements that no cover reads are not sampled.  A cover whose
    elements differ in dimension or number of points raises
    DimensionMismatch before anything is sampled.
    """
    for i, j in covers:
        upper, lower = elements[i], elements[j]
        if (
            upper.ordinal.n != lower.ordinal.n
            or upper.ordinal.arity != lower.ordinal.arity
        ):
            raise DimensionMismatch(
                "strata must share the dimension and the number of points",
                upper=upper.to_json(),
                lower=lower.to_json(),
            )
    evidence = {x: _evidence(elements[x]) for x in {x for cover in covers for x in cover}}
    failed = []
    for i, j in covers:
        want, high, _ = evidence[i]
        key, _, lifted = evidence[j]
        if high is None or lifted is None or want == key:
            failed.append((i, j))
            continue
        # the end t = 1/128 scaled by 2^7: (2^7 - 1) * low + high
        end = [tuple(map(operator.add, p, q)) for p, q in zip(lifted, high)]
        if _classify(end) != want:
            failed.append((i, j))
    return failed


def degeneration_check(upper: StratumLabel, lower: StratumLabel) -> bool:
    """Numeric evidence that the lower stratum lies in the closure of the
    upper one: degeneration_failures on the one cover (upper, lower).

    Both elements are sampled and self-checked, and the cover gets its one
    classification at s = 7; False when an end leaves the upper stratum,
    two points collide there, or the strata are equal.  Strata that differ
    in dimension or number of points raise DimensionMismatch.
    """
    return not degeneration_failures((upper, lower), ((0, 1),))
