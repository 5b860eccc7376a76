"""Exception hierarchy for the workbench.

Every failure mode that callers are expected to branch on gets its own
class with a stable ``code`` string.  The CLI serialises the code and the
structured payload; library users can catch the classes directly.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable


class WorkbenchError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "WORKBENCH_ERROR"

    def __init__(self, message: str, **payload: Any):
        super().__init__(message)
        self.message = message
        self.payload = dict(payload)

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, **self.payload}


class LevelOutOfDomain(WorkbenchError):
    code = "LEVEL_OUT_OF_DOMAIN"


class OutOfRange(WorkbenchError):
    code = "OUT_OF_RANGE"


class DomainMismatch(WorkbenchError):
    code = "DOMAIN_MISMATCH"


class ResourceLimit(WorkbenchError):
    code = "RESOURCE_LIMIT"


class MalformedTree(WorkbenchError):
    code = "MALFORMED_TREE"


class NotAMorphism(WorkbenchError):
    code = "NOT_A_MORPHISM"

    def __init__(self, message: str, pair: tuple, **payload: Any):
        super().__init__(message, pair=list(pair), **payload)
        self.pair = pair


class ComposeMismatch(WorkbenchError):
    code = "COMPOSE_MISMATCH"


class InvariantBroken(WorkbenchError):
    code = "INVARIANT_BROKEN"


class AntisymmetryViolation(WorkbenchError):
    code = "ANTISYMMETRY_VIOLATION"


class EndoFound(WorkbenchError):
    code = "ENDO_FOUND"


class StrictnessRequired(WorkbenchError):
    code = "STRICTNESS_REQUIRED"


class StrandMismatch(WorkbenchError):
    code = "STRAND_MISMATCH"


class LengthMismatch(WorkbenchError):
    code = "LENGTH_MISMATCH"


class NotQuasibijection(WorkbenchError):
    code = "NOT_QUASIBIJECTION"


class EndpointMismatch(WorkbenchError):
    code = "ENDPOINT_MISMATCH"


class DiagramBroken(WorkbenchError):
    code = "DIAGRAM_BROKEN"


class NotBlockDecomposable(WorkbenchError):
    code = "NOT_BLOCK_DECOMPOSABLE"


class BadDocument(WorkbenchError):
    code = "BAD_DOCUMENT"


def decode(value, kind, what: str, size: int | None = None):
    """Return a value read from a JSON document if it has the expected shape.

    ``kind`` is a type or tuple of types; a bool passes only when ``bool``
    is among them, never as an int.  With ``size``, an int must be an index
    below it and a list must have exactly that length.  Anything else, a
    missing field (None) included, raises BadDocument naming ``what``.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    ok = isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))
    if ok and size is not None:
        ok = len(value) == size if isinstance(value, list) else 0 <= value < size
    if not ok:
        raise BadDocument(f"bad {what}", field=what, got=repr(value)[:80])
    return value


# The one work budget, read only by within_cap: the most candidate maps
# build_q tests, ordered pairs of J's elements (they bound the bits of
# build_j's below masks), cells of a nerve, artin-check steps, strands a
# braid document names, the product tables that enumerate_maps walks for
# the surjections between index ordinals, entries of the longest list an
# axiom check builds (a table, or one side of an associativity instance)
# and table entries an operad document holds.
# End{0,1} at bound 3 needs 2**20 entries; terminal N_OPERAD(2) at bound 5
# tests 967,423 candidates.
LIST_CAP = 2**24


def within_cap(predicted: int, message: str, **where: Any) -> int:
    """Return a prediction of work if it is within LIST_CAP; past the cap,
    raise ResourceLimit with ``message``, ``where``, the prediction and the cap."""
    if predicted > LIST_CAP:
        raise ResourceLimit(message, **where, predicted=predicted, cap=LIST_CAP)
    return predicted


def printable(value: int, what: str) -> int:
    """Return an integer a report will hold if it can be printed.

    Python turns an int of more decimal digits than
    ``sys.get_int_max_str_digits()`` into no text at all, so such a value
    raises ResourceLimit naming ``what``, its bit length and the digit
    limit, before any report is built.  The limit itself is left alone.
    """
    limit = _digit_limit()
    if limit and abs(value) >= 10**limit:
        raise _too_long(what, value.bit_length(), limit)
    return value


def printable_by_log2(log2: float | int, form: Callable[[], int], what: str) -> int:
    """``printable(form(), what)``, decided first from ``log2``, the base-2
    logarithm of the value's magnitude (0 for 0), or an int below it where
    the value is too large for a float to hold its logarithm.

    A value more than a few bits past the digit limit is refused from
    ``log2`` alone, with floor(log2) + 1 as its bit length, and is never
    formed: a power or factorial of millions of digits takes seconds to
    form.  Nearer the limit ``form`` is called and ``printable`` decides.
    """
    limit = _digit_limit()
    if limit and log2 > limit * math.log2(10) + 4:
        raise _too_long(what, math.floor(log2) + 1, limit)
    return printable(form(), what)


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(what: str, bits: int, limit: int) -> ResourceLimit:
    return ResourceLimit("integer too long to print", field=what, bits=bits, max_digits=limit)


class MissingTable(WorkbenchError):
    code = "MISSING_TABLE"


class BoundExceeded(WorkbenchError):
    code = "BOUND_EXCEEDED"


class NotQuasisymmetric(WorkbenchError):
    code = "NOT_QUASISYMMETRIC"


class RelationFailed(WorkbenchError):
    code = "RELATION_FAILED"


class EqualPoints(WorkbenchError):
    code = "EQUAL_POINTS"


class DimensionMismatch(WorkbenchError):
    code = "DIMENSION_MISMATCH"
