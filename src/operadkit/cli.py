"""Batch front end: JSON or flags in, one JSON run report out.

Every invocation prints a single JSON document on stdout (unless ``--dot``
or ``--tree`` asks for a graph or tree rendering) with four fields: the
command name, a digest of the inputs, the outcome, and a command-specific
payload.  Exit codes: 0 when the command succeeded and any checked
property held, 1 when a checked property failed (the payload then carries
a witness sufficient to reproduce the failure through the library), 2 when
the input or usage was invalid (the payload carries a machine-readable
diagnostic).  Stdout is byte-identical across runs for the same command,
arguments, and seed; wall-clock timing goes to stderr only.

The report is written by ``_dumps``, which gives byte for byte what
``json.dumps(report, indent=2, sort_keys=True, default=str)`` gives, by
three paths: an int grid, such as an operad's multiplication tables, is
one ``%``-format; other lists and str-keyed dicts are joined with
``str.join``; the rest goes to ``json.dumps``.  Empty lists and dicts are
the literals ``[]`` and ``{}``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from .braids import BraidWord, braid_from_json, is_trivial
from .errors import (
    DiagramBroken,
    InvariantBroken,
    NotBlockDecomposable,
    OutOfRange,
    WorkbenchError,
    decode,
    printable_by_log2,
    within_cap,
)
from .homology import homology
from .operads import (
    BRAIDED,
    MIXED2,
    N_OPERAD,
    SYMMETRIC,
    check_operad_axioms,
    desymmetrise,
    endomorphism_symmetric_operad,
    operad_from_json,
    operad_to_json,
    orders_operad,
    terminal_operad,
)
from .ordinal_maps import OrdinalMap, compose, factorize, map_fields, map_from_json
from .ordinals import count_log2, count_ordinals, to_tree, unrank
from .quasicat import build_j, build_q, cellular_j, cellular_q, chain_counts, nerve_counts
from .strata import (
    classify_stratum,
    configuration_from_json,
    degeneration_check,
    label_key,
    sample_stratum,
    stratum_from_json,
    verify_partition,
)
from .zigzags import (
    artin_diagram_check,
    braid_of_zigzag,
    split_zigzag,
    zigzag_from_json,
)

DEFAULT_SEED = 0


class CommandFailed(Exception):
    """A checked property failed; the payload holds the witness."""

    def __init__(self, payload: dict):
        super().__init__("checked property failed")
        self.payload = payload


class UsageError(Exception):
    """Bad input or usage; the payload holds the diagnostic."""

    def __init__(self, payload: dict):
        super().__init__("usage error")
        self.payload = payload


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures into the JSON report instead of bare text
    def error(self, message):
        raise _ArgError(message)


# -- small renderers ----------------------------------------------------


def _bracket_tree(t) -> str:
    """Nested-bracket drawing of an ordinal: one bracket per node of its
    level tree (``to_tree``) below the root."""
    if t.arity == 0:
        return "()"
    if t.n == 0:
        return "0"

    def render(node) -> str:
        if isinstance(node, int):
            return str(node)
        return " ".join(f"({render(child)})" for child in node)

    return render(to_tree(t))


def _dot_quasi_category(c) -> str:
    lines = ["digraph Q {"]
    for idx, obj in enumerate(c.objects):
        lines.append(f'  v{idx} [label="{list(obj.levels)}"];')
    for i, j, m in c.non_identity():
        label = ",".join(str(v) for v in m.table)
        lines.append(f'  v{i} -> v{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_poset(p) -> str:
    lines = ["digraph J {"]
    for idx, e in enumerate(p.elements):
        lines.append(f'  v{idx} [label="{label_key(e)}"];')
    for i, j in p.covering_pairs():
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- command handlers ----------------------------------------------------


def _cmd_enumerate(args, doc):
    n, k = args.n, args.k
    count = printable_by_log2(count_log2(n, k), lambda: count_ordinals(n, k), "count")
    if args.offset < 0 or (args.limit is not None and args.limit < 0):
        raise OutOfRange(
            "offset and limit must be non-negative", offset=args.offset, limit=args.limit
        )
    stop = count if args.limit is None else min(args.offset + args.limit, count)
    within_cap(
        max(stop - args.offset, 0) * max(k - 1, 1), "too many ordinals to list", n=n, k=k
    )
    window = [unrank(args.n, args.k, r) for r in range(args.offset, stop)]
    if args.tree:
        lines = [
            f"{args.offset + pos}: levels={list(t.levels)}  {_bracket_tree(t)}"
            for pos, t in enumerate(window)
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    return {
        "n": args.n,
        "k": args.k,
        "count": count,
        "offset": args.offset,
        "ordinals": [t.to_json() for t in window],
    }


def _cmd_check_map(args, doc):
    fields = map_fields(doc)
    try:
        m = OrdinalMap(*fields)
    except WorkbenchError as e:
        raise CommandFailed({"error": e.code, "witness": e.to_json()})
    return {
        "map": m.to_json(),
        "quasibijection": m.is_quasibijection,
        "order_preserving": m.is_order_preserving,
    }


def _cmd_factorize(args, doc):
    m = map_from_json(doc)
    fact = factorize(m)
    recomposed = compose(fact.nu, fact.pi)
    if recomposed.table != m.table:
        raise CommandFailed(
            {"error": "COMPOSE_MISMATCH", "witness": fact.to_json()}
        )
    return {**fact.to_json(), "recomposes": True}


def _cmd_build_q(args, doc):
    c = build_q(args.n, args.k)
    if args.dot:
        return _dot_quasi_category(c)
    return {**c.to_json(), "morphisms": c.morphism_count()}


def _cmd_build_j(args, doc):
    p = build_j(args.n, args.k)
    if args.dot:
        return _dot_poset(p)
    return {**p.to_json(), "covering_pairs": [list(c) for c in p.covering_pairs()]}


def _cmd_nerve(args, doc):
    # the cells are counted, not built, so the boundaries' dd = 0 is not
    # checked here; the library tests check it where the complexes fit
    if args.category == "Q":
        cells = nerve_counts(build_q(args.n, args.k))
    else:
        cells = chain_counts(build_j(args.n, args.k))
    return {
        "category": args.category,
        "n": args.n,
        "k": args.k,
        "cells": cells,
        "euler": sum((-1) ** d * size for d, size in enumerate(cells)),
    }


def _cmd_homology(args, doc):
    cellular = cellular_q if args.category == "Q" else cellular_j
    return homology(cellular(args.n, args.k)).to_json()


def _cmd_braid(args, doc):
    b = braid_from_json(doc)
    # the word is reduced and walked once, inside is_trivial or on first
    # use below, and the invariants reuse both
    trivial = is_trivial(b)
    return {
        "strands": b.strands,
        "word": list(b.word),
        "reduced": list(b.reduced),
        "permutation": list(b.permutation()),
        "writhe": b.exponent_sum(),
        "trivial": trivial,
    }


def _cmd_zigzag(args, doc):
    z = zigzag_from_json(doc)
    return {
        "strands": z.strands,
        "legs": len(z.legs),
        "start": z.start.to_json(),
        "end": z.end.to_json(),
        "braid": braid_of_zigzag(z).to_json(),
    }


def _cmd_split(args, doc):
    blocks = None
    if isinstance(doc, dict) and "zigzag" in doc:
        blocks = doc.get("blocks")
        if blocks is not None:
            blocks = [decode(b, int, "block size") for b in decode(blocks, list, "blocks")]
        doc = doc["zigzag"]
    z = zigzag_from_json(doc)
    try:
        res = split_zigzag(z, blocks)
    except (NotBlockDecomposable, DiagramBroken) as e:
        raise CommandFailed({"error": e.code, "witness": e.to_json()})
    return {**res.to_json(), "braid_class_agrees": True}


def _cmd_artin_check(args, doc):
    BraidWord(args.k, ())  # refuses a negative k as a negative strand count
    # each of the (k-1)(k-2) ordered pairs validates its maps in O(k^2) steps
    steps = (args.k - 1) * (args.k - 2) * args.k**2
    within_cap(steps, "too many steps to certify every generator pair", k=args.k)
    pairs = []
    for i in range(1, args.k):
        for j in range(1, args.k):
            if i == j:
                continue
            try:
                cert = artin_diagram_check(args.k, i, j)
            except DiagramBroken as e:
                raise CommandFailed(
                    {"error": e.code, "i": i, "j": j, "witness": e.to_json()}
                )
            pairs.append(
                {
                    "i": i,
                    "j": j,
                    "relation": cert.relation,
                    "stages": [len(cert.lhs_stages), len(cert.rhs_stages)],
                    "braid": cert.braid.to_json(),
                }
            )
    return {"k": args.k, "count": len(pairs), "pairs": pairs}


_FLAVOR_NAMES = {"symmetric": SYMMETRIC, "braided": BRAIDED, "mixed2": MIXED2}


def _flavor_from(doc):
    """The flavor a builtin document names, with its ``n`` for ``"n"``."""
    name = doc.get("flavor")
    if name is None:
        raise UsageError(
            {"error": "BAD_INPUT", "message": "a flavor is required here"}
        )
    if name == "n":
        return N_OPERAD(decode(doc.get("n"), int, "n"))
    if isinstance(name, str) and name in _FLAVOR_NAMES:
        return _FLAVOR_NAMES[name]
    raise UsageError({"error": "BAD_INPUT", "message": f"unknown flavor {name!r}"})


def _load_operad(doc, args):
    if isinstance(doc, dict) and "command" in doc and "payload" in doc:
        doc = doc["payload"]  # the run report of an earlier command
    if not isinstance(doc, dict):
        raise UsageError(
            {"error": "BAD_INPUT", "message": "expected an operad object"}
        )
    if "builtin" not in doc:
        return operad_from_json(doc)
    name = doc["builtin"]
    bound = doc.get("bound", args.bound)
    bound = None if bound is None else decode(bound, int, "bound")
    if name == "terminal":
        return terminal_operad(_flavor_from(doc), 3 if bound is None else bound)
    if name == "endomorphism":
        values = decode(doc.get("set", [0, 1]), list, "set")
        values = tuple(decode(v, (bool, int, float, str), "set element") for v in values)
        return endomorphism_symmetric_operad(values, 2 if bound is None else bound)
    if name == "orders":
        return orders_operad(3 if bound is None else bound)
    raise UsageError({"error": "BAD_INPUT", "message": f"unknown builtin {name!r}"})


def _cmd_operad_check(args, doc):
    op = _load_operad(doc, args)
    bound = op.bound if args.bound is None else args.bound
    try:
        report = check_operad_axioms(op, bound)
    except InvariantBroken as e:
        raise CommandFailed({"error": e.code, "witness": e.to_json()})
    payload = {"flavor": str(op.flavor), "bound": bound, **report.to_json()}
    if not report.passed:
        raise CommandFailed(payload)
    return payload


def _cmd_desymmetrise(args, doc):
    op = _load_operad(doc, args)
    de = desymmetrise(op, args.n, args.bound)
    return operad_to_json(de)


def _cmd_classify(args, doc):
    config = configuration_from_json(doc)
    label = classify_stratum(config)
    return {"label": label.to_json(), "key": label_key(label)}


def _cmd_sample(args, doc):
    label = stratum_from_json(doc)
    config = sample_stratum(label)
    back = classify_stratum(config)
    if back != label:
        raise CommandFailed(
            {
                "error": "ROUNDTRIP_MISMATCH",
                "witness": {
                    "label": label.to_json(),
                    "configuration": config.to_json(),
                    "classified": back.to_json(),
                },
            }
        )
    return {
        "label": label.to_json(),
        "configuration": config.to_json(),
        "roundtrip": True,
    }


def _cmd_verify_partition(args, doc):
    report = verify_partition(args.n, args.k, args.trials, args.seed)
    payload = report.to_json()
    if report.observed > report.universe:
        raise CommandFailed({**payload, "error": "PARTITION_OVERFLOW"})
    return payload


def _cmd_degeneration(args, doc):
    p = build_j(args.n, args.k)
    covers = p.covering_pairs()
    failures = []
    for i, j in covers:
        upper, lower = p.elements[i], p.elements[j]
        if not degeneration_check(upper, lower):
            failures.append({"upper": upper.to_json(), "lower": lower.to_json()})
    payload = {
        "n": args.n,
        "k": args.k,
        "covering_pairs": len(covers),
        "failures": failures,
    }
    if failures:
        raise CommandFailed(payload)
    return payload


# -- plumbing -------------------------------------------------------------


def _add_nk(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="operadkit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, payload=False):
        sub = subs.add_parser(name)
        sub.set_defaults(handler=handler)
        if payload:
            sub.add_argument(
                "source",
                nargs="?",
                default="-",
                help="path of a JSON document, or - for stdin",
            )
        return sub

    sub = command("enumerate", _cmd_enumerate)
    _add_nk(sub)
    sub.add_argument("--offset", type=int, default=0)
    sub.add_argument("--limit", type=int, default=None)
    sub.add_argument("--tree", action="store_true")

    command("check-map", _cmd_check_map, payload=True)
    command("factorize", _cmd_factorize, payload=True)

    for name, handler in (("build-q", _cmd_build_q), ("build-j", _cmd_build_j)):
        sub = command(name, handler)
        _add_nk(sub)
        sub.add_argument("--dot", action="store_true")

    for name, handler in (("nerve", _cmd_nerve), ("homology", _cmd_homology)):
        sub = command(name, handler)
        _add_nk(sub)
        sub.add_argument("--category", choices=("Q", "J"), required=True)

    command("braid", _cmd_braid, payload=True)
    command("zigzag", _cmd_zigzag, payload=True)
    command("split", _cmd_split, payload=True)

    sub = command("artin-check", _cmd_artin_check)
    sub.add_argument("--k", type=int, required=True)

    sub = command("operad-check", _cmd_operad_check, payload=True)
    sub.add_argument("--bound", type=int, default=None)

    sub = command("desymmetrise", _cmd_desymmetrise, payload=True)
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--bound", type=int, default=None)

    command("classify", _cmd_classify, payload=True)
    command("sample", _cmd_sample, payload=True)

    sub = command("verify-partition", _cmd_verify_partition)
    _add_nk(sub)
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sub = command("degeneration", _cmd_degeneration)
    _add_nk(sub)

    return parser


def _read_doc(args):
    path = getattr(args, "source", None)
    if path is None:
        return None
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except OSError as e:
        raise UsageError({"error": "NO_SUCH_FILE", "path": path, "message": str(e)})
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError({"error": "BAD_JSON", "message": str(e)})


def _digest(argv, doc) -> str:
    blob = json.dumps(
        {"argv": list(argv), "input": doc},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _grid(rows, pad) -> str | None:
    """``rows``, a non-empty list of lists, as one ``%``-format if it is an
    int grid: its items equally long, non-empty lists, nested to any
    depth, with every leaf of exact type int.  None for anything else,
    decided from the first leaf before anything is flattened."""
    first = rows
    while type(first) is list and first:
        first = first[0]
    if type(first) is not int:
        return None
    shape = [len(rows)]
    level, kinds = rows, {list}
    while kinds == {list}:
        width = len(level[0])
        if not all(map(width.__eq__, map(len, level))):
            return None
        shape.append(width)
        level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
    if kinds != {int}:
        return None
    layout = "%d"
    for depth in reversed(range(len(shape))):
        inner = pad + "  " * (depth + 1)
        layout = f"[{inner}{(',' + inner).join([layout] * shape[depth])}{inner[:-2]}]"
    return layout % tuple(level)


def _dumps(value, pad="\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=str)``, byte
    for byte, with ``pad`` (a newline and the indent of ``value``) opening
    each of its lines after the first.

    Empty lists and dicts are the literals ``[]`` and ``{}``.  An int grid
    (see ``_grid``) is one ``%``-format.  Other non-empty lists and
    str-keyed dicts, strs and ints are joined here, each container by one
    ``str.join``.  Everything else goes to ``json.dumps`` (whose ``indent``
    selects the stdlib's pure-Python encoder), re-indented by replacing its
    newlines, which encoded JSON holds nowhere else."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if (kind is list or kind is dict) and not value:
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    if kind is list:
        kinds = set(map(type, value))
        if kinds == {list} and (grid := _grid(value, pad)) is not None:
            return grid
        if kinds == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_dumps(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if kind is dict and set(map(type, value)) == {str}:
        items = [
            f"{_encode_str(k)}: {_dumps(v, inner)}" for k, v in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    return json.dumps(value, indent=2, sort_keys=True, default=str).replace("\n", pad)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    command = argv[0] if argv else ""
    doc = None
    outcome, exit_code, payload = "PASS", 0, {}
    text = None
    try:
        try:
            args = _build_parser().parse_args(argv)
        except _ArgError as e:
            raise UsageError({"error": "USAGE", "message": str(e)})
        doc = _read_doc(args)
        result = args.handler(args, doc)
        if isinstance(result, str):
            text = result
        else:
            payload = result
    except CommandFailed as e:
        outcome, exit_code, payload = "FAIL", 1, e.payload
    except UsageError as e:
        outcome, exit_code, payload = "ERROR", 2, e.payload
    except WorkbenchError as e:
        outcome, exit_code = "ERROR", 2
        payload = {"error": e.code, "diagnostic": e.to_json()}

    if text is not None:
        sys.stdout.write(text)
    else:
        report = {
            "command": command,
            "inputs": _digest(argv, doc),
            "outcome": outcome,
            "payload": payload,
        }
        sys.stdout.write(_dumps(report) + "\n")
    wall_ms = (time.perf_counter() - started) * 1000.0
    print(f"wall_ms={wall_ms:.1f}", file=sys.stderr)
    return exit_code
