"""Reports pinned byte for byte.

The digests are sha256 of CLI stdout, and of the JSON of axiom reports of
operads with corrupted tables.  They were taken before the multiplication
tables and the equivariance checks were given one code path each, so any
change to a report, a witness or an instance string shows here.  The
corrupted reports together name every failure-instance form: associativity,
both unit laws, rho= and rhos= (symmetric reindexing), letter= and slot=
(braided generators), and both square conditions.
"""

import hashlib
import io
import json
import sys

import pytest

from operadkit.cli import main
from operadkit.operads import (
    BRAIDED,
    MIXED2,
    SYMMETRIC,
    check_operad_axioms,
    orders_operad,
    reflavor,
)
from operadkit.ordinal_maps import OrdinalMap
from operadkit.ordinals import make_ordinal

END = {"builtin": "endomorphism", "set": [0, 1], "bound": 2}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, doc, digest",
    [
        (["operad-check"], {"builtin": "orders", "bound": 3},
         "ee873b4704bd8a5d38ca08454145c01179e285d49b0aad7febe160a635c977b8"),
        (["operad-check"], END,
         "ec21499aafa9024c0058d748116f7099f457bf957dd3f47a5793cf8e5ab446dc"),
        (["operad-check"], {"builtin": "terminal", "flavor": "braided", "bound": 3},
         "b92e9dde1fb709fabb7a706f0d53bf55d7bc89f29bb1028a578b6cb77a721003"),
        (["operad-check"], {"builtin": "terminal", "flavor": "mixed2", "bound": 3},
         "ed39da7b56b6c2a0367ba2b7f9fb45e65c5e94baad1c9fd33883a88efcbee610"),
        (["operad-check"], {"builtin": "terminal", "flavor": "n", "n": 2, "bound": 3},
         "d8d83a8aafa6c0173a915a2f863447b04bde0e51e984520ad66c254e72e944f5"),
        (["desymmetrise", "--n", "3", "--bound", "2"], END,
         "1ccb44b997f5959a90b839f0603b736e9c11c2c2dee992950ff113be58c31153"),
    ],
    ids=["orders", "End{0,1}", "braided", "mixed2", "n=2", "desymmetrise"],
)
def test_cli_stdout_is_pinned(capsys, monkeypatch, argv, doc, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out) == digest


def _line(k):
    return make_ordinal(1, [0] * (k - 1), arity=k)


def _corrupted_orders():
    """orders_operad(3) with one entry reversed in three stored tables."""
    op = orders_operad(3)
    for sigma, key in [
        (OrdinalMap(_line(2), _line(2), (0, 1)), ((1, 0), (0,), (0,))),
        (OrdinalMap(_line(2), _line(1), (0, 0)), ((0,), (1, 0))),
        (OrdinalMap(_line(3), _line(2), (0, 0, 1)), ((0, 1), (1, 0), (0,))),
    ]:
        table = dict(op.mult(sigma))
        table[key] = tuple(reversed(table[key]))
        op.tables[sigma] = table
    return op


@pytest.mark.parametrize(
    "flavor, checked, failures, digest",
    [
        (SYMMETRIC, 341, 42,
         "0b216012a21ddff075a273f374f547ebc98867d1ce704f2538512a4d28ccceec"),
        (BRAIDED, 111, 24,
         "a718b8fcdb7e9588f853453a70610530fae5279d23118584a1f84cc16d20cae4"),
        (MIXED2, 1024, 54,
         "d94aaad84fc47480c3d54b3cf34f53a77b1276e340e1af53b0c8d33f053f3d0a"),
    ],
    ids=["symmetric", "braided", "mixed2"],
)
def test_corrupted_table_reports_are_pinned(flavor, checked, failures, digest):
    report = check_operad_axioms(reflavor(_corrupted_orders(), flavor)).to_json()
    assert (report["checked"], len(report["failures"])) == (checked, failures)
    assert _sha(json.dumps(report, sort_keys=True)) == digest
