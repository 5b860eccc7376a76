"""Reports pinned byte for byte.

The digests are sha256 of CLI stdout, and of the JSON of axiom reports of
operads with corrupted tables.  They were taken before the multiplication
tables and the equivariance checks were given one code path each, so any
change to a report, a witness or an instance string shows here.  The End{0,1} digests (``desymmetrise`` at bound 3,
the check of the desymmetrised n=8 bundle and the corrupted End{0,1}
bundles) were taken while carriers were still element tuples and tables
dicts keyed by tuples of them, so they pin the decoding of witnesses at
the edge and their sort order.  The
``nerve`` and ``homology`` digests, and the position at which a boundary
with one flipped sign is rejected, were taken from the dense homology
engine that the sparse one replaced.  The
corrupted reports together name every failure-instance form: associativity,
both unit laws, rho= and rhos= (symmetric reindexing), letter= and slot=
(braided generators), and both square conditions.  The reports at bounds 4
and 5 were taken while each square check still enumerated the verticals and
the second horizontal of every candidate square inside its loops.  The
terminal n-operad reports, the corrupted desymmetrised End{0,1} report and
the nerve boundary columns were taken while the associativity check still
rebuilt each restriction and composite as a validated map, and while nerve
cells were tuples of maps whose inner faces were composed anew; so were
the reports of bundles with one table missing.
"""

import hashlib
import io
import json
import sys

import pytest

from operadkit.cli import main
from operadkit.errors import InvariantBroken
from operadkit.homology import ChainComplex
from operadkit.operads import (
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
    reflavor,
    terminal_operad,
)
from operadkit.ordinal_maps import OrdinalMap
from operadkit.ordinals import make_ordinal
from operadkit.quasicat import build_j, build_q, nerve, order_complex

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
        (["desymmetrise", "--n", "2", "--bound", "3"], {**END, "bound": 3},
         "b9bcaa4afd5298c83a1126ae0c56445c38d5dda86f5867e358bc35c3d518e835"),
    ],
    ids=["orders", "End{0,1}", "braided", "mixed2", "n=2", "desymmetrise",
         "desymmetrise bound 3"],
)
def test_cli_stdout_is_pinned(capsys, monkeypatch, argv, doc, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "category, n, k, nerve_digest, homology_digest",
    [
        ("Q", 3, 2, "f2380fed983942c1b5c96aa7a8c751dfd50321fad5d037368b660f57c0b29b3b",
         "a1a70b3fff04c6400a907d8fd414272c8e1a90cc958fcd19713360773e88d527"),
        ("Q", 2, 4, "79b95c1318ac4026fe40b1ba158cf9c730b5831b966ee3bf0f2f10c518fd2556",
         "0954bbefd5b4cb2195e87005c9b9b7a85149fe7a1ce01ac992664d9c6cb42408"),
        ("Q", 3, 3, "962c735ff6cb4ae00a2c148473924731ff44394a4c50956fa4c3c3a0ac20705b",
         "60fc10b8f64fd1bd23b5227a4462552a24ba55ef84ef2236754133fb5f076893"),
        ("J", 2, 3, "3aef10d86f075f034619fa8dfbf6c2cd28ff5236c03a153d9c76db666ced2543",
         "d7fd711edcfae342b93352c6209317fca4d4e417c9a683a24ccf689ec749458c"),
        ("J", 6, 2, "1154c2798469a13dc4d46036c99705faf214a05c7dea32d8126402f168ec46b6",
         "59506a0c58c6699450c4063dda4d410889516338fcc0054842c46847209fb32d"),
    ],
    ids=["Q(3,2)", "Q(2,4)", "Q(3,3)", "J(2,3)", "J(6,2)"],
)
def test_complex_stdout_is_pinned(capsys, category, n, k, nerve_digest, homology_digest):
    for command, digest in (("nerve", nerve_digest), ("homology", homology_digest)):
        argv = [command, "--n", str(n), "--k", str(k), "--category", category]
        assert main(argv) == 0
        assert _sha(capsys.readouterr().out) == digest, command


@pytest.mark.parametrize(
    "dim, col, drop, row, failing_dim, failing_col",
    [(1, 30, 0, 6, 2, 10), (2, 100, 1, 2, 2, 100), (3, 150, 3, 13, 3, 150),
     (4, 170, 2, 89, 4, 170), (5, 40, 4, 86, 5, 40)],
)
def test_flipped_face_sign_is_located(dim, col, drop, row, failing_dim, failing_col):
    """The order complex of J(6,2) with the sign of one face of one cell
    flipped: the first offending column, then its lowest offending row."""
    cells = order_complex(build_j(6, 2)).cells
    flipped = cells[dim][col]

    def face_list(d, cell):
        if d == 0:
            return []
        faces = cell[::-1] if d == 1 else [cell[:i] + cell[i + 1 :] for i in range(d + 1)]
        return [
            (-((-1) ** i) if (cell == flipped and i == drop) else (-1) ** i, face)
            for i, face in enumerate(faces)
        ]

    with pytest.raises(InvariantBroken) as info:
        ChainComplex.from_cells(cells, face_list)
    assert info.value.payload == {"dim": failing_dim, "row": row, "col": failing_col}


def _line(k):
    return make_ordinal(1, [0] * (k - 1), arity=k)


def _corrupted_orders(bound=3):
    """orders_operad(bound) with one entry reversed in three stored tables."""
    op = orders_operad(bound)
    orders = [op.collection.decoding(k) for k in range(3)]
    for sigma, key in [
        (OrdinalMap(_line(2), _line(2), (0, 1)), ((1, 0), (0,), (0,))),
        (OrdinalMap(_line(2), _line(1), (0, 0)), ((0,), (1, 0))),
        (OrdinalMap(_line(3), _line(2), (0, 0, 1)), ((0, 1), (1, 0), (0,))),
    ]:
        table = list(op.mult(sigma))
        at = 0
        for order in key:
            at = at * len(orders[len(order) - 1]) + orders[len(order) - 1].index(order)
        source = orders[sigma.source.arity - 1]
        table[at] = source.index(tuple(reversed(source[table[at]])))
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


@pytest.mark.parametrize(
    "operad, checked, failures, digest",
    [
        (lambda: terminal_operad(MIXED2, 4), 2647, 0,
         "7db5c0873779e34ebc0866273f9f89330998ce17025bd2c131703f240cc11604"),
        (lambda: orders_operad(5), 156053, 0,
         "5d62d8fe95f4eb76f7d59b3d669b43444dcd6088b9b29a11b811ebc749fa5716"),
        (lambda: reflavor(orders_operad(4), MIXED2), 38688, 0,
         "d4f8970bf596f16b68e8d2dafa833b9b28bd3538295f38a8547f392c1dfa5f0d"),
        (lambda: reflavor(_corrupted_orders(4), SYMMETRIC), 5869, 139,
         "2ac300fc8f83731c0dc916b334aeccb35743acca26aff72bec344d916d905e13"),
        (lambda: reflavor(_corrupted_orders(4), MIXED2), 38688, 151,
         "12ee3f1c6dc9945696310e437207cac6c732bcc41fb06cfc7ae2350132be1576"),
    ],
    ids=["terminal mixed2", "orders", "orders mixed2", "corrupted symmetric",
         "corrupted mixed2"],
)
def test_square_checks_at_bound_4_and_5_are_pinned(operad, checked, failures, digest):
    """Square conditions on corners of arity 4 (2-ordinals in the mixed
    flavor) and 5 (lines), where the bound-3 reports above never reach."""
    report = check_operad_axioms(operad()).to_json()
    assert (report["checked"], len(report["failures"])) == (checked, failures)
    assert _sha(json.dumps(report, sort_keys=True)) == digest


def _end_bundle_with(edits):
    """The End{0,1} bundle at bound 2 with some entries set to new indices."""
    doc = operad_to_json(endomorphism_symmetric_operad((0, 1), 2))
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, code, digest",
    [
        (lambda: operad_to_json(
            desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 8, 2)), 0,
         "109d0c1374665b5647163b7ff6095a3faba2a957762a89f093493f35dee1e30d"),
        # two mult entries, and two fixed points of the swap action
        # exchanged, which leaves the action an involution
        (lambda: _end_bundle_with([
            (("mult", "2:0>1:|0,0", 1, 5), 3),
            (("mult", "2:0>2:0|0,1", 3, 1, 2), 7),
            (("actions", "2:0|1", 6), 9),
            (("actions", "2:0|1", 9), 6),
        ]), 1, "6d648f2ade1d659fce969d7e04be0326f8740739d904df6add05a871557e0db7"),
        # an action entry that is no involution: rejected before any instance
        (lambda: _end_bundle_with([(("actions", "2:0|1", 5), 2)]), 1,
         "3c42b9826fdc57a66d92e27c1d2b82448547f4e11f7cd0c1fcde5477f8a47e91"),
    ],
    ids=["desymmetrised n=8", "corrupted End{0,1}", "corrupted End{0,1} action"],
)
def test_operad_check_of_end_bundles_is_pinned(capsys, monkeypatch, doc, code, digest):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc())))
    assert main(["operad-check"]) == code
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "n, checked, digest",
    [
        (2, 3663, "4e6a9b09d1c72718feca743108246116a985b3f2de0f160a26acaf572beb8cc2"),
        (3, 85588, "302ca58394905e9692ab75cdf4a69fdb254957f17cee5797ae02993bc273696b"),
    ],
    ids=["n=2", "n=3"],
)
def test_terminal_n_operad_reports_at_bound_4_are_pinned(n, checked, digest):
    report = check_operad_axioms(terminal_operad(N_OPERAD(n), 4)).to_json()
    assert (report["checked"], report["passed"]) == (checked, True)
    assert _sha(json.dumps(report, sort_keys=True)) == digest


def test_corrupted_desymmetrised_report_is_pinned():
    """desymmetrise(End{0,1}) as 3-operads with three table entries changed:
    every failure is an associativity instance over 3-ordinal fibers."""
    op = desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 3, 2)
    point = make_ordinal(3, (), arity=1)
    pair = [make_ordinal(3, (p,)) for p in range(3)]
    for sigma, at, value in [
        (OrdinalMap(pair[1], point, (0, 0)), 5, 9),
        (OrdinalMap(pair[0], pair[2], (1, 0)), 3, 12),
        (OrdinalMap(pair[2], pair[2], (0, 1)), 40, 1),
    ]:
        table = list(op.mult(sigma))
        table[at] = value
        op.tables[sigma] = table
    report = check_operad_axioms(op).to_json()
    assert (report["checked"], len(report["failures"])) == (87976, 407)
    assert {f["axiom"] for f in report["failures"]} == {"associativity"}
    assert _sha(json.dumps(report, sort_keys=True)) == (
        "ca418b46c2309c57aa5b34e8e236d765653dc0cc444f23c29fb689ddb5dcfee6"
    )


@pytest.mark.parametrize(
    "n, k, sizes, digest",
    [
        (3, 3, [9, 96, 344, 448, 192],
         "51b1b58889b30b70f17551b91501daf73e33094ada1918dbdf15c5ed3f3216e0"),
        (2, 5, [16, 832, 4128, 6192, 2880],
         "6014f22681881ce1d0822adfe58b7df587e486a759c2dc10e9df979ff66703b2"),
    ],
    ids=["Q(3,3)", "Q(2,5)"],
)
def test_nerve_boundary_columns_are_pinned(n, k, sizes, digest):
    """Each boundary column as its sorted (row, coefficient) items, which
    fixes the cell order and the faces whatever the cells are made of."""
    complex_ = nerve(build_q(n, k))
    assert [len(layer) for layer in complex_.cells] == sizes
    columns = [[sorted(col.items()) for col in b] for b in complex_.boundaries[1:]]
    assert _sha(json.dumps(columns)) == digest


@pytest.mark.parametrize(
    "make, dropped, checked, digest",
    [
        (lambda: orders_operad(3), "2:0>1:|0,0", 309,
         "4f0c70b422971bf9cf8bae9d641c97841ec429d005db9d3d31fdf84806f354fc"),
        (lambda: orders_operad(3), "1:>1:|0", 304,
         "b3a397bf14ba238bed342014cc6c95825ff844e4ef1b63acc2fc87ec9ae988c8"),
        (lambda: desymmetrise(orders_operad(3), 2, 3), "2:1>1:|0,0", 841,
         "e12bba5f53fa68590497237aa999ce0140cfdfa2268af565fe22d75724d57339"),
    ],
    ids=["orders", "orders unit", "desymmetrised orders"],
)
def test_reports_with_a_missing_table_are_pinned(make, dropped, checked, digest):
    """A bundle without one table: the report names it as the only failure,
    and every instance that needs it, as composite or as restriction, is
    skipped."""
    doc = operad_to_json(make())
    del doc["mult"][dropped]
    report = check_operad_axioms(operad_from_json(doc)).to_json()
    assert report["checked"] == checked
    assert report["failures"] == [{"axiom": "coverage", "instance": dropped, "witness": []}]
    assert _sha(json.dumps(report, sort_keys=True)) == digest
