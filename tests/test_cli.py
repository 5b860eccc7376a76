"""End-to-end tests for the batch command line interface."""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference

from operadkit import cli, strata, zigzags
from operadkit.braids import BraidWord
from operadkit.cli import _build_parser, _dumps, main
from operadkit.errors import DiagramBroken, ResourceLimit, printable, printable_by_log2
from operadkit.operads import (
    N_OPERAD,
    Grid,
    desymmetrise,
    endomorphism_symmetric_operad,
    operad_document,
    operad_to_json,
    orders_operad,
    terminal_operad,
)
from operadkit.ordinal_maps import OrdinalMap
from operadkit.ordinals import make_ordinal
from operadkit.quasicat import build_j
from operadkit.strata import stratum_from_json
from operadkit.zigzags import ZigZag


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report_of(out: str) -> dict:
    return json.loads(out)


def test_enumerate_counts_and_shape(capsys):
    code, out, err = run_cli(["enumerate", "--n", "2", "--k", "3"], capsys)
    assert code == 0
    rep = report_of(out)
    assert rep["command"] == "enumerate"
    assert rep["outcome"] == "PASS"
    assert rep["payload"]["count"] == 4
    assert len(rep["payload"]["ordinals"]) == 4
    assert {"command", "inputs", "outcome", "payload"} <= set(rep)
    assert "wall_ms=" in err


def test_enumerate_pagination(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "2", "--k", "4", "--offset", "2", "--limit", "2"],
        capsys,
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["count"] == 8
    assert [o["levels"] for o in payload["ordinals"]] == [[0, 1, 0], [0, 1, 1]]

    # the window is streamed and the count comes from the formula, so a
    # page of 9^11 ordinals is as quick as a page of 8
    started = time.perf_counter()
    code, out, _ = run_cli(["enumerate", "--n", "9", "--k", "12", "--limit", "1"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["count"] == 31381059609
    assert [o["levels"] for o in payload["ordinals"]] == [[0] * 11]


@pytest.mark.parametrize(
    "tree, digest",
    [
        ([], "26762451b4fb72c70d19cccaddc7879a047deb5c96506add12e477f98308f51f"),
        (["--tree"], "f4c2791c8ca0dfdd6d46aeef8c21c9695858ca28969a52c0ef15299028c2ecb4"),
    ],
    ids=["json", "tree"],
)
def test_enumerate_page_starts_at_its_rank(capsys, tree, digest):
    # the digests were taken while the page was reached by walking every
    # ordinal before it, which took about 15 s
    argv = ["enumerate", "--n", "9", "--k", "12", "--offset", "3000000", "--limit", "1"]
    started = time.perf_counter()
    code, out, _ = run_cli([*argv, *tree], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "2", "--k", "3", "--limit", "-1"],
        ["--n", "2", "--k", "3", "--offset", "-2", "--tree"],
        ["--n", "2", "--k", "-1"],
        ["--n", "2", "--k", "-1", "--limit", "0"],
        ["--n", "-1", "--k", "2", "--limit", "0"],
    ],
)
def test_enumerate_rejects_negative_inputs(capsys, flags):
    code, out, _ = run_cli(["enumerate", *flags], capsys)
    assert code == 2
    assert report_of(out)["payload"]["error"] == "OUT_OF_RANGE"


_SRC = str(Path(__file__).resolve().parents[1] / "src")

# a symmetric bundle whose arity-2 carrier is empty: its tables have a
# dimension of length 0, and every instance through them is vacuous
_EMPTY_CARRIER_DOC = {
    "flavor": "symmetric", "n": None, "bound": 2, "unit": 0,
    "carriers": {"1:": ["e"], "2:0": []}, "actions": {"2:0|1": []},
    "mult": {"1:>1:|0": [[0]], "2:0>1:|0,0": [[]], "2:0>2:0|0,1": []},
}


@pytest.mark.parametrize(
    "argv, stdin_text, code, outcome",
    [
        (["enumerate", "--n", "2", "--k", "3"], "", 0, "PASS"),
        (
            ["check-map"],
            json.dumps({
                "source": {"n": 2, "levels": [1]},
                "target": {"n": 2, "levels": [0]},
                "f": [1, 0],
            }),
            1,
            "FAIL",
        ),
        (["enumerate", "--n", "2", "--k", "-1"], "", 2, "ERROR"),
        (["desymmetrise", "-"], json.dumps({"builtin": "terminal", "bound": 2}), 2, "ERROR"),
        (["operad-check", "-"], json.dumps(_EMPTY_CARRIER_DOC), 0, "PASS"),
    ],
)
def test_module_entry_point_exit_codes(argv, stdin_text, code, outcome):
    # the installed entry point, python -m operadkit, in its own process
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "operadkit", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == argv[0]
    assert report["outcome"] == outcome


def test_enumerate_tree_mode_is_text(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "2", "--k", "3", "--tree"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("0: levels=[0, 0]")
    assert "(" in lines[0]


def test_stdout_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(["homology", "--n", "2", "--k", "3", "--category", "Q"], capsys)
    _, second, _ = run_cli(["homology", "--n", "2", "--k", "3", "--category", "Q"], capsys)
    assert first == second


def test_check_map_pass(capsys, monkeypatch):
    doc = {
        "source": {"n": 2, "levels": [0]},
        "target": {"n": 2, "levels": [1]},
        "f": [1, 0],
    }
    code, out, _ = run_cli(
        ["check-map"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["quasibijection"] is True
    assert payload["order_preserving"] is False


def test_check_map_fail_has_witness(capsys, monkeypatch):
    doc = {
        "source": {"n": 2, "levels": [1]},
        "target": {"n": 2, "levels": [0]},
        "f": [1, 0],
    }
    code, out, _ = run_cli(
        ["check-map"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "FAIL"
    assert rep["payload"]["error"] == "NOT_A_MORPHISM"
    assert rep["payload"]["witness"]["pair"] == [0, 1]


@pytest.mark.parametrize(
    "command, doc, field",
    [
        (
            "check-map",
            {"source": {"n": True, "levels": []}, "target": {"n": True, "levels": []}, "f": [0]},
            "n",
        ),
        (
            "check-map",
            {"source": {"n": 2, "k": True, "levels": []}, "target": {"n": 2, "levels": []}, "f": [0]},
            "arity",
        ),
        ("sample", {"ordinal": {"n": True, "levels": [0]}, "labels": [1, 0]}, "n"),
    ],
    ids=["check-map-n", "check-map-k", "sample-n"],
)
def test_a_bool_n_or_k_is_refused(capsys, monkeypatch, command, doc, field):
    # JSON true is not the int 1
    code, out, _ = run_cli([command], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert diagnostic["code"] == "OUT_OF_RANGE" and diagnostic[field] is True


def _map_doc(n):
    ordinal = {"n": n, "levels": [0]}
    return {"source": ordinal, "target": ordinal, "f": [0, 1]}


@pytest.mark.parametrize(
    "command, doc",
    [("check-map", _map_doc), ("factorize", _map_doc),
     ("zigzag", lambda n: {"legs": [{"dir": "fwd", "map": _map_doc(n)}]})],
    ids=["check-map", "factorize", "zigzag"],
)
def test_a_null_n_is_refused_and_inf_is_read(capsys, monkeypatch, command, doc):
    # a document spells the infinite domain "inf"; None is the library's
    # spelling, and a JSON null is no level-domain size
    code, out, _ = run_cli([command], capsys, monkeypatch, stdin_text=json.dumps(doc(None)))
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "OUT_OF_RANGE",
        "message": "level domain size must be a non-negative integer",
        "n": None,
    }
    code, out, _ = run_cli([command], capsys, monkeypatch, stdin_text=json.dumps(doc("inf")))
    assert code == 0, out


@pytest.mark.parametrize("command", ["check-map", "factorize"])
@pytest.mark.parametrize(
    "doc",
    [{"source": _map_doc(2)["source"], "target": _map_doc(2)["target"]}, [], "map"],
    ids=["no f", "list", "string"],
)
def test_a_map_document_needs_its_three_fields(capsys, monkeypatch, command, doc):
    code, out, _ = run_cli([command], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert diagnostic["code"] == "OUT_OF_RANGE"
    assert diagnostic["message"] == "map object needs 'source', 'target' and 'f' fields"


def test_factorize_command(capsys, monkeypatch):
    doc = {
        "source": {"n": 2, "levels": [0, 1, 0]},
        "target": {"n": 2, "levels": [1]},
        "f": [1, 0, 1, 1],
    }
    code, out, _ = run_cli(
        ["factorize"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["recomposes"] is True
    assert sorted(payload["pi"]["f"]) == [0, 1, 2, 3]
    assert payload["nu"]["f"] == sorted(doc["f"])


def test_build_q_json_and_dot(capsys):
    code, out, _ = run_cli(["build-q", "--n", "2", "--k", "2"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert len(payload["objects"]) == 2
    assert payload["morphisms"] == 4

    code, out, _ = run_cli(["build-q", "--n", "2", "--k", "2", "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph Q {")
    assert "v0 -> v1" in out


def test_build_j_json_and_dot(capsys):
    code, out, _ = run_cli(["build-j", "--n", "2", "--k", "2"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert len(payload["elements"]) == 4
    assert len(payload["covering_pairs"]) == 4

    code, out, _ = run_cli(["build-j", "--n", "2", "--k", "2", "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph J {")


def test_nerve_command(capsys):
    code, out, _ = run_cli(["nerve", "--n", "3", "--k", "2", "--category", "Q"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["cells"][0] == 3
    assert payload["euler"] == 1


@pytest.mark.parametrize(
    "category, cells, betti",
    [("Q", [27, 1462, 18652, 79184, 145616, 121280, 37632], reference.q_betti(3, 4)),
     ("J", [648, 35088, 447648, 1900416, 3494784, 2910720, 903168], reference.j_betti(3, 4))],
    ids=["Q(3,4)", "J(3,4)"],
)
def test_nerve_counts_cells_it_does_not_build(capsys, category, cells, betti):
    # the order complex of J(3,4) has 9.7 M cells, too many to build here
    started = time.perf_counter()
    argv = ["nerve", "--n", "3", "--k", "4", "--category", category]
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - started < 5.0
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["cells"] == cells
    assert payload["euler"] == reference.euler(betti)


def test_homology_matches_contract_example(capsys):
    code, out, _ = run_cli(
        ["homology", "--n", "3", "--k", "2", "--category", "Q"], capsys
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload == {
        "H": [
            {"rank": 1, "torsion": []},
            {"rank": 0, "torsion": [2]},
            {"rank": 0, "torsion": []},
        ]
    }


def test_homology_of_the_poset_complex(capsys):
    code, out, _ = run_cli(
        ["homology", "--n", "3", "--k", "2", "--category", "J"], capsys
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["H"][0] == {"rank": 1, "torsion": []}
    assert payload["H"][2] == {"rank": 1, "torsion": []}


@pytest.mark.parametrize("category", ["Q", "J"])
@pytest.mark.parametrize("k", [2, 3])
def test_homology_of_an_empty_complex_has_no_degrees(capsys, category, k):
    # no 0-ordinals of arity k >= 2, so the complex has no cells at all
    argv = ["--n", "0", "--k", str(k), "--category", category]
    code, out, _ = run_cli(["nerve", *argv], capsys)
    assert code == 0 and report_of(out)["payload"]["cells"] == []
    code, out, _ = run_cli(["homology", *argv], capsys)
    assert code == 0
    report = report_of(out)
    assert report["outcome"] == "PASS"
    assert report["payload"] == {"H": []}


def test_braid_command(capsys, monkeypatch):
    doc = {"strands": 3, "word": [1, 2, 1, -2, -1, -2]}
    code, out, _ = run_cli(["braid"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["trivial"] is True
    assert payload["permutation"] == [0, 1, 2]
    assert payload["writhe"] == 0


@pytest.mark.parametrize("position", [0, 300, 599])
@pytest.mark.parametrize("bad", [0, True, 4, 1.0], ids=["0", "true", "4", "1.0"])
def test_bad_letter_in_a_long_braid_is_located(capsys, monkeypatch, position, bad):
    word = [(-1) ** p * (p % 3 + 1) for p in range(600)]
    word[position] = bad
    doc = {"strands": 4, "word": word}
    code, out, _ = run_cli(["braid"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 2
    assert report_of(out)["payload"] == {
        "error": "OUT_OF_RANGE",
        "diagnostic": {
            "code": "OUT_OF_RANGE",
            "message": "letter outside the generator range",
            "position": position,
            "letter": bad,
            "strands": 4,
        },
    }


def test_braid_strand_count_is_budgeted(capsys, monkeypatch):
    doc = {"strands": 2**24 + 1, "word": [1, -1]}
    start = time.perf_counter()
    code, out, _ = run_cli(["braid"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "a braid document names too many strands",
        "predicted": 2**24 + 1, "cap": 2**24,
    }


def two_block_span() -> ZigZag:
    flat = make_ordinal(2, (0, 0, 0))
    left = make_ordinal(2, (1, 0, 0))
    right = make_ordinal(2, (0, 0, 1))
    sigma = OrdinalMap(flat, left, (1, 0, 2, 3))
    eta = OrdinalMap(flat, right, (0, 1, 3, 2))
    return ZigZag((("back", sigma), ("fwd", eta)))


def test_zigzag_command(capsys, tmp_path):
    path = tmp_path / "zigzag.json"
    path.write_text(json.dumps(two_block_span().to_json()))
    code, out, _ = run_cli(["zigzag", str(path)], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["strands"] == 4
    assert payload["legs"] == 2


def test_split_command(capsys, tmp_path):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(two_block_span().to_json()))
    code, out, _ = run_cli(["split", str(path)], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["blocks"] == [[0, 2], [2, 4]]
    assert payload["braid_class_agrees"] is True
    assert [b["word"] for b in payload["braids"]] == [[-1], [1]]


def test_split_rejects_incompatible_blocks(capsys, tmp_path):
    path = tmp_path / "span.json"
    path.write_text(
        json.dumps({"zigzag": two_block_span().to_json(), "blocks": [1, 3]})
    )
    code, out, _ = run_cli(["split", str(path)], capsys)
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "FAIL"
    assert rep["payload"]["error"] == "NOT_BLOCK_DECOMPOSABLE"


def test_split_fails_when_the_blocks_lose_the_braid_class(capsys, monkeypatch, tmp_path):
    # block braids that no longer recompose the span's braid are a failed
    # check with its witness, not unusable input
    juxtapose = zigzags.braid_sum

    def with_a_full_twist(parts):
        whole = juxtapose(parts)
        return BraidWord(whole.strands, whole.word + (1, 1))

    monkeypatch.setattr(zigzags, "braid_sum", with_a_full_twist)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(two_block_span().to_json()))
    code, out, _ = run_cli(["split", str(path)], capsys)
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "FAIL"
    assert rep["payload"]["error"] == "DIAGRAM_BROKEN"
    assert rep["payload"]["witness"] == {
        "code": "DIAGRAM_BROKEN",
        "message": "block braids do not recompose the span braid",
    }


def test_artin_check_command(capsys):
    code, out, _ = run_cli(["artin-check", "--k", "4"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["count"] == 6
    relations = {(p["i"], p["j"]): p["relation"] for p in payload["pairs"]}
    assert relations[(1, 3)] == "far-commutation"
    assert relations[(1, 2)] == "braid"


def test_artin_check_refuses_steps_past_the_cap(capsys):
    # (k-1)(k-2) ordered pairs of O(k^2) steps: 15,998,976 at k = 64
    started = time.perf_counter()
    code, out, _ = run_cli(["artin-check", "--k", "65"], capsys)
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "too many steps to certify every generator pair",
        "k": 65, "predicted": 17035200, "cap": 2**24,
    }


def test_artin_check_refuses_a_negative_k(capsys):
    code, out, _ = run_cli(["artin-check", "--k", "-5"], capsys)
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "OUT_OF_RANGE",
        "message": "strand count must be non-negative",
        "strands": -5,
    }


def test_operad_check_builtin(capsys, monkeypatch):
    doc = {"builtin": "orders", "bound": 3}
    code, out, _ = run_cli(
        ["operad-check"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["passed"] is True
    assert payload["flavor"] == "symmetric"
    assert payload["checked"] == 341


def test_operad_check_terminal_flavors(capsys, monkeypatch):
    for flavor in ("symmetric", "braided", "mixed2"):
        doc = {"builtin": "terminal", "flavor": flavor, "bound": 3}
        code, out, _ = run_cli(
            ["operad-check"], capsys, monkeypatch, stdin_text=json.dumps(doc)
        )
        assert code == 0, flavor
        assert report_of(out)["payload"]["passed"] is True
    doc = {"builtin": "terminal", "flavor": "n", "n": 3, "bound": 3}
    code, out, _ = run_cli(
        ["operad-check"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    assert report_of(out)["payload"]["flavor"] == "n-operad(3)"


def test_operad_check_catches_corruption(capsys, tmp_path):
    doc = operad_to_json(orders_operad(2))
    key = "2:0>2:0|0,1"
    assert key in doc["mult"]
    doc["mult"][key][0][0][0] = (doc["mult"][key][0][0][0] + 1) % 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["operad-check", str(path)], capsys)
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "FAIL"
    assert rep["payload"]["passed"] is False
    assert rep["payload"]["failures"]
    first = rep["payload"]["failures"][0]
    assert {"axiom", "instance", "witness"} <= set(first)


def test_operad_check_refuses_lists_past_the_cap(capsys, monkeypatch):
    # End{0,1,2} at bound 2: an associativity side would have 3^21 entries
    doc = {"builtin": "endomorphism", "set": [0, 1, 2], "bound": 2}
    started = time.perf_counter()
    code, out, _ = run_cli(
        ["operad-check", "-"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "an axiom check would build too long a list",
        "predicted": 3**21, "cap": 2**24,
    }


def test_operad_check_refuses_candidate_maps_past_the_cap(capsys, monkeypatch):
    # terminal N_OPERAD(2) at bound 9: the candidates are summed one source
    # arity at a time, and the sum first passes the cap at arity 6
    doc = {"builtin": "terminal", "flavor": "n", "n": 2, "bound": 9}
    started = time.perf_counter()
    code, out, _ = run_cli(["operad-check", "-"], capsys, monkeypatch, json.dumps(doc))
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "too many candidate maps between index ordinals",
        "predicted": 57889183, "cap": 2**24,
    }


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["operad-check"], {"builtin": "terminal", "flavor": "symmetric", "bound": 600},
         "too many candidate maps between index ordinals"),
        (["operad-check"], {"builtin": "terminal", "flavor": "symmetric", "bound": 1500},
         "too many candidate maps between index ordinals"),
        (["operad-check"], {"builtin": "orders", "bound": 10},
         "too many candidate maps between index ordinals"),
        (["operad-check"], {"builtin": "endomorphism", "set": [0], "bound": 1000},
         "too many candidate maps between index ordinals"),
        (["operad-check"], {"builtin": "endomorphism", "set": [0, 1], "bound": 28},
         "endomorphism carrier would be too large"),
        (["operad-check"], {"builtin": "terminal", "flavor": "n", "n": 2, "bound": 18},
         "too many candidate maps between index ordinals"),
        (["desymmetrise", "--n", "1000000", "--bound", "2"],
         {"builtin": "endomorphism", "set": [0, 1]},
         "too many candidate maps between index ordinals"),
    ],
    ids=["terminal-600", "terminal-1500", "orders-10", "end-0-1000", "end-01-28",
         "terminal-n2-18", "desymmetrise-n-1000000"],
)
def test_operads_are_priced_before_they_are_built(capsys, monkeypatch, argv, doc, message):
    started = time.perf_counter()
    code, out, _ = run_cli([*argv, "-"], capsys, monkeypatch, json.dumps(doc))
    assert time.perf_counter() - started < 2.0
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert (diagnostic["code"], diagnostic["message"]) == ("RESOURCE_LIMIT", message)


_TERMINAL = {"builtin": "terminal", "bound": 2}


@pytest.mark.parametrize("command", ["operad-check", "desymmetrise"])
@pytest.mark.parametrize(
    "doc, diagnostic",
    [
        (_TERMINAL, {"error": "BAD_INPUT", "message": "a flavor is required here"}),
        ({**_TERMINAL, "flavor": None},
         {"error": "BAD_INPUT", "message": "a flavor is required here"}),
        ({**_TERMINAL, "flavor": "n"}, {"error": "BAD_DOCUMENT", "field": "n"}),
        ({**_TERMINAL, "flavor": "n", "n": "2"}, {"error": "BAD_DOCUMENT", "field": "n"}),
        ({**_TERMINAL, "flavor": "cubical"},
         {"error": "BAD_INPUT", "message": "unknown flavor 'cubical'"}),
        ({**_TERMINAL, "flavor": 3}, {"error": "BAD_INPUT", "message": "unknown flavor 3"}),
        ({**_TERMINAL, "flavor": ["symmetric"]},
         {"error": "BAD_INPUT", "message": "unknown flavor ['symmetric']"}),
    ],
    ids=["no flavor", "null flavor", "n without n", "n text", "unknown flavor",
         "int flavor", "list flavor"],
)
def test_a_builtin_names_its_flavor_in_its_document(capsys, monkeypatch, command, doc, diagnostic):
    # desymmetrise's --n is the target n; it is never read as the builtin's
    argv = [command, "-"] + (["--n", "2"] if command == "desymmetrise" else [])
    code, out, err = run_cli(argv, capsys, monkeypatch, json.dumps(doc))
    assert code == 2
    payload = report_of(out)["payload"]
    assert payload["error"] == diagnostic["error"]
    if "field" in diagnostic:
        assert payload["diagnostic"]["field"] == diagnostic["field"]
    else:
        assert payload["message"] == diagnostic["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [["--flavor", "symmetric"], ["--n", "2"]])
def test_operad_check_takes_no_flavor_flags(capsys, monkeypatch, flag):
    doc = {**_TERMINAL, "flavor": "symmetric"}
    code, out, _ = run_cli(["operad-check", *flag, "-"], capsys, monkeypatch, json.dumps(doc))
    assert code == 2
    assert report_of(out)["payload"]["error"] == "USAGE"


def test_desymmetrise_refuses_documents_past_the_cap(capsys, monkeypatch):
    # End{0,1,2} as a 2-operad at bound 2: its tables would hold 58459239
    # entries in all, though the longest single table is under the cap
    doc = {"builtin": "endomorphism", "set": [0, 1, 2], "bound": 2}
    started = time.perf_counter()
    code, out, _ = run_cli(
        ["desymmetrise", "--n", "2", "-"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT",
        "message": "an operad document would hold too many table entries",
        "predicted": 58459239, "cap": 2**24,
    }


def test_desymmetrise_emits_checkable_operad(capsys, monkeypatch, tmp_path):
    doc = {"builtin": "endomorphism", "bound": 2}
    code, out, _ = run_cli(
        ["desymmetrise", "--n", "2"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["flavor"] == "n-operad"
    assert payload["n"] == 2

    # the whole run report chains: operad-check reads its payload
    path = tmp_path / "desym.json"
    path.write_text(out)
    code, out, _ = run_cli(["operad-check", str(path)], capsys)
    assert code == 0
    assert report_of(out)["payload"]["passed"] is True


def test_desymmetrised_end_at_bound_three_pipes_into_a_pass(capsys, monkeypatch):
    # the check of desymmetrised End{0,1} at bound 3, piped in-process:
    # it compares each distinct associativity instance once and still
    # counts every instance in full
    doc = {"builtin": "endomorphism", "set": [0, 1], "bound": 3}
    code, out, _ = run_cli(
        ["desymmetrise", "--n", "2", "--bound", "3", "-"],
        capsys, monkeypatch, stdin_text=json.dumps(doc),
    )
    assert code == 0
    code, out, err = run_cli(["operad-check", "-"], capsys, monkeypatch, stdin_text=out)
    assert "Traceback" not in err
    report = report_of(out)
    assert (code, report["outcome"]) == (0, "PASS")
    assert (report["payload"]["passed"], report["payload"]["checked"]) == (True, 56425096)


@pytest.mark.parametrize(
    "bound, doc",
    [
        ("0", {"builtin": "orders", "bound": 2}),
        ("-1", {"builtin": "orders", "bound": 2}),
        (None, {"flavor": "symmetric", "n": None, "bound": 0, "unit": 0,
                "carriers": {"1:": [[0]]}, "actions": {}, "mult": {}}),
    ],
    ids=["flag-0", "flag-minus-1", "document-0"],
)
def test_desymmetrise_refuses_a_bound_below_one(capsys, monkeypatch, bound, doc):
    argv = ["desymmetrise", "--n", "2", "-"] + ([] if bound is None else ["--bound", bound])
    code, out, _ = run_cli(argv, capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 2
    payload = report_of(out)["payload"]
    assert payload["error"] == "OUT_OF_RANGE"
    assert payload["diagnostic"]["message"] == "bound must be at least 1"


def test_operad_check_refuses_a_bundle_without_its_top_carrier(capsys, monkeypatch):
    # orders(2) cut down to arity 1, though its bound still says 2
    doc = operad_to_json(orders_operad(2))
    doc.update(carriers={"1:": [[0]]}, actions={}, mult={"1:>1:|0": [[0]]})
    code, out, _ = run_cli(["operad-check", "-"], capsys, monkeypatch, json.dumps(doc))
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "BOUND_EXCEEDED", "message": "no carrier at this index", "key": "1",
    }


def _end_bundle() -> dict:
    return operad_to_json(endomorphism_symmetric_operad((0, 1), 2))


def _drop_tables(keep):
    def edit(doc):
        keys = sorted(doc["mult"])
        doc["mult"] = {k: doc["mult"][k] for k in keys[:keep(len(keys))]}

    return edit


@pytest.mark.parametrize(
    "edit, missing",
    [(_drop_tables(lambda n: 0), 3), (_drop_tables(lambda n: n // 2), 2)],
    ids=["no tables", "half the tables"],
)
def test_operad_check_reports_missing_tables(capsys, tmp_path, edit, missing):
    doc = _end_bundle()
    edit(doc)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["operad-check", str(path)], capsys)
    assert code == 1
    payload = report_of(out)["payload"]
    coverage = [f for f in payload["failures"] if f["axiom"] == "coverage"]
    assert len(coverage) == missing
    assert all(f["witness"] == [] for f in coverage)
    assert not {f["instance"] for f in coverage} & set(doc["mult"])
    assert payload["passed"] is False


def _set(path, value):
    def edit(doc):
        *inner, last = path
        node = doc
        for key in inner:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value(node[last]) if callable(value) else value

    return edit


def _respelled_table(doc):
    # a corrupted table, and the good one again under a second spelling of
    # its key, which would replace it
    good = doc["mult"]["2:0>2:0|0,1"]
    doc["mult"]["2:0>2:0|0,1"] = [[[0] * 4] * 4] * 16
    doc["mult"]["2:0>2:0|00,1"] = good


def _n_operad_action(doc):
    # terminal N_OPERAD(2) at bound 2 with an action, which only the arity
    # flavors carry
    doc.clear()
    doc.update(operad_to_json(terminal_operad(N_OPERAD(2), 2)))
    doc["actions"]["2:0|1"] = [0]


def _add_key(kind, key, like):
    # the entry at `like` again under `key`, which the diagnostic must name
    def edit(doc):
        doc[kind][key] = doc[kind][like]

    edit.field = key
    return edit


def _duplicate_carrier_element(doc):
    # orders(2) with its arity-2 carrier listing one order twice, and the
    # table that the duplicate would let pass
    doc.clear()
    doc.update(operad_to_json(orders_operad(2)))
    doc["carriers"]["2:0"] = [[0, 1], [0, 1]]
    doc["mult"]["2:0>2:0|0,1"] = [[[0]], [[0]]]


@pytest.mark.parametrize(
    "edit",
    [
        _set(["carriers"], None),
        _set(["bound"], None),
        _set(["unit"], 99),
        _set(["actions", "2:0|1", 0], 99),
        _set(["mult", "2:0>1:|0,0", 0, 0], -1),
        _set(["mult", "2:0>1:|0,0"], lambda rows: rows[:-1]),
        _set(["mult", "1:>1:|0", 0, 0], [0]),
        lambda doc: doc.clear() or doc.update(builtin="endomorphism", set=[[0], [1]]),
        lambda doc: doc.clear() or doc.update(builtin="orders", bound="x"),
        _duplicate_carrier_element,
        _set(["mult", "1:>1:|0", 1, 1], True),
        _set(["mult", "1:>1:|0", 1, 1], 1.0),
        _add_key("carriers", "2:00", "2:0"),
        _add_key("carriers", "\uff12:0", "2:0"),
        _respelled_table,
        _add_key("actions", "2:0|0", "2:0|1"),
        _add_key("actions", "2:0|7", "2:0|1"),
        _n_operad_action,
        _add_key("carriers", "x:0", "2:0"),
        _add_key("carriers", "2:x", "2:0"),
        _add_key("actions", "2:0|x", "2:0|1"),
        _add_key("carriers", "2:1", "2:0"),
        _add_key("carriers", "1:0", "1:"),
        _add_key("carriers", "2:", "2:0"),
        _add_key("carriers", "0:", "1:"),
        _add_key("mult", "2:1>1:|0,0", "2:0>1:|0,0"),
    ],
    ids=[
        "no carriers",
        "no bound",
        "unit index",
        "action index",
        "table index",
        "table rows",
        "table depth",
        "set of lists",
        "builtin bound",
        "duplicate carrier element",
        "table leaf true",
        "table leaf float",
        "carrier key with a leading zero",
        "carrier key with a fullwidth digit",
        "table key with a leading zero",
        "action of generator 0",
        "action past the generators",
        "action in an n-operad document",
        "carrier arity not a number",
        "carrier level not a number",
        "action generator not a number",
        "carrier level outside the domain",
        "carrier with a level past its arity",
        "carrier short of a level",
        "carrier of arity zero",
        "table source level outside the domain",
    ],
)
def test_malformed_operad_documents_are_bad_input(capsys, monkeypatch, edit):
    doc = _end_bundle()
    edit(doc)
    for command in ("operad-check", "desymmetrise"):
        code, out, err = run_cli(
            [command], capsys, monkeypatch, stdin_text=json.dumps(doc)
        )
        assert code == 2, command
        rep = report_of(out)
        assert rep["outcome"] == "ERROR"
        assert rep["payload"]["error"] == "BAD_DOCUMENT"
        if hasattr(edit, "field"):
            assert rep["payload"]["diagnostic"]["field"] == edit.field, command
        assert "Traceback" not in err


def _operad_check(capsys, monkeypatch, doc, *flags):
    code, out, err = run_cli(["operad-check", *flags], capsys, monkeypatch, json.dumps(doc))
    assert "Traceback" not in err
    return code, report_of(out)["payload"]


def test_operad_check_bound_flag_checks_below_the_operad_bound(capsys, monkeypatch):
    # orders(3) checks 341 instances; at --bound 2 it checks the 33 of
    # orders(2), and a builtin with no bound of its own is built at the flag
    orders3 = {"builtin": "orders", "bound": 3}
    code, payload = _operad_check(capsys, monkeypatch, orders3)
    assert (code, payload["bound"], payload["checked"]) == (0, 3, 341)
    for doc in (orders3, {"builtin": "orders"}):
        code, payload = _operad_check(capsys, monkeypatch, doc, "--bound", "2")
        assert (code, payload["bound"], payload["checked"]) == (0, 2, 33), doc
        assert payload["passed"] is True


def test_operad_check_bound_flag_out_of_range_is_refused(capsys, monkeypatch):
    orders3 = {"builtin": "orders", "bound": 3}
    code, payload = _operad_check(capsys, monkeypatch, orders3, "--bound", "4")
    assert (code, payload["error"]) == (2, "BOUND_EXCEEDED")
    code, payload = _operad_check(capsys, monkeypatch, orders3, "--bound", "0")
    assert (code, payload["error"]) == (2, "OUT_OF_RANGE")
    assert payload["diagnostic"]["message"] == "bound must be at least 1"


def test_bad_last_leaf_of_a_long_table_is_named(capsys, monkeypatch):
    # the 256-leaf table of End{0,1}(2), with its last leaf one past the
    # 16 elements of the carrier
    doc = _end_bundle()
    doc["mult"]["2:0>2:0|0,1"][-1][-1][-1] = 16
    code, out, _ = run_cli(["operad-check"], capsys, monkeypatch, json.dumps(doc))
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert (diagnostic["field"], diagnostic["got"]) == ("2:0>2:0|0,1", "16")


_SWAP = {
    "source": {"n": 2, "levels": [0]},
    "target": {"n": 2, "levels": [0]},
    "f": [1, 0],
}
_FLAT_LEVELS = {"n": 2, "levels": 0}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("braid", {"strands": "3", "word": [1]}, "strands"),
        ("braid", {"strands": True, "word": [1]}, "strands"),
        ("braid", {"strands": 3, "word": 1}, "word"),
        ("zigzag", {"legs": 3}, "legs"),
        ("zigzag", {"legs": [3]}, "leg"),
        ("zigzag", {"legs": [{"dir": "fwd"}]}, "leg map"),
        ("zigzag", {"legs": [{"map": _SWAP}]}, "leg dir"),
        ("zigzag", {"legs": [{"dir": "fwd", "map": {**_SWAP, "f": 5}}]}, "f"),
        ("zigzag", {"legs": [{"dir": "fwd", "map": {**_SWAP, "source": _FLAT_LEVELS}}]},
         "levels"),
        ("check-map", {**_SWAP, "f": None}, "f"),
        ("split", {"zigzag": {"legs": []}, "blocks": [[2]]}, "block size"),
        ("classify", {"dim": 2, "points": [[0, "a"], [1, 2]]}, "coordinate"),
        ("classify", {"dim": 2, "points": [[0, "1/0"], [1, 2]]}, "coordinate"),
        ("classify", {"dim": 1, "points": [[True], [False]]}, "coordinate"),
        ("sample", {"ordinal": {"n": 2, "k": 2, "levels": [0]}, "labels": ["a", 1]},
         "label"),
    ],
    ids=["strands string", "strands bool", "word int", "legs int", "leg int",
         "leg without map", "leg without dir", "map f int", "ordinal levels int",
         "map f null", "split block list", "coordinate text", "coordinate 1/0",
         "coordinate bool", "label text"],
)
def test_malformed_braid_and_zigzag_documents_are_bad_input(
    capsys, monkeypatch, command, doc, field
):
    code, out, err = run_cli([command], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "ERROR"
    assert rep["payload"]["error"] == "BAD_DOCUMENT"
    assert rep["payload"]["diagnostic"]["field"] == field
    assert "Traceback" not in err


def test_bool_set_elements_still_decode(capsys, monkeypatch):
    # a set element may be a bool, because the set decode names bool
    doc = {"builtin": "endomorphism", "set": [True, False], "bound": 1}
    code, out, _ = run_cli(["operad-check", "-"], capsys, monkeypatch, json.dumps(doc))
    assert code == 0
    rep = report_of(out)
    assert rep["outcome"] == "PASS"
    assert rep["payload"]["checked"] == 104


def test_classify_and_sample_round_trip(capsys, monkeypatch):
    label = {"ordinal": {"n": 2, "levels": [0, 1]}, "labels": [2, 0, 1]}
    code, out, _ = run_cli(
        ["sample"], capsys, monkeypatch, stdin_text=json.dumps(label)
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["roundtrip"] is True

    config = payload["configuration"]
    code, out, _ = run_cli(
        ["classify"], capsys, monkeypatch, stdin_text=json.dumps(config)
    )
    assert code == 0
    got = report_of(out)["payload"]["label"]
    assert got["labels"] == label["labels"]
    assert got["ordinal"]["levels"] == label["ordinal"]["levels"]


def test_verify_partition_command(capsys):
    code, out, _ = run_cli(
        ["verify-partition", "--n", "2", "--k", "3", "--trials", "300"], capsys
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["universe"] == 24
    assert payload["observed"] <= 24
    assert sum(payload["tally"].values()) == 300


def test_verify_partition_seed_changes_tally(capsys):
    _, first, _ = run_cli(
        ["verify-partition", "--n", "2", "--k", "3", "--trials", "50", "--seed", "1"],
        capsys,
    )
    _, second, _ = run_cli(
        ["verify-partition", "--n", "2", "--k", "3", "--trials", "50", "--seed", "2"],
        capsys,
    )
    assert report_of(first)["payload"] != report_of(second)["payload"]


def test_degeneration_command(capsys):
    code, out, _ = run_cli(["degeneration", "--n", "2", "--k", "2"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["covering_pairs"] == 4
    assert payload["failures"] == []


# The cross-checks that a correct library always passes: each FAIL branch
# is reached by replacing the checked function in operadkit.cli


def _failed(argv, capsys, monkeypatch=None, stdin_text=None) -> dict:
    code, out, _ = run_cli(argv, capsys, monkeypatch, stdin_text)
    assert code == 1
    rep = report_of(out)
    assert rep["outcome"] == "FAIL"
    return rep["payload"]


def test_factorize_fails_when_the_factors_do_not_recompose(capsys, monkeypatch):
    doc = {
        "source": {"n": 2, "levels": [0, 1, 0]},
        "target": {"n": 2, "levels": [1]},
        "f": [1, 0, 1, 1],
    }
    monkeypatch.setattr(cli, "compose", lambda nu, pi: pi)
    payload = _failed(["factorize"], capsys, monkeypatch, json.dumps(doc))
    assert payload["error"] == "COMPOSE_MISMATCH"
    assert sorted(payload) == ["error", "witness"]
    assert sorted(payload["witness"]) == ["middle", "nu", "pi"]


def test_artin_check_fails_on_a_broken_diagram(capsys, monkeypatch):
    def broken(k, i, j):
        raise DiagramBroken("legs disagree", stage=0)

    monkeypatch.setattr(cli, "artin_diagram_check", broken)
    payload = _failed(["artin-check", "--k", "3"], capsys)
    assert payload == {
        "error": "DIAGRAM_BROKEN",
        "i": 1,
        "j": 2,
        "witness": {"code": "DIAGRAM_BROKEN", "message": "legs disagree", "stage": 0},
    }


def test_sample_fails_when_the_sample_classifies_elsewhere(capsys, monkeypatch):
    label = {"ordinal": {"n": 2, "levels": [0, 1]}, "labels": [2, 0, 1]}
    other = {"ordinal": {"n": 2, "levels": [1, 0]}, "labels": [0, 1, 2]}
    monkeypatch.setattr(cli, "classify_stratum", lambda config: stratum_from_json(other))
    payload = _failed(["sample"], capsys, monkeypatch, json.dumps(label))
    assert payload["error"] == "ROUNDTRIP_MISMATCH"
    witness = payload["witness"]
    assert sorted(witness) == ["classified", "configuration", "label"]
    assert witness["label"]["labels"] == label["labels"]
    assert witness["classified"]["labels"] == other["labels"]


def test_verify_partition_fails_when_more_strata_are_seen_than_exist(capsys, monkeypatch):
    real = cli.verify_partition

    def overflowing(n, k, trials, seed):
        report = real(n, k, trials, seed)
        return dataclasses.replace(report, observed=report.universe + 1)

    monkeypatch.setattr(cli, "verify_partition", overflowing)
    argv = ["verify-partition", "--n", "2", "--k", "3", "--trials", "20"]
    payload = _failed(argv, capsys)
    assert payload["error"] == "PARTITION_OVERFLOW"
    assert payload["observed"] == payload["universe"] + 1 == 25
    assert sorted(payload) == ["error", "k", "n", "observed", "tally", "trials", "universe"]


def test_degeneration_fails_with_every_broken_cover(capsys, monkeypatch):
    monkeypatch.setattr(cli, "degeneration_failures", lambda elements, covers: list(covers))
    payload = _failed(["degeneration", "--n", "2", "--k", "2"], capsys)
    assert payload["covering_pairs"] == len(payload["failures"]) == 4
    assert all(sorted(f) == ["lower", "upper"] for f in payload["failures"])


def test_degeneration_fails_with_the_covers_of_a_broken_sample(capsys, monkeypatch):
    # one element's sample collides: the covers that read it, as upper or
    # as lower, fail, in cover order, and no other cover does
    p = build_j(2, 3)
    uppers = {i for i, _ in p.covers}
    x = next(j for _, j in p.covers if j in uppers)
    real = strata._sample_points

    def colliding(label):
        points = real(label)
        return [points[0]] * len(points) if label == p.elements[x] else points

    monkeypatch.setattr(strata, "_sample_points", colliding)
    payload = _failed(["degeneration", "--n", "2", "--k", "3"], capsys)
    broken = [(i, j) for i, j in p.covers if x in (i, j)]
    assert payload["covering_pairs"] == len(p.covers)
    assert payload["failures"] == [
        {"upper": p.elements[i].to_json(), "lower": p.elements[j].to_json()} for i, j in broken
    ]
    assert any(i == x for i, _ in broken) and any(j == x for _, j in broken)


@pytest.mark.parametrize(
    "argv", [["build-j"], ["degeneration"]], ids=["build-j", "degeneration"]
)
def test_poset_commands_refuse_pairs_past_the_cap(capsys, argv):
    # J(2,6) has 2^5 * 6! = 23040 elements, so 530841600 ordered pairs
    started = time.perf_counter()
    code, out, _ = run_cli([*argv, "--n", "2", "--k", "6"], capsys)
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "too many ordered pairs of elements to test",
        "n": 2, "k": 6, "predicted": 530841600, "cap": 2**24,
    }


@pytest.mark.parametrize(
    "argv", [["build-q"], ["nerve", "--category", "Q"]], ids=["build-q", "nerve Q"]
)
@pytest.mark.parametrize(
    "n, k, predicted", [(2, 7, 20643840), (3, 6, 42515280)], ids=["Q(2,7)", "Q(3,6)"]
)
def test_category_commands_refuse_candidate_maps_past_the_cap(capsys, argv, n, k, predicted):
    # n^(2(k-1)) k! tables: each size is refused at its last arity, so the
    # prediction is exact; Q(2,6) (737,280) and Q(3,5) (787,320) are built
    started = time.perf_counter()
    code, out, _ = run_cli([*argv, "--n", str(n), "--k", str(k)], capsys)
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": "too many candidate maps between objects to test",
        "n": n, "k": k, "predicted": predicted, "cap": 2**24,
    }


@pytest.mark.parametrize(
    "category, n, k",
    [("Q", 2, 7), ("Q", 3, 6), ("J", 2, 6), ("Q", 1, 25), ("Q", 1, 1000), ("J", 1, 9)],
    ids=["Q(2,7)", "Q(3,6)", "J(2,6)", "Q(1,25)", "Q(1,1000)", "J(1,9)"],
)
def test_homology_answers_sizes_past_the_category_and_poset_budgets(capsys, category, n, k):
    # build-q and build-j refuse these sizes; homology counts Milgram's
    # cells, n^(k-1), times k! for J, and builds neither structure.  Q_1(k)
    # is a single 0-cell with no facets, and J_1(k) its k! labelings
    argv = ["homology", "--n", str(n), "--k", str(k), "--category", category]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    groups = report_of(out)["payload"]["H"]
    assert len(groups) == (n - 1) * (k - 1) + 1
    betti = reference.q_betti(n, k) if category == "Q" else reference.j_betti(n, k)
    assert reference.same_betti([g["rank"] for g in groups], betti)
    assert category == "Q" or not any(g["torsion"] for g in groups)


@pytest.mark.parametrize(
    "category, n, k, counted, where",
    [("Q", 2, 13, "incidences", {"cells": 2**12, "predicted": 2**12 * (2**13 - 2)}),
     ("J", 2, 7, "incidences", {"cells": 2**6 * 5040, "predicted": 2**6 * 5040 * (2**7 - 2)}),
     ("Q", 2**23, 2, "dimensions", {"cells": 2**23, "predicted": 2**23 * 2**23}),
     ("J", 2**22, 2, "dimensions", {"cells": 2**23, "predicted": 2**23 * 2**22}),
     ("Q", 4097, 2, "dimensions", {"cells": 4097, "predicted": 4097 * 4097}),
     ("J", 2897, 2, "dimensions", {"cells": 5794, "predicted": 5794 * 2897}),
     ("Q", 2, 12, "face steps", {"predicted": 17073000}),
     ("Q", 3, 9, "face steps", {"predicted": 16782444}),
     ("J", 3, 6, "face steps", {"predicted": 16829280}),
     ("J", 7, 5, "face steps", {"predicted": 16781280}),
     ("Q", 1, 2**24 + 2, "levels", {"predicted": 2**24 + 1}),
     ("Q", 1, 10**9, "levels", {"predicted": 10**9 - 1}),
     ("J", 1, 10, "labels", {"cells": 3628800, "predicted": 36288000}),
     ("J", 1, 10**9, "labels", {"cells": 2, "predicted": 2 * 10**9})],
    ids=["Q(2,13)", "J(2,7)", "Q(2^23,2)", "J(2^22,2)", "Q(4097,2)", "J(2897,2)",
         "Q(2,12)", "Q(3,9)", "J(3,6)", "J(7,5)", "Q(1,2^24+2)", "Q(1,10^9)",
         "J(1,10)", "J(1,10^9)"],
)
def test_homology_refuses_work_past_the_cap(capsys, category, n, k, counted, where):
    # cells times 2^k - 2 incidences, cells times the dimensions, and the
    # faces of the facets times k for Q and k! for J: J(2,6), Q(4096,2),
    # J(2896,2), Q(2,11), Q(3,8) and J(6,5) are answered.  The facets are
    # listed before face steps are refused, about 1 s for Q(3,9).  Q_1(k)
    # has no facets, and its one cell's k - 1 levels are refused instead;
    # J_1(k) refuses its k! cells times their k labels, one arity at a time
    started = time.perf_counter()
    argv = ["homology", "--n", str(n), "--k", str(k), "--category", category]
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - started < (5.0 if counted == "face steps" else 2.0)
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": f"too many {counted} in the cellular complex",
        "n": n, "k": k, **where, "cap": 2**24,
    }


@pytest.mark.parametrize(
    "argv",
    [["build-j"], ["degeneration"], ["homology", "--category", "J"],
     ["nerve", "--category", "Q"], ["build-q"], ["homology", "--category", "Q"]],
    ids=["build-j", "degeneration", "homology J", "nerve Q", "build-q", "homology Q"],
)
def test_an_empty_level_domain_is_answered_at_once(capsys, argv):
    # with n = 0 there is no ordinal of arity k >= 2, whatever k is
    started = time.perf_counter()
    code, out, _ = run_cli([*argv, "--n", "0", "--k", "1000000"], capsys)
    assert time.perf_counter() - started < 2.0
    assert code == 0, out


@pytest.mark.parametrize(
    "category, n, k, message, dim, predicted",
    [("J", 5, 4, "too many chains in the order complex", 2, 55178904),
     ("Q", 4, 4, "too many cells in the nerve", 4, 24379616)],
    ids=["J(5,4)", "Q(4,4)"],
)
def test_nerve_refuses_cells_past_the_cap(capsys, category, n, k, message, dim, predicted):
    # J(5,4) and Q(4,4) are built, but their complexes pass 2^24 cells
    started = time.perf_counter()
    argv = ["nerve", "--n", str(n), "--k", str(k), "--category", category]
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - started < 5.0
    assert code == 2
    assert report_of(out)["payload"]["diagnostic"] == {
        "code": "RESOURCE_LIMIT", "message": message, "n": n, "k": k,
        "dim": dim, "predicted": predicted, "cap": 2**24,
    }


@pytest.mark.parametrize(
    "argv, field, bits",
    [
        (["enumerate", "--n", "2", "--k", "20000", "--limit", "0"], "count", 20000),
        (["verify-partition", "--n", "2", "--k", "20000", "--trials", "0"],
         "universe", 276908),
        (["enumerate", "--n", "3", "--k", "100000000", "--limit", "0"], "count", 158496249),
        (["verify-partition", "--n", "1", "--k", "1000000", "--trials", "0"],
         "universe", 18488885),
        (["enumerate", "--n", "3", "--k", str(10**400), "--limit", "0"], "count", None),
        (["enumerate", "--n", "2", "--k", str(10**400), "--limit", "0"], "count", None),
        (["verify-partition", "--n", "2", "--k", str(10**400), "--trials", "0"],
         "universe", None),
        (["verify-partition", "--n", "1", "--k", str(10**400), "--trials", "0"],
         "universe", None),
    ],
    ids=["enumerate", "verify-partition", "enumerate-3^(10^8-1)", "verify-partition-10^6!",
         "enumerate-3^(10^400-1)", "enumerate-2^(10^400-1)", "verify-partition-2,10^400",
         "verify-partition-(10^400)!"],
)
def test_integers_too_long_to_print_are_refused(capsys, argv, field, bits):
    # 2^19999 and 2^19999 * 20000! pass Python's 4300-digit int-to-str limit;
    # 3^(10^8 - 1) took 142 s and 10^6! 10.7 s to form, so the refusal is
    # decided from their bit counts without forming them.  At k = 10^400 not
    # even the bit count fits a float, and bits is a lower bound (None here)
    started = time.perf_counter()
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert diagnostic["code"] == "RESOURCE_LIMIT"
    assert diagnostic["field"] == field
    if bits is None:
        assert diagnostic["bits"] > sys.get_int_max_str_digits() * math.log2(10)
    else:
        assert diagnostic["bits"] == bits
    assert diagnostic["max_digits"] == sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "argv, doc, message, where",
    [
        (["enumerate", "--n", "2", "--k", "40"], None, "too many ordinals to list",
         {"n": 2, "k": 40}),
        (["enumerate", "--n", "1", "--k", "100000000"], None, "too many ordinals to list",
         {"n": 1, "k": 100000000}),
        (["enumerate", "--n", "1", "--k", str(10**400)], None, "too many ordinals to list",
         {"n": 1, "k": 10**400}),
        (["sample"], {"ordinal": {"n": 10**30, "levels": [0]}, "labels": [1, 0]},
         "too many coordinates to sample", {"n": 10**30, "k": 2}),
        (["sample"], {"ordinal": {"n": 10**8, "levels": [0]}, "labels": [1, 0]},
         "too many coordinates to sample", {"n": 10**8, "k": 2}),
        (["verify-partition", "--n", "100000000", "--k", "3", "--trials", "1"], None,
         "too many coordinates to draw", {"n": 10**8, "k": 3, "trials": 1}),
        (["verify-partition", "--n", "3", "--k", "4", "--trials", "100000000"], None,
         "too many coordinates to draw", {"n": 3, "k": 4, "trials": 10**8}),
    ],
    ids=["enumerate-2,40", "enumerate-1,10^8", "enumerate-1,10^400", "sample-n=10^30",
         "sample-n=10^8", "verify-partition-n=10^8", "verify-partition-trials=10^8"],
)
def test_listings_are_priced_before_they_are_built(
    capsys, monkeypatch, argv, doc, message, where
):
    # each ran past 10 s or died with an OverflowError traceback unpriced
    started = time.perf_counter()
    code, out, _ = run_cli(argv, capsys, monkeypatch, json.dumps(doc))
    assert time.perf_counter() - started < 2.0
    assert code == 2
    diagnostic = report_of(out)["payload"]["diagnostic"]
    assert diagnostic["code"] == "RESOURCE_LIMIT"
    assert diagnostic["message"] == message
    assert {key: diagnostic[key] for key in where} == where
    assert diagnostic["predicted"] > diagnostic["cap"]


def test_printable_stops_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert printable(-(10**limit - 1), "x") == -(10**limit - 1)
    with pytest.raises(ResourceLimit):
        printable(-(10**limit), "x")


def test_printable_by_log2_forms_only_values_near_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    edge = limit * math.log2(10)

    def never():
        raise AssertionError("formed a value the bit count refuses")

    with pytest.raises(ResourceLimit) as refused:
        printable_by_log2(edge + 5, never, "x")
    assert refused.value.payload["bits"] == math.floor(edge + 5) + 1
    # within a few bits of the limit the value is formed and decided exactly
    assert printable_by_log2(edge, lambda: 10**limit - 1, "x") == 10**limit - 1
    with pytest.raises(ResourceLimit) as refused:
        printable_by_log2(edge + 3, lambda: 8 * 10**limit, "x")
    assert refused.value.payload["bits"] == (8 * 10**limit).bit_length()


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_unknown_command_is_usage_error(capsys):
    code, out, _ = run_cli(["frobnicate"], capsys)
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "ERROR"
    assert rep["payload"]["error"] == "USAGE"


def _repeated_table_key() -> str:
    # orders(2) with its one arity-2 table corrupted, and then the same key
    # again holding the good table: json.loads alone would keep the good one
    doc = operad_to_json(orders_operad(2))
    good = doc["mult"]["2:0>2:0|0,1"]
    doc["mult"]["2:0>2:0|0,1"] = [[[0]], [[0]]]
    text = json.dumps(doc)  # "mult" is the last field, so text ends "}}"
    return text[:-2] + f', "2:0>2:0|0,1": {json.dumps(good)}}}}}'


def test_bad_json_is_usage_error(capsys, monkeypatch):
    for command, text in [
        ("braid", "not json"),
        ("operad-check", _repeated_table_key()),
        ("braid", '{"strands": 3, "word": [1, -2], "word": []}'),
    ]:
        code, out, _ = run_cli([command], capsys, monkeypatch, stdin_text=text)
        assert code == 2, text
        assert report_of(out)["payload"]["error"] == "BAD_JSON", text


def test_missing_file_is_usage_error(capsys):
    code, out, _ = run_cli(["braid", "/nonexistent/braid.json"], capsys)
    assert code == 2
    assert report_of(out)["payload"]["error"] == "NO_SUCH_FILE"


def test_missing_required_flag_is_usage_error(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "2"], capsys)
    assert code == 2
    assert report_of(out)["payload"]["error"] == "USAGE"


def test_library_error_is_machine_readable(capsys, monkeypatch):
    # a point repeated twice is not a configuration at all
    doc = {"dim": 2, "points": [[0, 0], [0, 0]]}
    code, out, _ = run_cli(
        ["classify"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 2
    rep = report_of(out)
    assert rep["outcome"] == "ERROR"
    assert rep["payload"]["error"] == "EQUAL_POINTS"


# An int grid as nested lists (equally long, non-empty lists nested to any
# depth, int leaves) is written by the general path, each innermost list
# one join; only a Grid is one %-format.  A near-grid breaks the grid in
# one place: one row shorter than the others, an empty row, a leaf that is
# not an int, or a tuple row.  A leaf past the int-to-str digit limit
# keeps the grid; both writers refuse it.
_HUGE = -(10**5000)
_ODD_LEAVES = (
    st.booleans() | st.floats() | st.text(max_size=3) | st.none() | st.just(_HUGE)
)


def _nest(flat, shape):
    """The leaves ``flat`` as a grid of the given widths, outermost first."""
    for width in reversed(shape[1:]):
        flat = [flat[i : i + width] for i in range(0, len(flat), width)]
    return flat


@st.composite
def _grids(draw, min_depth=1, min_rows=1):
    shape = draw(st.lists(st.integers(1, 4), min_size=min_depth, max_size=4))
    shape[0] = max(shape[0], min_rows)
    size = math.prod(shape)
    leaves = draw(st.lists(st.integers(-(2**70), 2**70), min_size=size, max_size=size))
    return _nest(leaves, shape)


@st.composite
def _near_grids(draw):
    # two or more rows at every depth, so that any one row can break it
    grid = draw(_grids(min_depth=2, min_rows=2))
    way = draw(st.sampled_from(("short", "empty", "leaf", "tuple", "int-keyed")))
    if way == "int-keyed":
        return {draw(st.integers(-9, 9)): grid}
    holder, node = None, grid
    while type(node[0]) is list and (way == "leaf" or not holder or draw(st.booleans())):
        holder, index = node, draw(st.integers(0, len(node) - 1))
        node = node[index]
    if way == "leaf":
        node[draw(st.integers(0, len(node) - 1))] = draw(_ODD_LEAVES)
    else:
        holder[index] = {"short": node[:-1], "empty": [], "tuple": tuple(node)}[way]
    return grid


# Leaves cover every branch of the stdlib encoder: huge ints (two past the
# int-to-str digit limit, which both writers refuse), NaN, the infinities
# and -0.0, control and non-ASCII text, and Fractions, which only
# default=str can write.  Lists of ints and bools reach the all-int join;
# grids and near-grids reach it from inside nested lists.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([64, 300, 4299, 4300, 5000]).map(lambda e: -(10**e))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.just(-0.0)
    | st.text()
    | st.fractions()
    | st.lists(st.integers(-(2**70), 2**70) | st.booleans(), max_size=5)
    | _grids()
    | _near_grids()
)


@st.composite
def _same_key_dicts(draw, values):
    # str-keyed dicts of one key set, each in its own insertion order, as a
    # report's failure records are, and maybe a dict with a non-str key
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    dicts = [{k: draw(values) for k in draw(st.permutations(keys))}
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        dicts.insert(draw(st.integers(0, len(dicts))), {draw(st.integers(-9, 9)): draw(values)})
    return dicts


_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    | st.dictionaries(st.integers(-9, 9), inner, max_size=3)
    | st.dictionaries(st.text(max_size=2) | st.integers(-2, 2), inner, max_size=3)
    | _same_key_dicts(inner),
    max_leaves=12,
)


def _written(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as e:
        return type(e)


# one key set in several insertion orders at depths 1 to 3, beside two
# dicts whose keys are not strs and compare equal (1 and True)
_RECORDS = [{"b": 1, "a": [2], "é\n": {}}, {"é\n": 3, "b": (4,), "a": "x"},
            {1: "int"}, {True: "bool"}, {"a": 5, "é\n": 6, "b": 7}]


@settings(max_examples=250, derandomize=True, deadline=None)
@example(_RECORDS)
@example({"payload": {"failures": _RECORDS, "first": _RECORDS[0]}, "at": [[_RECORDS]]})
@given(_VALUES)
def test_report_writer_matches_indented_json_dumps(value):
    assert _written(_dumps, value) == _written(_stdlib, value)


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


# Nested lists that are int grids or fall just short of one, and
# containers of them, fixed, so that coverage does not rest on what
# Hypothesis draws.  Only a Grid is written as one %-format, so none of
# these is.
_GRID_CASES = {
    "grid-depth-2": [[1, -2], [3, 2**70]],
    "grid-depth-4": [[[[1, 2]], [[3, 4]]], [[[5, 6]], [[7, 8]]]],
    "grid-one-row": [[0]],
    "short-row": [[1, 2], [3]],
    "short-deep-row": [[[1, 2], [3, 4]], [[5, 6], [7]]],
    "long-row": [[1], [2, 3]],
    "empty-row": [[1, 2], []],
    "empty-deep-row": [[[1], [2]], [[], [3]]],
    "empty-first-row": [[], [1]],
    "bool-leaf": [[1, True], [3, 4]],
    "float-leaf": [[1, 2], [3, 4.0]],
    "str-leaf": [["1", 2], [3, 4]],
    "none-leaf": [[1, 2], [3, None]],
    "huge-leaf": [[1, 2], [3, _HUGE]],  # a grid both writers refuse
    "tuple-row": [[1, 2], (3, 4)],
    "tuple-deep-row": [[[1, 2], (3, 4)]],
    "mixed-depth": [[1, 2], [[3], 4]],
    "int-keyed-dict": {1: [[1, 2], [3, 4]], 2: []},
    "str-keyed-dict": {"b": [[1, 2], [3, 4]], "a": [], "c": {}},
    "tuple-grid": ((1, 2), (3, 4)),
    "empty-list": [],
    "empty-dict": {},
}


@pytest.mark.parametrize("value", _GRID_CASES.values(), ids=_GRID_CASES)
def test_report_writer_grid_paths(value):
    assert _written(_dumps, value) == _written(_stdlib, value)
    assert _written(_dumps, {"at": [value]}) == _written(_stdlib, {"at": [value]})


@pytest.mark.parametrize("pad", ["\n", "\n" + "  " * 3], ids=["depth-0", "depth-3"])
@pytest.mark.parametrize("shape", [(1,), (3, 1), (0,), (2, 0), (4, 2, 2)], ids=str)
def test_report_writer_writes_a_grid_as_its_nested_lists(shape, pad):
    grid = Grid(list(range(-3, math.prod(shape) - 3)), shape)
    nested = grid.nested()
    level = [nested]
    for size in shape:
        assert [len(node) for node in level] == [size] * len(level)
        level = [x for node in level for x in node]
    assert level == grid.flat
    assert _dumps(grid, pad) == _dumps(nested, pad)
    assert _dumps({"at": [grid]}) == _stdlib({"at": [nested]})


@pytest.mark.parametrize(
    "make",
    [
        lambda: terminal_operad(N_OPERAD(2), 3),
        lambda: orders_operad(3),
        lambda: endomorphism_symmetric_operad((0, 1), 2),
        lambda: desymmetrise(endomorphism_symmetric_operad((0, 1), 2), 3, 2),
    ],
    ids=["terminal-n2-3", "orders-3", "End{0,1}-2", "desymmetrised-n3-2"],
)
def test_operad_to_json_is_the_document_with_its_grids_nested(make):
    # the document holds the carriers' own decode values and flat tables;
    # operad_to_json thaws the one and nests the other, so it is plain JSON
    op = make()
    doc = operad_document(op)
    assert {type(grid) for grid in doc["mult"].values()} == {Grid}
    own = {id(x) for elems in op.collection.carrier.values() for x in elems}
    assert all(id(x) in own for elems in doc["carriers"].values() for x in elems)
    nested = {**doc, "carriers": json.loads(json.dumps(doc["carriers"])),
              "mult": {name: grid.nested() for name, grid in doc["mult"].items()}}
    assert operad_to_json(op) == nested
    assert _dumps(doc) == _stdlib(nested)


def test_desymmetrise_writes_tables_of_an_empty_carrier(capsys, monkeypatch):
    # an empty arity-2 carrier gives tables with a dimension of length 0;
    # they are written as empty lists, as json.dumps writes their nesting
    code, out, err = run_cli(["desymmetrise", "--n", "2", "-"], capsys, monkeypatch,
                             stdin_text=json.dumps(_EMPTY_CARRIER_DOC))
    assert "Traceback" not in err
    report = report_of(out)
    assert (code, report["outcome"]) == (0, "PASS")
    assert out == _stdlib(report) + "\n"
    mult = report["payload"]["mult"]
    assert (mult["2:0>1:|0,0"], mult["2:1>1:|0,0"], mult["2:0>2:1|1,0"]) == ([[]], [[]], [])


class _CharCount:
    # a stdout that has only write, and keeps only the number of
    # characters written to it
    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_desymmetrise_peaks_below_a_small_multiple_of_its_output(monkeypatch, tmp_path):
    # the largest report: desymmetrised End{0,1} at n = 2, bound 3 writes
    # 9.1 MiB; its tables go to the writer flat, never as nested lists,
    # and the report to stdout as pieces, never as one string.  Measured
    # peak over characters written: 1.213, 1.202, 1.199 and 1.245 under
    # CPython 3.10, 3.11, 3.12 and 3.13.  A writer that joins the report
    # into one string reads 3.14-3.19, and one given nested tables 4.09-4.14
    path = tmp_path / "end3.json"
    path.write_text(json.dumps({"builtin": "endomorphism", "set": [0, 1], "bound": 3}))
    sink = _CharCount()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    tracemalloc.start()
    try:
        code = main(["desymmetrise", str(path), "--n", "2", "--bound", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 9_000_000
    assert peak < 1.5 * sink.chars


def test_a_report_the_writer_refuses_leaves_stdout_empty(monkeypatch):
    # the report is formatted in full before its first piece is written:
    # an int past the digit limit, sorted after a long field, raises from
    # main with nothing on stdout
    monkeypatch.setattr(cli, "_cmd_degeneration",
                        lambda args, doc: {"a": "x" * 10_000, "rank": _HUGE})
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    sink = _CharCount()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    with pytest.raises(ValueError):
        main(["degeneration", "--n", "2", "--k", "2"])
    assert sink.chars == 0


@pytest.mark.parametrize("value", [[_HUGE], [[1], [_HUGE]], [[[_HUGE, 1]]]])
def test_report_writer_refuses_ints_past_the_digit_limit(value):
    with pytest.raises(ValueError):
        _dumps(value)
    with pytest.raises(ValueError):
        _stdlib(value)


class _Counted:
    # a leaf that only default=str writes, counting how often it is written
    def __init__(self):
        self.written = 0

    def __str__(self):
        self.written += 1
        return "counted"


def test_report_writer_formats_each_tuple_once_per_write():
    # a carrier element named in 300 witnesses is formatted once per write
    # and indent; the stdlib formats it at every occurrence
    leaf = _Counted()
    first, second = (leaf, 1), (0, (leaf, 2))
    report = {"failures": [{"witness": [first, second]} for _ in range(300)],
              "first": first}
    expected = _stdlib(report)
    assert leaf.written == 601
    leaf.written = 0
    assert _dumps(report) == expected
    assert leaf.written == 3
    # the next write formats each element again
    assert _dumps(report) == expected
    assert leaf.written == 6


def test_report_writer_sorts_and_encodes_each_key_set_once_per_write(monkeypatch):
    # 300 failure records share one key set: the writer encodes each key
    # once per write and indent, and each value at every occurrence
    encoded = []
    monkeypatch.setattr(cli, "_encode_str", lambda s: encoded.append(s) or json.dumps(s))
    records = [{"witness": [], "instance": "2:0>1:|0,0", "axiom": "associativity"}
               for _ in range(300)]
    report = {"failures": records, "payload": {"failures": records[:1]}}
    assert _dumps(report) == _stdlib(report)
    keys = ("axiom", "instance", "witness")
    assert [encoded.count(k) for k in keys] == [2, 2, 2]
    assert encoded.count("associativity") == 301
    encoded.clear()
    assert _dumps(report) == _stdlib(report)
    assert [encoded.count(k) for k in keys] == [2, 2, 2]


def test_report_writer_keeps_no_text_after_a_write_that_raises():
    leaf = _Counted()
    element = (leaf,)
    with pytest.raises(ValueError):
        _dumps({"a": [element], "b": [_HUGE]})
    assert leaf.written == 1
    assert _dumps({"a": [element]}) == '{\n  "a": [\n    [\n      "counted"\n    ]\n  ]\n}'
    assert leaf.written == 2


def test_report_writer_keeps_no_text_between_writes():
    # each report's tuples are freed before the next is built, so later
    # tuples may take their ids; no write may read an earlier one's text
    for i in range(50):
        report = {"witness": [tuple(range(i, i + 3)), (str(i),), ()]}
        assert _dumps(report) == _stdlib(report)
