"""End-to-end tests for the batch command line interface."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from operadkit import zigzags
from operadkit.braids import BraidWord
from operadkit.cli import _build_parser, _dumps, _grid, main
from operadkit.errors import ResourceLimit, printable, printable_by_log2
from operadkit.operads import (
    endomorphism_symmetric_operad,
    operad_to_json,
    orders_operad,
)
from operadkit.ordinal_maps import OrdinalMap
from operadkit.ordinals import make_ordinal
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
        assert "Traceback" not in err


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


def test_bad_json_is_usage_error(capsys, monkeypatch):
    code, out, _ = run_cli(["braid"], capsys, monkeypatch, stdin_text="not json")
    assert code == 2
    assert report_of(out)["payload"]["error"] == "BAD_JSON"


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


# An int grid (equally long, non-empty lists nested to any depth, int
# leaves) is written by one %-format.  A near-grid breaks the grid in one
# place, and so leaves for the joins or the stdlib: one row shorter than
# the others, an empty row, a leaf that is not an int, or a tuple row.  A
# leaf past the int-to-str digit limit keeps the grid; both writers refuse
# it.
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
# grids and near-grids reach the %-format and each way out of it.
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
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    | st.dictionaries(st.integers(-9, 9), inner, max_size=3)
    | st.dictionaries(st.text(max_size=2) | st.integers(-2, 2), inner, max_size=3),
    max_leaves=12,
)


def _written(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as e:
        return type(e)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_VALUES)
def test_report_writer_matches_indented_json_dumps(value):
    assert _written(_dumps, value) == _written(_stdlib, value)


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


# Each way into and out of the %-format, fixed, so that coverage does not
# rest on what Hypothesis draws.  Each case names whether _dumps writes it
# by _grid, which it tries on non-empty lists of lists only.
_GRID_CASES = {
    "grid-depth-2": ([[1, -2], [3, 2**70]], True),
    "grid-depth-4": ([[[[1, 2]], [[3, 4]]], [[[5, 6]], [[7, 8]]]], True),
    "grid-one-row": ([[0]], True),
    "short-row": ([[1, 2], [3]], False),
    "short-deep-row": ([[[1, 2], [3, 4]], [[5, 6], [7]]], False),
    "long-row": ([[1], [2, 3]], False),
    "empty-row": ([[1, 2], []], False),
    "empty-deep-row": ([[[1], [2]], [[], [3]]], False),
    "empty-first-row": ([[], [1]], False),
    "bool-leaf": ([[1, True], [3, 4]], False),
    "float-leaf": ([[1, 2], [3, 4.0]], False),
    "str-leaf": ([["1", 2], [3, 4]], False),
    "none-leaf": ([[1, 2], [3, None]], False),
    "huge-leaf": ([[1, 2], [3, _HUGE]], None),  # a grid both writers refuse
    "tuple-row": ([[1, 2], (3, 4)], False),
    "tuple-deep-row": ([[[1, 2], (3, 4)]], False),
    "mixed-depth": ([[1, 2], [[3], 4]], False),
    "int-keyed-dict": ({1: [[1, 2], [3, 4]], 2: []}, None),
    "str-keyed-dict": ({"b": [[1, 2], [3, 4]], "a": [], "c": {}}, None),
    "tuple-grid": (((1, 2), (3, 4)), None),
    "empty-list": ([], None),
    "empty-dict": ({}, None),
}


@pytest.mark.parametrize("value, is_grid", _GRID_CASES.values(), ids=_GRID_CASES)
def test_report_writer_grid_paths(value, is_grid):
    assert _written(_dumps, value) == _written(_stdlib, value)
    assert _written(_dumps, {"at": [value]}) == _written(_stdlib, {"at": [value]})
    if is_grid is not None:
        tried = type(value) is list and value and set(map(type, value)) == {list}
        assert bool(tried and _grid(value, "\n") is not None) == is_grid


@pytest.mark.parametrize("value", [[_HUGE], [[1], [_HUGE]], [[[_HUGE, 1]]]])
def test_report_writer_refuses_ints_past_the_digit_limit(value):
    with pytest.raises(ValueError):
        _dumps(value)
    with pytest.raises(ValueError):
        _stdlib(value)
