"""End-to-end tests for the batch command line interface."""

import hashlib
import io
import json
import sys
import time

import pytest

from operadkit.cli import main
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


def test_braid_command(capsys, monkeypatch):
    doc = {"strands": 3, "word": [1, 2, 1, -2, -1, -2]}
    code, out, _ = run_cli(["braid"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["trivial"] is True
    assert payload["permutation"] == [0, 1, 2]
    assert payload["writhe"] == 0


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


def test_artin_check_command(capsys):
    code, out, _ = run_cli(["artin-check", "--k", "4"], capsys)
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["count"] == 6
    relations = {(p["i"], p["j"]): p["relation"] for p in payload["pairs"]}
    assert relations[(1, 3)] == "far-commutation"
    assert relations[(1, 2)] == "braid"


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
    payload = report_of(out)["payload"]
    assert payload["error"] == "RESOURCE_LIMIT"
    assert payload["diagnostic"]["predicted"] == 3**21
    assert payload["diagnostic"]["cap"] == 2**24


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
    payload = report_of(out)["payload"]
    assert payload["error"] == "RESOURCE_LIMIT"
    assert payload["diagnostic"]["predicted"] == 58459239
    assert payload["diagnostic"]["cap"] == 2**24


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
        ("sample", {"ordinal": {"n": 2, "k": 2, "levels": [0]}, "labels": ["a", 1]},
         "label"),
    ],
    ids=["strands string", "strands bool", "word int", "legs int", "leg int",
         "leg without map", "leg without dir", "map f int", "ordinal levels int",
         "map f null", "split block list", "coordinate text", "coordinate 1/0",
         "label text"],
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
