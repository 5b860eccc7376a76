"""Every command answers any input with one report.

Hypothesis feeds the nine document-reading commands arbitrary JSON, and
single-field mutations (one field replaced by arbitrary JSON, or deleted)
of one valid document per command.  The eight flag-only commands run on a
grid of small n and k, negative ones included.  Each input must give
exactly one JSON run report on stdout, an exit code in {0, 1, 2} that
matches its outcome, and no traceback.

Sizes stay small: integers are drawn from -4..8, every "bound" is at most
3, and the flags stay at n <= 2 and k <= 3.  Inputs past a budget are
refused, but some admitted ones are still slow (ROADMAP item 6):
`artin-check --k 64` takes about 74 s and `verify-partition --k 1000000`
about 12 s, so a larger grid would spend minutes on single cases.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from operadkit.cli import main
from operadkit.operads import operad_to_json, orders_operad
from test_cli import two_block_span


VALID = {
    "check-map": {
        "source": {"n": 2, "levels": [0]},
        "target": {"n": 2, "levels": [1]},
        "f": [1, 0],
    },
    "factorize": {
        "source": {"n": 2, "levels": [0, 1, 0]},
        "target": {"n": 2, "levels": [1]},
        "f": [1, 0, 1, 1],
    },
    "braid": {"strands": 3, "word": [1, 2, 1, -2, -1, -2]},
    "zigzag": two_block_span().to_json(),
    "split": {"zigzag": two_block_span().to_json(), "blocks": [2, 2]},
    "operad-check": operad_to_json(orders_operad(2)),
    "desymmetrise": {"builtin": "orders", "bound": 2},
    "classify": {"dim": 2, "points": [[0, 1], [1, "1/2"], [2, 0]]},
    "sample": {"ordinal": {"n": 2, "levels": [0, 1]}, "labels": [2, 0, 1]},
}

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-4, 8)
    | st.floats(-4, 8)
    | st.text(max_size=4)
)
JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


@st.composite
def _mutations(draw, doc):
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(JSON)
    return doc


def _cap_bounds(node):
    if isinstance(node, dict):
        for key, child in node.items():
            if key == "bound" and isinstance(child, int) and child > 3:
                node[key] = 3
            _cap_bounds(child)
    elif isinstance(node, list):
        for child in node:
            _cap_bounds(child)
    return node


def _run(argv: list, doc=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
def test_any_document_gets_one_report(command):
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.one_of(JSON, _mutations(VALID[command])))
    def check(doc):
        _assert_one_report([command], *_run([command], _cap_bounds(doc)))

    check()


def _assert_one_report(argv, code, out, err):
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert (report["outcome"], code) in {("PASS", 0), ("FAIL", 1), ("ERROR", 2)}
    assert "Traceback" not in err


# the flags each flag-only command runs with besides --n and --k
FLAG_COMMANDS = {
    "enumerate": [[]],
    "build-q": [[]],
    "build-j": [[]],
    "nerve": [["--category", "Q"], ["--category", "J"]],
    "homology": [["--category", "Q"], ["--category", "J"]],
    "verify-partition": [["--trials", "0"], ["--trials", "5"]],
    "degeneration": [[]],
}


def _flag_runs():
    for k in range(-1, 4):
        yield ["artin-check", "--k", str(k)]
        for n in range(-1, 3):
            for command, extras in FLAG_COMMANDS.items():
                for extra in extras:
                    yield [command, "--n", str(n), "--k", str(k), *extra]


@pytest.mark.parametrize("argv", list(_flag_runs()), ids=" ".join)
def test_flag_only_commands_answer_with_one_report(argv):
    code, out, err = _run(argv)
    _assert_one_report(argv, code, out, err)
    if "-1" in argv:  # the one negative value the grid gives n or k
        assert code == 2, out
