"""Static checks on the source tree, read from each file's syntax tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "operadkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    imported.discard("annotations")
    assert sorted(imported - _read_names(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_private_name_is_read(path):
    # a private function, class or constant that its own module never reads
    # is dead: no other module is meant to reach it
    tree = _tree(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and name[:2] != "__"}
    assert sorted(private - _read_names(tree)) == []


def _is_private(name):
    return name.startswith("_") and name[:2] != "__"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    # a private name is imported from nowhere, and read as an attribute
    # only where the module itself defines or assigns it
    tree = _tree(path)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            reads += [(node.lineno, a.name) for a in node.names if _is_private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and node.attr not in defined
        ):
            reads.append((node.lineno, node.attr))
    assert reads == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"],
    ids=lambda p: p.name,
)
def test_only_errors_reads_the_work_budget(path):
    # every refusal past LIST_CAP goes through errors.within_cap, so a change
    # of budget policy is one edit
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "LIST_CAP" not in names


def _imported_modules(tree):
    """Every module the file names in an import statement, an
    importlib.import_module call or an __import__ call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("import_module", "__import__") and node.args:
                arg = node.args[0]
                yield arg.value if isinstance(arg, ast.Constant) else "<dynamic>"


@pytest.mark.parametrize(
    "path", [ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "reference.py"],
    ids=lambda p: p.name,
)
def test_oracles_do_not_import_the_package_under_test(path):
    # expected values must come from a second route, not from operadkit
    for module in _imported_modules(_tree(path)):
        assert not module.startswith((".", "<")), module
        assert module.split(".")[0] != "operadkit", module


def test_no_command_builds_a_simplicial_complex():
    # homology reads Milgram's cells and nerve counts chains; nerve and
    # order_complex stay in quasicat as the definitional complexes that the
    # tests check the cells against
    names = set()
    for node in ast.walk(_tree(PACKAGE / "cli.py")):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert sorted(names & {"nerve", "order_complex", "_nerve"}) == []


def test_only_the_square_enumeration_takes_a_flavor_flag():
    # every flavor lifts a permutation to its positive braid and an inverse
    # to that braid inverted; only _squares picks corners and verticals by
    # flavor
    takers = []
    for node in ast.walk(_tree(PACKAGE / "operads.py")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if "braided" in {a.arg for a in params}:
                takers.append(getattr(node, "name", "<lambda>"))
    assert takers == ["_squares"]


def test_j_order_has_one_generator():
    # build_j closes Milgram's facets; the label-map rule on pairs of labels
    # is the oracle perfbench/reference.j_relations, which the tests compare
    # build_j with
    calls = [
        node.lineno
        for node in ast.walk(_tree(PACKAGE / "quasicat.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rel"
    ]
    assert calls == []


def test_j_covers_come_from_the_facets():
    # build_j keeps the facets it closes as J's covering pairs; un-closing
    # the below masks again is the oracle oracles.covers_from_masks
    poset = next(
        node
        for node in _tree(PACKAGE / "quasicat.py").body
        if isinstance(node, ast.ClassDef) and node.name == "MilgramPoset"
    )
    method = next(
        node
        for node in poset.body
        if isinstance(node, ast.FunctionDef) and node.name == "covering_pairs"
    )
    names = {
        getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(method)
    }
    assert sorted(names & {"below", "_bits"}) == []


def _functions_that(tree, predicate):
    """Names of the top-level functions whose body holds a node that
    satisfies predicate, in source order."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and any(map(predicate, ast.walk(node)))
    ]


def test_only_the_index_ordinals_price_an_operad():
    # _index_ordinals is the one gate on an operad's size: it refuses a bound
    # below 1 and prices the candidate maps before it lists an ordinal, so a
    # builtin is priced because it lists its carriers, not because it
    # remembers a call; the check and desymmetrise keep their own bound test
    # so that their other refusals do not come first
    tree = _tree(PACKAGE / "operads.py")
    counters = _functions_that(
        tree,
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_candidate_count",
    )
    assert counters == ["_index_ordinals"]
    bound_tests = _functions_that(
        tree,
        lambda node: isinstance(node, ast.Constant)
        and node.value == "bound must be at least 1",
    )
    assert bound_tests == ["_index_ordinals", "check_operad_axioms", "desymmetrise"]


def test_only_clear_cross_records_fill_in():
    # the Smith normal form has one elimination step: every function of
    # homology.py that adds a column to a row's index (rows[r].add) is it
    tree = _tree(PACKAGE / "homology.py")
    writers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add"
        and isinstance(node.func.value, ast.Subscript)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "rows"
    }
    assert writers == {"_clear_cross"}
