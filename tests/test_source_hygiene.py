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
    # build_j keeps the facets it closes as J's covering pairs: it appends
    # to covers only inside its loop over _facets, and reads no below mask
    # to do it; un-closing the below masks again is the oracle
    # oracles.covers_from_masks
    build = next(
        node
        for node in _tree(PACKAGE / "quasicat.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "build_j"
    )
    appends = [
        node
        for node in ast.walk(build)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "covers.append"
    ]
    in_facet_loops = [
        node
        for loop in ast.walk(build)
        if isinstance(loop, ast.For) and "_facets" in ast.unparse(loop.iter)
        for node in ast.walk(loop)
        if node in appends
    ]
    assert appends and in_facet_loops == appends
    names = {
        getattr(node, "attr", None) or getattr(node, "id", None)
        for call in appends
        for node in ast.walk(call)
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


def test_the_first_square_condition_reads_r_off_sigma_p():
    # sigma2 = r^-1 . sigma . p is onto and order-preserving, so r is forced:
    # the check loops over the verticals for p only, and r lists the values
    # of sigma . p in order of first appearance
    check = next(
        node
        for node in _tree(PACKAGE / "operads.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_square_eq1"
    )
    loops = [
        ast.unparse(node.target)
        for node in ast.walk(check)
        if isinstance(node, (ast.For, ast.comprehension))
        and "verticals" in ast.unparse(node.iter)
    ]
    assert loops == ["p_table"]
    r_values = [
        ast.unparse(node.value)
        for node in ast.walk(check)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "r_table"
    ]
    assert r_values == ["tuple(dict.fromkeys(moved))"]


# The public functions that no code of the package names, each kept as a
# library entry point for one of three reasons
LIBRARY_ENTRY_POINTS = (
    # checked by the acceptance tests
    "all_factorizations",
    "braided_action_from_quasisymmetric",
    "connected_components",
    "crossing_sums",
    "degeneration_check",
    "extend_multiplication",
    "is_quasisymmetric",
    # inputs of verdicts that ROADMAP.md plans: a braided operad that is
    # not symmetric, quasisymmetry, and the zig-zag class of a braid word
    "non_quasisymmetric_operad",
    "pushforward",
    "reflavor",
    "span_of_word",
    # the definitional complexes that the tests check Milgram's cells against
    "nerve",
    "order_complex",
    # the nested form of operad_document, which perfbench's set-up writes
    # as task documents
    "operad_to_json",
)


def test_every_public_function_is_reached():
    # a public module-level function is named by code of the package other
    # than its own body (a function, a method or a module statement; the
    # re-exports of __init__.py do not count), or it is a listed entry point
    functions, readers = {}, {}
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and not _is_private(node.name):
                functions[node.name] = path.name
            for sub in ast.walk(node):
                read = isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                name = sub.id if read else getattr(sub, "attr", None)
                readers.setdefault(name, set()).add(getattr(node, "name", None))
    unreached = [
        f"{module}:{name}"
        for name, module in sorted(functions.items())
        if not readers.get(name, set()) - {name} and name not in LIBRARY_ENTRY_POINTS
    ]
    assert unreached == []
    assert sorted(set(LIBRARY_ENTRY_POINTS) - set(functions)) == []


# The public methods and properties that no code of the package reaches,
# each kept for its reason
UNREACHED_METHODS = {
    "_Parser.error": "argparse calls it on a usage error",
    "MilgramPoset.above": "perfbench/tracing.py counts quasicat.poset_relations as its "
    "len, which the view reads from the bit counts of the below masks",
    "BraidedActions.to_json": "the report of the braided-action verdict that ROADMAP.md plans",
}


def test_every_public_method_is_reached():
    # a public method or property of a package class (dunders aside) is read
    # as an attribute by code of the package other than its own body, and
    # its class is named by code of the package other than the class itself
    # and the listed entry points; or it is listed above.  A self.<name>
    # read inside class D reaches D's member only; any other read is
    # matched by name, not type, so a name that several classes define
    # (to_json) is reached in each of them
    methods, attributes, names = [], {}, {}
    for path in MODULES:
        for node in _tree(path).body:
            units = [(node, (getattr(node, "name", None), None))]
            if isinstance(node, ast.ClassDef):
                units = [(sub, (node.name, getattr(sub, "name", None))) for sub in node.body]
                methods += [
                    (node.name, sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
            for unit, owner in units:
                for sub in ast.walk(unit):
                    if isinstance(sub, ast.Attribute):
                        on_self = getattr(sub.value, "id", None) == "self"
                        target = owner[0] if on_self and owner[1] else None
                        attributes.setdefault(sub.attr, set()).add((owner, target))
                    elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        names.setdefault(sub.id, set()).add(owner[0])
    unreached = [
        f"{cls}.{name}"
        for cls, name in sorted(methods)
        if not names.get(cls, set()) - {cls, *LIBRARY_ENTRY_POINTS}
        or not any(
            reader != (cls, name) and target in (None, cls)
            for reader, target in attributes.get(name, ())
        )
    ]
    assert unreached == sorted(UNREACHED_METHODS)


# The optional parameters that no package call passes, each kept for its
# reason; the listed entry points and unreached methods keep theirs too
UNPASSED_PARAMETERS = {
    "main.argv": "perfbench, tools/stdout_digests.py and the tests run the CLI in-process",
    "is_trivial.limit": "the tests drive the handle-reduction budget, and no "
    "test-sized word exhausts it at the default",
}


def _optional_parameters(func, bound):
    """The parameters of a def that have a default, each as (name, position),
    the position counted in a call's positional arguments (None for a
    keyword-only one); ``bound`` drops the self or cls of a method."""
    args = func.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, at) for at, a in enumerate(positional) if at >= first)
    yield from (
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )


def _passes(call, name, at):
    """Whether a call passes the parameter ``name`` at position ``at``: by
    keyword, by a ``**`` or ``*`` argument, or in its positional arguments."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return at is not None
    return at is not None and len(call.args) > at


def test_every_optional_parameter_is_passed():
    # an optional parameter of a public function or method (dunders aside)
    # is passed, by position or keyword, at some call of that name in code
    # of the package other than the def's own body; or its def is a listed
    # entry point or unreached method, or the parameter is listed above
    defs, calls = [], []
    for path in MODULES:
        for node in _tree(path).body:
            units = [(node, getattr(node, "name", None))]
            if isinstance(node, ast.ClassDef):
                units = [(sub, f"{node.name}.{getattr(sub, 'name', '')}") for sub in node.body]
            for unit, owner in units:
                if isinstance(unit, ast.FunctionDef) and not unit.name.startswith("_"):
                    defs.append((owner, unit, "." in owner))
                calls += [(owner, sub) for sub in ast.walk(unit) if isinstance(sub, ast.Call)]
    unpassed = [
        f"{owner}.{name}"
        for owner, func, bound in defs
        if owner not in LIBRARY_ENTRY_POINTS and owner not in UNREACHED_METHODS
        for name, at in _optional_parameters(func, bound)
        if not any(
            caller != owner
            and getattr(call.func, "attr", getattr(call.func, "id", None)) == func.name
            and _passes(call, name, at)
            for caller, call in calls
        )
    ]
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS)
