"""Every function and method of the package has a caller, every test
oracle a test reader, and the package imports nothing outside the
standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apolar_kit"
TESTS = ROOT / "tests"


def _parse(directories):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for directory in directories for path in sorted(directory.glob("*.py"))}


def _referenced(trees) -> set:
    """Names read as a variable or an attribute; a function's references
    to its own name (recursion) do not count."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for tree in trees:
        visit(tree, frozenset())
    return found


def _functions(node):
    return [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_private_functions_are_referenced():
    trees = _parse([PACKAGE])
    referenced = _referenced(trees.values())
    unused = sorted(f"{path.name}:{f.name}" for path, tree in trees.items()
                    for f in _functions(tree)
                    if f.name.startswith("_") and not f.name.startswith("__")
                    and f.name not in referenced)
    assert unused == []


def test_public_functions_and_methods_are_referenced():
    """Every public function and method is read by package code; tests
    and the bench do not count.  The bench-pinned names below, the
    methods of the bench-pinned `ExactMatrix` and `planemodel` are
    exempt."""
    package = _parse([PACKAGE])
    referenced = _referenced(package.values())
    defined = []
    for path, tree in package.items():
        if path.name == "planemodel.py":
            continue
        defined += [(path.name, f.name) for f in _functions(tree)
                    if not f.name.startswith("_")]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and f"{path.name}:{cls.name}" not in BENCH_PINNED:
                defined += [(path.name, f"{cls.name}.{f.name}") for f in _functions(cls)
                            if not f.name.startswith("__")]
    unused = sorted(f"{module}:{name}" for module, name in defined
                    if name.rpartition(".")[2] not in referenced
                    and f"{module}:{name}" not in BENCH_PINNED)
    assert unused == []


def test_every_oracle_is_read_by_a_test():
    """Every top-level function, class and constant of `tests/oracles.py`
    is read by a `tests/test_*.py` module, or by an oracle that such a
    module reads: a reference no test compares against is dead code."""
    definitions = {}
    for node in ast.parse((TESTS / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            definitions.update((target.id, node) for target in node.targets
                               if isinstance(target, ast.Name))
    tests = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(TESTS.glob("test_*.py"))]
    reached, todo = set(), list(_referenced(tests))
    while todo:
        name = todo.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            todo += _referenced([definitions[name]])
    assert sorted(set(definitions) - reached) == []


def test_polynomial_has_no_arithmetic():
    """`Polynomial` is a validated term record: the package computes on
    integer term maps, and the tests build forms with sympy or term dicts
    (`tests/oracles.py`: `to_sympy`, `from_sympy`, `evaluate`, `scaled`,
    `plus_term`, `normalized`)."""
    [cls] = [node for node in _parse([PACKAGE])[PACKAGE / "core.py"].body
             if isinstance(node, ast.ClassDef) and node.name == "Polynomial"]
    defined = {f.name for f in _functions(cls)}
    assert not defined & {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
                          "zero", "variable", "from_vector", "leading_term", "normalized",
                          "evaluate"}


# Module-level public names that no package code reads, kept because the
# bench names them: each cites the bench line that pins it.
BENCH_PINNED = {
    "core.py:ExactMatrix": "bench/tracer.py:163 wraps ExactMatrix's elimination methods",
    "core.py:change_coordinates": "bench/tracer.py:147 wraps core.change_coordinates",
    "core.py:substitute": "bench/tracer.py:147 wraps change_coordinates, which calls it",
    "pipeline.py:reduce_to_quotient": "bench/test_bench.py:61 reads "
                                      "pipeline.change_coordinates, imported for it",
}

# `planemodel` is left out: only tests read some of its names until the
# plane-model verifier (`verify-c`) gives them a package caller.
LIBRARY_MODULES = ("core", "apolarity", "seeding", "waring", "pipeline", "scroll",
                   "curvegen", "univariate", "jsonio", "cli")


def test_public_names_are_read_by_the_package():
    """Every module-level public function and class of the library modules
    is read by package code: the CLI counts, a re-export in `__init__`
    does not, nor does a definition reading its own name.  Reads from
    inside a bench-pinned definition do not count either, so the
    allow-list holds exactly the names the bench keeps alive."""
    defined, readers = [], []
    for path, tree in _parse([PACKAGE]).items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            key = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{path.name}:{node.name}"
                if path.stem in LIBRARY_MODULES and not node.name.startswith("_"):
                    defined.append((key, node.name))
            if key not in BENCH_PINNED:
                readers.append((key, {n.id if isinstance(n, ast.Name) else n.attr
                                      for n in ast.walk(node)
                                      if isinstance(n, (ast.Name, ast.Attribute))}))
    unread = sorted(key for key, name in defined
                    if not any(name in names for reader, names in readers if reader != key))
    assert unread == sorted(BENCH_PINNED)


def test_imports_are_used():
    """Every name a package module imports at top level is read in it."""
    unused = []
    for path, tree in _parse([PACKAGE]).items():
        if path.name == "__init__.py":
            continue
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{name}" for name in imported if name not in read]
    assert unused == []


def test_package_imports_only_stdlib():
    """Every import in the package is relative or from the standard
    library; sympy and mpmath are test-only oracles."""
    foreign = []
    for path, tree in _parse([PACKAGE]).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{m}" for m in modules
                        if m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_pipeline_imports_nothing_from_apolarity():
    """The quotient reads its inverse system off the scroll; the generic
    kernel over all cubics serves only the `inverse` command."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not {m for m in modules if m and m.rpartition(".")[2] == "apolarity"}


def test_no_span_check_in_the_package():
    """Fermat detection proves its verdict by the pencil's commutation
    with every coordinate Hessian, and both verifiers by Sylvester's
    theorem on binary forms: the package defines no span check in
    Q[t]/(D) (`_certify_scheme`, now `tests/oracles.echelon_certificate`)
    and no scheme builder on a chart (`_scheme`, `_chart`), only
    `poly_gcd` reads `_pseudo_remainder`, and `pipeline._certify_fermat`
    and `pipeline._certify_bound` still reach `_certify_roots`, on the
    forms the quotient read (`AlphaResult.forms`), with no cut of the
    scroll of their own.  They read no lambda: it kills those forms by
    construction, and check (c') is `tests/oracles.certify_functional`."""
    functions = {}
    for tree in _parse([PACKAGE]).values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append(node)
    assert not {"_certify_scheme", "_certify_functional", "_scheme", "_chart"} & set(functions)
    readers = {name for name, nodes in functions.items()
               if "_pseudo_remainder" in _referenced(nodes)}
    assert readers == {"poly_gcd"}
    for certificate in ("_certify_fermat", "_certify_bound"):
        reached, todo = set(), [certificate]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [n for n in _referenced(functions[name]) if n in functions]
        assert "_certify_roots" in reached
        assert "forms" in _referenced(functions[certificate])
        assert "functional" not in _referenced(functions[certificate])
        assert not {"_section", "_surface_form", "_hyperplane_rows"} & reached


def test_the_quotient_substitutes_nothing():
    """The quotient reads the curve's quadrics on the embedded fiber in
    their own g coordinates: `pipeline` imports no `_int_substitute`
    (kept in `core` for the bench-pinned `substitute`), and the scroll is
    cut once per quotient, `_section` read by `_section_forms` alone."""
    trees = _parse([PACKAGE])
    pipeline = trees[PACKAGE / "pipeline.py"]
    imported = {alias.name for node in ast.walk(pipeline) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_int_substitute" not in imported
    readers = [node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "_section" in _referenced([node])]
    assert readers == ["_section_forms"]


def test_only_the_cached_pieces_build_rows():
    """The quotient reads the cubic's functional off the curve's binary
    forms on the section: `pipeline` reads `_restriction_classes` at
    degree 2 only and reaches `_piece` at degree 3 by no path.  It names
    neither `_piece`, `_checked_piece` nor `degree3`; the one build at
    each degree is the cached `IdealReconstruction.degree2` and
    `.degree3`, which alone read the sampled points.  In the curve and
    quotient modules no function but `ideal_pieces` (when its
    certificate fails) reads the degree-3 rows, and none but `.degree3`
    and the quotient's exact check (ii) (`_fiber_quadrics`) the degree-2
    rows."""
    trees = _parse([PACKAGE])
    pipeline = trees[PACKAGE / "pipeline.py"]
    degrees = [ast.literal_eval(node.args[1]) for node in ast.walk(pipeline)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_restriction_classes"]
    assert degrees == [2]
    imported = {alias.name for node in ast.walk(pipeline) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {"_piece", "_checked_piece", "degree3"} & (_referenced([pipeline]) | imported)
    builds = {(node.name, ast.unparse(call.args[-1])) for tree in trees.values()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for call in ast.walk(node)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
              and call.func.id in ("_piece", "_checked_piece")}
    assert builds == {("_checked_piece", "k"), ("degree2", "2"), ("degree3", "3")}

    def readers(attr):
        return {f"{path.name}:{node.name}" for path, tree in trees.items()
                if path.name in ("curvegen.py", "pipeline.py")
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(isinstance(n, ast.Attribute) and n.attr == attr
                        for n in ast.walk(node))}
    assert readers("degree3") <= {"curvegen.py:ideal_pieces"}
    assert readers("degree2") == {"curvegen.py:degree3", "pipeline.py:_fiber_quadrics"}
    assert readers("points") == {"curvegen.py:degree2", "curvegen.py:degree3"}


def test_a_trial_reaches_no_kernel_and_no_point():
    """`pipeline` reaches the exact Sylvester kernel (`_kernel_vectors`)
    only from `AlphaResult.functional`, and the Sylvester system only
    from there and from `alpha_map` on the exact path, when the gcd
    certificate failed; it names neither `sample_points` nor the sampled
    points, which only the degree-2 rows of that path's check (ii) read."""
    pipeline = _parse([PACKAGE])[PACKAGE / "pipeline.py"]
    functions = {node.name: node for node in ast.walk(pipeline)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert {name for name, node in functions.items()
            if "_kernel_vectors" in _referenced([node])} == {"functional"}
    assert {name for name, node in functions.items()
            if "_sylvester_rows" in _referenced([node])} == {"functional", "alpha_map"}
    [branch] = [node for node in ast.walk(functions["alpha_map"])
                if isinstance(node, ast.If) and "_sylvester_rows" in _referenced([node])]
    assert ast.unparse(branch.test) == "not coprime"
    imported = {alias.name for node in ast.walk(pipeline) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not {"sample_points", "points"} & (_referenced([pipeline]) | imported)


def test_the_cubic_builds_no_product():
    """`pipeline._cubic_of` reads F_lambda off lambda by one Hankel
    contraction with the section's degree-2 products (`_products`): the
    package defines no `_powers` (now `tests/oracles.powers`), and
    `_cubic_of` calls no `_mul`."""
    functions = {node.name: node for tree in _parse([PACKAGE]).values()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "_powers" not in functions
    assert "_mul" not in _referenced([functions["_cubic_of"]])


def test_reports_have_one_writer_and_coefficients_one_parser():
    """No package module calls `json.dumps`: every report is written by
    `jsonio.report_text`.  `jsonio` passes `Fraction` no string, only
    `int(...)` of the digits `_RATIONAL` matched, so no coefficient is
    parsed twice."""
    trees = _parse([PACKAGE])
    dumps = sorted(f"{path.name}:{node.lineno}" for path, tree in trees.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "dumps"
                   or isinstance(node, ast.ImportFrom)
                   and "dumps" in {alias.name for alias in node.names})
    assert dumps == []
    calls = [node for node in ast.walk(trees[PACKAGE / "jsonio.py"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Fraction"]
    assert calls
    assert all(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
               and arg.func.id == "int" for call in calls for arg in call.args)
    assert not any(call.keywords for call in calls)
