"""Every function and method of the package has a caller, and the package
imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apolar_kit"


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
    package = _parse([PACKAGE])
    referenced = _referenced(_parse([PACKAGE, ROOT / "tests", ROOT / "bench"]).values())
    defined = []
    for path, tree in package.items():
        defined += [(path.name, f.name) for f in _functions(tree)
                    if not f.name.startswith("_")]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined += [(path.name, f"{cls.name}.{f.name}") for f in _functions(cls)
                            if not f.name.startswith("__")]
    unused = sorted(f"{module}:{name}" for module, name in defined
                    if name.rpartition(".")[2] not in referenced)
    assert unused == []


# Module-level public names that no package code reads, kept because the
# bench names them: each cites the bench line that pins it.
BENCH_PINNED = {
    "core.py:ExactMatrix": "bench/tracer.py:163 wraps ExactMatrix's elimination methods",
    "core.py:change_coordinates": "bench/tracer.py:147 wraps core.change_coordinates",
    "core.py:substitute": "bench/tracer.py:147 wraps change_coordinates, which calls it",
    "pipeline.py:reduce_to_quotient": "bench/test_bench.py:61 reads "
                                      "pipeline.change_coordinates, imported for it",
}

LIBRARY_MODULES = ("core", "apolarity", "seeding", "waring", "pipeline", "scroll")


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
