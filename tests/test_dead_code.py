"""Every module-level private function of the package has a caller."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "apolar_kit"


def test_private_functions_are_referenced():
    defined = {}
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = path.name
        for top in tree.body:
            # a function calling itself is not a caller
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in referenced)
    assert unused == []
