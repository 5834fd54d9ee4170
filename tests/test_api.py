"""Every public function or class in the library has a caller outside the
tests: a name that only tests use is either moved into the tests or
exercised by `minent check`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "minent").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text()) for path in CALLERS}


def _loads(tree: ast.AST) -> list:
    """(name, line) of every load of a variable or an attribute. Strings
    (such as `__all__` entries) and import statements (such as the
    `__init__` re-exports) are not loads."""
    return [(node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)]


LOADS = {path: _loads(tree) for path, tree in TREES.items()}


def public_definitions():
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield pytest.param(path, node, id=f"{path.stem}.{node.name}")


@pytest.mark.parametrize("path, definition", public_definitions())
def test_public_name_has_library_caller(path, definition):
    # a load inside the definition's own body (recursion) is not a caller
    own = range(definition.lineno, definition.end_lineno + 1)
    callers = [f"{caller.relative_to(ROOT)}:{line}"
               for caller, loads in LOADS.items() for name, line in loads
               if name == definition.name
               and not (caller == path and line in own)]
    assert callers, \
        f"{definition.name} is referenced in neither src/ nor perfbench/"
