"""Every name a source module imports at module level is used.

No linter is a dependency of the project, so this reads the modules with
``ast``: a module-level import must be read in its module, as a name or
as the base of an attribute (``np.ndarray``); ``__future__`` imports are
exempt.  The package's ``__init__`` re-exports instead, so the names it
imports must be exactly its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import oomid

SOURCES = sorted(Path(oomid.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names bound by the module-level imports of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads; an attribute's base is such a name."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("no __all__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "__init__.py":
        assert imported_names(tree) == exported_names(tree)
    else:
        assert imported_names(tree) - read_names(tree) == set()
