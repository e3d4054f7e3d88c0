"""Every name a source module imports at module level is used, and the
scalar calculus stays off the solve path.

No linter is a dependency of the project, so this reads the modules with
``ast``: a module-level import must be read in its module, as a name or
as the base of an attribute (``np.ndarray``); ``__future__`` imports are
exempt.  The package's ``__init__`` re-exports instead, so the names it
imports must be exactly its ``__all__``.

Tables are arrays from the generator and the loader to the solvers, so
the modules of that path import nothing from ``values`` or ``sets``;
``convert`` only their codec, which ``sets`` alone defines.  The
elimination engine both solvers share imports only ``diagram`` of the
package, so no algebra or solver code reaches it.
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


CALCULUS = {"values", "sets"}
CODEC = {"encode_value", "encode_orders", "encode_sets", "decode_value", "decode_set"}


def tree_of(name: str) -> ast.Module:
    path = Path(oomid.__file__).parent / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def calculus_imports(tree: ast.Module) -> set[str]:
    """The names any import of ``tree``, at any depth, takes from ``values``
    or ``sets``, and those modules if it imports them whole."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("oomid.")
            if module in CALCULUS:
                names |= {a.name for a in node.names}
            elif module in ("", "oomid"):
                names |= {a.name for a in node.names if a.name in CALCULUS}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.removeprefix("oomid.") in CALCULUS}
    return names


@pytest.mark.parametrize("name", ["elimination", "exact", "generator", "bench"])
def test_solve_path_imports_no_calculus(name):
    assert calculus_imports(tree_of(name)) == set()


def package_imports(tree: ast.Module) -> set[str]:
    """The ``oomid`` modules any import of ``tree``, at any depth, reads
    from, and those it imports whole."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "oomid":
                module = module.removeprefix("oomid").removeprefix(".")
                modules |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names if a.name.split(".")[0] == "oomid"}
    return modules


def test_elimination_imports_only_diagram():
    assert package_imports(tree_of("elimination")) == {"diagram"}


def test_convert_imports_only_the_codec():
    assert calculus_imports(tree_of("convert")) <= CODEC


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_sets_defines_the_codec(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith(("encode_", "decode_"))
    }
    assert defined == (CODEC if path.name == "sets.py" else set())
