"""Source hygiene of ``src/realtori``, read with ``ast``.

No module imports a name it does not use (a name in its ``__all__`` counts
as used), and every private top-level name (``_name``, not ``__name__``) is
referenced somewhere in the package: a deletion leaves neither an import nor
a helper behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "realtori"
MODULES = sorted(PACKAGE.glob("*.py"))


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def referenced(tree: ast.Module) -> set[str]:
    """Every name loaded, every attribute and every name imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import of the module that it never loads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in loaded | exported(tree)]


def private_top_level(tree: ast.Module) -> list[str]:
    """The private names that the module's top-level statements bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references_by_statement(tree: ast.Module) -> list[tuple[str | None, set[str]]]:
    """For each top-level statement, the name it defines by ``def`` or
    ``class`` (None for any other statement) and the names it references."""
    return [(node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             else None, referenced(node)) for node in tree.body]


def used_outside_definition(statements: list, name: str) -> bool:
    """Whether ``name`` is referenced anywhere but in its own definition."""
    return any(own != name and name in refs for own, refs in statements)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(parsed(path)) == []


def test_every_private_top_level_name_is_referenced():
    trees = {path.name: parsed(path) for path in MODULES}
    statements = [s for tree in trees.values() for s in references_by_statement(tree)]
    unused = [(module, name) for module, tree in trees.items() for name in private_top_level(tree)
              if not used_outside_definition(statements, name)]
    assert unused == []


def test_the_checks_see_a_leftover():
    """An unused import and a private helper that nothing calls are found."""
    tree = ast.parse("from functools import cached_property, lru_cache\n"
                     "import numpy as np\n"
                     "def _gram(x):\n    return _gram(np.dot(x, x))\n"
                     "@lru_cache\ndef f():\n    return 1\n")
    assert unused_imports(tree) == ["cached_property"]
    assert private_top_level(tree) == ["_gram"]
    assert not used_outside_definition(references_by_statement(tree), "_gram")
