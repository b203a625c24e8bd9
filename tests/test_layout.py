"""Layout guards for the library modules, read with the standard ``ast``.

* No module imports a name it never uses.
* Every public module-level function or class is exported from
  ``__init__.py`` or used by other library code: another module, or another
  definition of its own module.  A helper that no library code reaches is
  deleted, not kept for the tests alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentkit"


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> set:
    """Every name the code under ``node`` reads, as a bare name or as an
    attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _imported_names(tree) -> set:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "__future__":
            continue
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in n.names)
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue  # its imports are the exports
        used = _used_names(tree)
        unused += [f"{name}.{imp}" for imp in sorted(_imported_names(tree) - used)]
    assert unused == []


def test_every_public_definition_is_exported_or_used():
    modules = _modules()
    exported = _imported_names(modules["__init__"])
    unreached = []
    for name, tree in modules.items():
        others = set()
        for other, other_tree in modules.items():
            if other != name:
                others |= _used_names(other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported | others:
                continue
            if not any(node.name in _used_names(sibling)
                       for sibling in tree.body if sibling is not node):
                unreached.append(f"{name}.{node.name}")
    assert unreached == []
