"""Layout guards for the library modules, read with the standard ``ast``.

* No module imports a name it never uses.
* Every public module-level function or class is exported from
  ``__init__.py`` or used by other library code: another module, or another
  definition of its own module.  A helper that no library code reaches is
  deleted, not kept for the tests alone.
* No module imports another module's private ``_name``, or reads one off a
  module it imported: a helper two modules share is public.
* An import inside a function is kept only to break a cycle: the imported
  module imports this one at top level.  Every other import sits at the top.
* No module imports ``dataclasses``: it loads ``inspect`` (and ``ast``,
  ``dis``, ``tokenize``) at every CLI start, and each decorated class
  execs its generated methods.  Records are NamedTuples or
  ``scalars.Record`` classes; a fresh ``import momentkit.cli`` is checked
  to load neither module.

(That ``scalars.py`` is the only module importing ``mpmath`` is checked in
``test_scalars.py``.)
"""

import ast
import subprocess
import sys
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _targets(node) -> list:
    """The modules an import statement reads: the package's own by their
    stem (``from . import simplex`` reads ``simplex``), others by name."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if node.level and node.module is None:
        return [a.name for a in node.names]
    return [node.module]


def test_no_private_names_across_modules():
    crossings = []
    for name, tree in _modules().items():
        sibling_modules = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level:
                if n.module is None:
                    sibling_modules.update(a.asname or a.name for a in n.names)
                else:
                    crossings += [f"{name}: {n.module}.{a.name}"
                                  for a in n.names if _is_private(a.name)]
        crossings += [f"{name}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in sibling_modules and _is_private(n.attr)]
    assert crossings == []


def test_function_local_imports_only_break_cycles():
    modules = _modules()
    top_level = {}
    for name, tree in modules.items():
        top_level[name] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for n in ast.walk(stmt):
                if isinstance(n, ast.ImportFrom) and n.level:
                    top_level[name].update(_targets(n))
    local = set()
    for name, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for n in ast.walk(fn):
                if isinstance(n, (ast.Import, ast.ImportFrom)):
                    local.update(f"{name}.{fn.name}: {target}" for target in _targets(n)
                                 if name not in top_level.get(target, ()))
    assert sorted(local) == []


def test_no_module_imports_dataclasses():
    importers = [name for name, tree in _modules().items() for n in ast.walk(tree)
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 and any(t.split(".")[0] == "dataclasses" for t in _targets(n))]
    assert importers == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import momentkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
