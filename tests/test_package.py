"""Only what runs stays in the package: every public function, class,
method and property of ``src/apmoments`` is named somewhere in the package
or its scripts, outside its own definition and ``__init__.py``.  A helper
only the tests call belongs in ``tests/oracles.py``.  And the modules form
layers (LAYERS): each imports only from the layers below its own."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "apmoments").glob("*.py") if p.name != "__init__.py")
# The package's layers, lowest first; the modules of one layer import none
# of each other.
LAYERS = [{"config"}, {"sieve"}, {"arith_fn"}, {"counting"}, {"prime_sums", "moments", "model"},
          {"stats"}, {"cli"}]


def _names(tree: ast.AST) -> Counter:
    """How often each name is read in a tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _public_defs(tree: ast.Module):
    """(qualified name, node) of every public def: module-level functions and
    classes, and the methods and properties of public classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_def_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES}
    scripts = [ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "scripts").glob("*.py"))]
    names = sum((_names(tree) for tree in [*trees.values(), *scripts]), Counter())
    unused = [f"{path.stem}.{qualified}"
              for path, tree in trees.items() for qualified, node in _public_defs(tree)
              if names[node.name] <= _names(node)[node.name]]
    assert not unused, f"public defs nothing calls: {', '.join(unused)}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports: from .x import ... and from . import x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_modules_import_only_lower_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    assert {path.stem for path in MODULES} == set(layer)
    upward = [f"{path.stem} -> {name}" for path in MODULES
              for name in sorted(_imported_modules(ast.parse(path.read_text(), str(path))))
              if layer.get(name, -1) >= layer[path.stem]]
    assert not upward, f"imports from the same or a higher layer: {', '.join(upward)}"
