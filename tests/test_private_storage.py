"""No module of the package reads another class's private storage.

A class's `_`-prefixed attributes (its `self._x` fields, class-level fields
and methods) belong to the module that defines it.  Other modules' hot
loops read the public read-only views `Graph.adj`, `Graph.degrees` and
`PartialColoring.colors`, and internal cores write through
`colorings._recolor`.
"""

import ast
from pathlib import Path

import equicolor

SRC = Path(equicolor.__file__).parent
# storage names that the public views, the derived domain size and the
# one adjacency copy replaced
RETIRED = {
    "_adj", "_degrees", "_assign", "_domain_size", "_sets", "_edge_count", "_max_degree",
}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_attributes(tree):
    """The private attribute names that the module's classes define."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
        names.update(
            node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        )
    return set(filter(_is_private, names))


def parse_modules(src=SRC):
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def foreign_private_reads(src=SRC):
    """(module, attribute) for every access to a private attribute that
    classes of other modules define, or to a retired storage name, and that
    the module's own classes do not define."""
    trees = parse_modules(src)
    owned = {name: private_attributes(tree) for name, tree in trees.items()}
    found = set()
    for name, tree in trees.items():
        foreign = set().union(RETIRED, *(o for m, o in owned.items() if m != name))
        found.update(
            (name, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in foreign - owned[name]
        )
    return found


def test_private_storage_is_found():
    owned = {name: private_attributes(tree) for name, tree in parse_modules().items()}
    assert {"_counts"} <= owned["colorings.py"]
    assert {"_num", "_den", "_bound"} <= owned["distributions.py"]


def test_no_module_reads_another_class_private_storage():
    assert foreign_private_reads() == set()


def test_no_class_defines_retired_storage():
    for tree in parse_modules().values():
        assert private_attributes(tree).isdisjoint(RETIRED)
