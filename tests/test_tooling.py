"""Source rules that hold across the package."""

import ast
from pathlib import Path

import frobtilt

SOURCES = sorted(Path(frobtilt.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_bare_assert_in_library():
    # python -O strips assert statements; result guards raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names(node) -> set[str]:
    """Every name a node reads or writes, attribute names included."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_no_unused_imports_or_private_functions():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    top_level = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        used = _names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{name}:{node.lineno} imports unused {bound}")
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
                # a reference from the function's own body (recursion) does not count
                and not any(
                    node.name in names for other, names in top_level if other is not node
                )
            ):
                found.append(f"{name}:{node.lineno} defines unreferenced {node.name}")
    assert found == []


def test_public_functions_exported_or_called():
    # public API with no caller is deleted
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    top_level = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    found = [
        f"{name}:{node.lineno} defines {node.name}, neither exported nor called"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in exported
        and not any(node.name in names for other, names in top_level if other is not node)
    ]
    assert found == []


def test_no_fractions_in_library():
    # rational values stay integer numerators over a shared denominator
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
    ]
    assert found == []


def test_oracles_import_no_private_library_name():
    # an oracle that borrows a private helper shares the code it should check
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"oracles.py:{node.lineno} imports {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frobtilt"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_the_product_routes_read_factors():
    # the nef layer reads wall rows on class coordinates and never a product's factors
    readers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_factors"
    }
    assert "fan.py" in readers
    assert readers <= {"fan.py", "cohomology.py", "frobenius.py", "tilting.py"}
