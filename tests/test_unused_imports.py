"""Every name that a module of the package imports is read by that module, or
re-exported: another module of the package imports it from there, or the
package lists it in `__all__`."""
import ast
from pathlib import Path

import supq

SRC = Path(supq.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {f"supq.{p.stem}" if p.stem != "__init__" else "supq": ast.parse(p.read_text())
            for p in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names an import binds, with the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
    return out


def _annotation_names(node) -> set[str]:
    """The names inside a string annotation such as "EndoHomset"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads, in code, in string annotations and in `__all__`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            out |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            out |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out |= _annotation_names(node.annotation)
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                   for t in node.targets)):
            out |= {e.value for e in node.value.elts}
    return out


def _imported_from(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every `from supq.module import name` in the package."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("supq"):
                out |= {(node.module, a.name) for a in node.names}
    return out


def test_every_imported_name_is_read_or_reexported():
    trees = _trees()
    reexported = _imported_from(trees)
    unused = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _imported(tree).items()
        if name not in _read(tree) and (module, name) not in reexported
    ]
    assert unused == []


def test_the_scan_sees_an_unused_import_and_a_reexport():
    tree = ast.parse("import numpy as np\nfrom supq.maps import e_tables, sup_witness\nx = np.zeros(1)\n")
    assert {n for n in _imported(tree) if n not in _read(tree)} == {"e_tables", "sup_witness"}
    other = ast.parse("from supq.a import sup_witness\n")
    assert _imported_from({"supq.b": other}) == {("supq.a", "sup_witness")}
