"""The check caps are constants of the verifier: verify.py defines and reads
MATRIX_CAP, TABLE_SCAN_CAP and EXHAUSTIVE_PAIR_CAP, and no other module of the
package names them.  The kernels take no cap: the only `cap` parameters are
the homset cap's, and the verifier's guard that applies a check cap.  Every
guard of `supq.lattice` is a CapExceeded, so the verifier skips a check past
any of them the one way."""
import ast
from pathlib import Path

import supq
from supq import lattice

SRC = Path(supq.__file__).parent
CHECK_CAPS = {"MATRIX_CAP", "TABLE_SCAN_CAP", "EXHAUSTIVE_PAIR_CAP"}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _cap_names(tree: ast.Module) -> set[str]:
    """The check caps that a module names: read, assigned, imported or read
    off another module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rpartition(".")[2] for a in node.names)
    return out & CHECK_CAPS


def _cap_parameters(tree: ast.Module) -> set[str]:
    """The functions and methods that take a parameter named `cap`."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(a.arg == "cap" for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs)}


def _imported(tree: ast.Module) -> set[str]:
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def test_the_check_caps_live_in_verify_alone():
    found = {name: _cap_names(tree) for name, tree in _trees().items()}
    assert {name: caps for name, caps in found.items() if caps} == {"verify": CHECK_CAPS}
    defined = {t.id for node in _trees()["verify"].body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)}
    assert CHECK_CAPS <= defined


def test_the_structures_module_imports_no_cap():
    names = _imported(_trees()["structures"])
    assert [n for n in names if n.endswith("_CAP") or "CapExceeded" in n] == []


def test_only_the_homset_cap_and_the_check_guard_take_a_cap():
    found = {name: _cap_parameters(tree) for name, tree in _trees().items()}
    assert {name: fns for name, fns in found.items() if fns} == {
        "quantale": {"enumerate_homset", "enumerate_inf_maps"},
        "verify": {"homset_capped"},
    }


def test_the_scans_see_each_way_to_name_a_cap():
    for line in ("x = MATRIX_CAP", "from supq.verify import TABLE_SCAN_CAP", "y = verify.EXHAUSTIVE_PAIR_CAP",
                 "EXHAUSTIVE_PAIR_CAP = 5", "import supq.verify.MATRIX_CAP"):
        assert len(_cap_names(ast.parse(line))) == 1, line
    assert _cap_names(ast.parse("SLOT_CAP = 8\nx = work_cap")) == set()
    assert _cap_parameters(ast.parse("def f(a, cap=1): pass\ndef g(*, cap): pass\ndef h(work_cap): pass")) == {"f", "g"}
    assert _cap_parameters(ast.parse("class C:\n    def m(self, cap, what): pass")) == {"m"}


def test_every_guard_of_the_lattice_module_is_a_cap():
    guards = [obj for name, obj in vars(lattice).items() if isinstance(obj, type) and name.endswith("Exceeded")]
    assert {g.__name__ for g in guards} >= {"CapExceeded", "SearchCapExceeded", "SizeGuardExceeded"}
    assert [g.__name__ for g in guards if not issubclass(g, lattice.CapExceeded)] == []
