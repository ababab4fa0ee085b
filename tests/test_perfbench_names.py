"""The benchmark under perfbench/ reads the program by name: the names it
imports from `supq`, the attributes it reads off the `supq` modules it
imports, the functions its tracer times and the check ids it reports.  A
refactor of the program that drops one of them breaks the benchmark, whose
files a change to the program leaves alone, so these tests pin them."""
import ast
import importlib
import importlib.util
from pathlib import Path

from supq import verify

from perfbench import worker
from perfbench.tracer import Tracer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = sorted(PERFBENCH.glob("*.py")) + sorted((PERFBENCH / "tests").glob("*.py"))


def _supq_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every name that `from supq... import name` binds,
    and for every attribute read off a module of the package that `from supq
    import module` binds."""
    out, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "supq":
            for a in node.names:
                out.add((node.module, a.name))
                if node.module == "supq" and importlib.util.find_spec(f"supq.{a.name}"):
                    modules[a.asname or a.name] = f"supq.{a.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.add((modules[node.value.id], node.attr))
    return out


def test_every_supq_name_the_benchmark_reads_resolves():
    names = set().union(*(_supq_names(ast.parse(p.read_text())) for p in FILES))
    assert ("supq.verify", "run_suite") in names and ("supq.structures", "find_order_isomorphism") in names
    missing = sorted(f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n))
    assert missing == []


def test_the_scan_sees_imported_names_and_module_attributes():
    tree = ast.parse("from supq import verify\nfrom supq.lattice import make_chain\nverify.run_suite(x.y)\n")
    assert _supq_names(tree) == {("supq", "verify"), ("supq.lattice", "make_chain"),
                                 ("supq.verify", "run_suite")}


def test_the_tracer_finds_every_layer_function_but_the_order_matrix():
    """EndoHomset.leq_matrix is gone, so its per-layer figures read zero."""
    tracer = Tracer(worker.LAYER_FUNCTIONS + (worker.SUMMARY_FLAGS,), worker.COUNTED_CLASSES,
                    worker.ENUMERATION)
    with tracer:
        pass
    assert tracer.missing == {"quantale.EndoHomset.leq_matrix"}


def test_the_benchmark_times_every_check_of_the_catalogs():
    """The traced run wraps the entries of verify.CHECKS and POSET_CHECKS and
    reports each id of worker.CHECK_IDS."""
    assert sorted(worker.CHECK_IDS) == sorted(cid for cid, _ in verify.CHECKS + verify.POSET_CHECKS)
