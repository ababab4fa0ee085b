"""Meet-side operations as views of their join-side kernels on the opposite
lattice L.op, each checked against the hand-written meet-side body it
replaced, and the guard that the benchmark tracer's layer names still
resolve."""
import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from supq.lattice import dual, join_irreducibles, make_chain, make_mk, make_n5, meet_irreducibles
from supq.maps import (
    LatticeMap,
    _as_rows,
    alpha_map,
    gamma_map,
    inf_witness,
    left_adjoint_tables,
    right_adjoint,
    sup_interior,
    tensor_under,
)
from supq.quantale import (
    enumerate_homset,
    enumerate_inf_maps,
    left_residual,
    ldiv_tables,
    raney_up_tables,
    tensor_meet_tables,
)
from supq.verify import (
    SuiteConfig,
    _Ctx,
    check_infmap_join_decomposition,
    check_tensor_meet_decomposition,
    corpus,
)

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

LATTICES = [(name, L) for name, L, _ in corpus()] + [("dual-n5", dual(make_n5())), ("mk6", make_mk(6))]
IDS = [name for name, _ in LATTICES]
PAIRS = [("mk3->chain2", make_mk(3), make_chain(2)), ("chain2->mk3", make_chain(2), make_mk(3))]


@pytest.fixture(scope="module", params=LATTICES, ids=IDS)
def lattice_tables(request):
    """(L, homset tables, inf-map tables) for each lattice."""
    _, L = request.param
    return L, enumerate_homset(L).tables, enumerate_inf_maps(L)


# -- oracles: the meet-side bodies the views replace ------------------------------------


def _downmask(L):
    """downmask[i] packs the down-set of i into a uint64."""
    weights = np.uint64(1) << np.arange(L.n, dtype=np.uint64)
    return (L.leq.T * weights[None, :]).sum(axis=1, dtype=np.uint64)


def _elem_of_downmask(L, red):
    """Each value of `red` is an intersection of down-sets; return the meets."""
    down = _downmask(L)
    order = np.argsort(down)
    pos = np.searchsorted(down[order], red.ravel())
    return order[pos].reshape(red.shape).astype(np.int16)


def _raney_up_tables(L, tables):
    f = _as_rows(tables)
    down = _downmask(L)
    sel = down[f]
    out = np.empty_like(f)
    for x in range(L.n):
        cols = np.flatnonzero(~L.leq[:, x])
        red = np.bitwise_and.reduce(sel[:, cols], axis=1) if cols.size else np.full(len(f), down[L.top])
        out[:, x] = _elem_of_downmask(L, red)
    return out


def _left_adjoint_tables(source, target, tables):
    g = _as_rows(tables)
    down = _downmask(source)
    out = np.empty((len(g), target.n), dtype=np.int16)
    for y in range(target.n):
        mask = target.leq[y][g]  # (m, source.n): y <= g(x)
        red = np.bitwise_and.reduce(np.where(mask, down[None, :], down[source.top]), axis=1)
        out[:, y] = _elem_of_downmask(source, red)
    return out


def _inf_witness(f):
    if f.table[f.source.top] != f.target.top:
        return "top"
    sm, tm = f.source.meet, f.target.meet
    for x in range(f.source.n):
        for y in range(x + 1, f.source.n):
            if f.table[sm[x, y]] != tm[f.table[x], f.table[y]]:
                return (x, y)
    return None


def _gamma_row(S, T, y):
    return [T.top if x == S.top else y for x in range(S.n)]


def _alpha_row(S, T, x):
    return [T.top if S.leq[x, t] else T.bottom for t in range(S.n)]


def _tensor_under_row(S, T, y, x):
    return [T.top if t == S.top else y if S.leq[x, t] else T.bottom for t in range(S.n)]


def _cotensor_join(L, inf):
    """The canonical join over x of the co-tensors of inf(x) under x."""
    acc = np.full(inf.shape, L.bottom, dtype=np.int16)
    for x in range(L.n):
        val = np.where(L.leq[x][None, :], inf[:, x][:, None], np.int16(L.bottom))
        val[:, L.top] = L.top
        acc = L.join[acc, val].astype(np.int16)
    return acc


def _meet_irreducibles(L):
    return [int(x) for x in np.flatnonzero(L.covers.sum(axis=1) == 1)]


# -- the opposite lattice ----------------------------------------------------------------


@pytest.mark.parametrize("name, L", LATTICES, ids=IDS)
def test_the_opposite_lattice_is_memoized_and_links_back(name, L):
    assert L.op is L.op
    assert L.op.op is L
    assert L.op.same_structure(dual(L))
    assert L.op.bottom == L.top and L.op.top == L.bottom
    # dual-involution must rebuild: dual() never answers from the memo
    assert dual(L) is not L.op
    assert dual(dual(L)) is not L
    assert dual(dual(L)).same_structure(L)


# -- views against the replaced bodies ------------------------------------------------------


def test_raney_up_is_the_down_transform_on_the_opposite(lattice_tables):
    L, homset, inf = lattice_tables
    for tabs in (homset, inf):
        assert (raney_up_tables(L, tabs) == _raney_up_tables(L, tabs)).all()


def test_left_adjoint_is_the_right_adjoint_on_the_opposite(lattice_tables):
    L, homset, inf = lattice_tables
    for tabs in (homset, inf):
        assert (left_adjoint_tables(L, L, tabs) == _left_adjoint_tables(L, L, tabs)).all()


@pytest.mark.parametrize("S, T", [(S, T) for _, S, T in PAIRS], ids=[name for name, _, _ in PAIRS])
def test_left_adjoint_between_different_lattices(S, T):
    inf = [t for t in np.indices((T.n,) * S.n).reshape(S.n, -1).T
           if _inf_witness(LatticeMap(S, T, t)) is None]
    assert (left_adjoint_tables(S, T, inf) == _left_adjoint_tables(S, T, inf)).all()


def test_co_tensor_join_is_the_tensor_meet_on_the_opposite(lattice_tables):
    L, homset, inf = lattice_tables
    for tabs in (homset, inf):
        assert (tensor_meet_tables(L.op, tabs, np.arange(L.n)) == _cotensor_join(L, tabs)).all()


@pytest.mark.parametrize("side, check, witness", [
    ("tables", check_tensor_meet_decomposition, "canonical meet of tensors differs from member 3"),
    ("rho_tables", check_infmap_join_decomposition, "canonical join of co-tensors differs from member 3"),
], ids=["members", "inf-maps"])
def test_decomposition_checks_keep_their_witnesses(monkeypatch, side, check, witness):
    """One body runs both checks, on L and on L.op, whose inf maps are the
    rho rows; a wrong row planted on either side is named as before."""
    L = make_n5()
    ctx = _Ctx(L, SuiteConfig())
    tables = getattr(ctx.homset, side).copy()
    assert check(ctx) is None
    tables[3, L.bottom] = L.top  # neither the meet of its tensors nor the join of its co-tensors
    monkeypatch.setattr(_Ctx, "homset", property(lambda self: SimpleNamespace(**{side: tables})))
    assert check(ctx) == witness


@pytest.mark.parametrize("name, L", LATTICES, ids=IDS)
def test_meet_irreducibles_are_the_join_irreducibles_of_the_opposite(name, L):
    assert meet_irreducibles(L) == _meet_irreducibles(L) == join_irreducibles(L.op)


def test_inf_maps_are_the_homset_of_the_opposite(lattice_tables):
    L, _, inf = lattice_tables
    assert (inf == enumerate_homset(dual(L)).tables).all()


@pytest.mark.parametrize("S, T", [(L, L) for _, L in LATTICES] + [(S, T) for _, S, T in PAIRS],
                         ids=IDS + [name for name, _, _ in PAIRS])
def test_inf_generators_equal_the_comprehension_constructors(S, T):
    for y in range(T.n):
        assert gamma_map(S, T, y).table == tuple(_gamma_row(S, T, y))
        for x in range(S.n):
            assert tensor_under(S, T, y, x).table == tuple(_tensor_under_row(S, T, y, x))
    for x in range(S.n):
        assert alpha_map(S, T, x).table == tuple(_alpha_row(S, T, x))


@pytest.mark.parametrize("S, T", [(L, L) for _, L in LATTICES] + [(S, T) for _, S, T in PAIRS],
                         ids=IDS + [name for name, _, _ in PAIRS])
def test_inf_witness_matches_the_meet_side_scan_on_random_tables(S, T):
    rng = np.random.default_rng(S.n * 100 + T.n)
    tables = rng.integers(0, T.n, size=(300, S.n))
    if S is T:  # and some meet-preserving ones, which the random tables rarely are
        tables = np.concatenate([tables, enumerate_inf_maps(S)[:100]])
    for t in tables:
        f = LatticeMap(S, T, t)
        assert inf_witness(f) == _inf_witness(f)


def test_left_residual_is_a_row_of_the_left_division_kernel():
    rng = np.random.default_rng(7)
    for _, L in LATTICES:
        H = enumerate_homset(L)
        pairs = np.indices((H.m, H.m)).reshape(2, -1).T if H.m <= 20 else rng.integers(0, H.m, (150, 2))
        for g, h in pairs:
            G, Hh = H.map_at(int(g)), H.map_at(int(h))
            want = sup_interior(right_adjoint(G).compose(Hh))
            assert left_residual(G, Hh) == want
            assert (ldiv_tables(L, H.rho_tables[g], H.tables[h])[0] == want.table).all()


# -- the benchmark tracer's layer names ---------------------------------------------------------


def _layer_functions():
    """LAYER_FUNCTIONS of the benchmark worker, read from its source."""
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no LAYER_FUNCTIONS")


def test_every_traced_layer_name_resolves_to_a_callable():
    """All but EndoHomset.leq_matrix, which the program no longer has; the
    tracer skips it, and its per-layer figures read zero."""
    names = _layer_functions()
    assert "quantale.left_adjoint_tables" in names and "quantale.raney_up_tables" in names
    unresolved = set()
    for name in names:
        module_name, _, path = name.partition(".")
        owner = importlib.import_module(f"supq.{module_name}")
        if "." in path:  # <Class>.<method>: the tracer patches the class's own attribute
            cls_name, path = path.split(".")
            owner = vars(owner)[cls_name]
        if not callable(vars(owner).get(path)):
            unresolved.add(name)
    assert unresolved == {"quantale.EndoHomset.leq_matrix"}
