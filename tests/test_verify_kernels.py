"""The whole-homset residual, naturality, tight-subset and weakening passes
of the verifier, checked against the member-by-member loops they replace,
and the batched kernels that the single-map functions are one-row views of,
among them the element-major residual kernels against the row-major loops
they replace, and the transform facts read from the homset tables against
the single-map derivations they replace."""
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

import supq
from supq import cli, lattice, maps, quantale, structures, verify
from supq.lattice import (
    CapExceeded,
    Lattice,
    NotAutomorphism,
    Poset,
    SearchCapExceeded,
    automorphisms,
    cover_relation,
    downset_lattice,
    dual,
    find_order_isomorphism,
    join_irreducibles,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    meet_irreducibles,
    order_automorphisms,
)
from supq.maps import (
    LatticeMap,
    _flat_index_dtype,
    a_map,
    c_map,
    e_map,
    e_tables,
    identity_map,
    is_inf_preserving,
    is_sup_preserving,
    join_fold,
    left_adjoint_tables,
    leq_tables,
    right_adjoint_tables,
    sup_interior,
    sup_interior_tables,
    table_take,
    tensor_over,
    tensor_tables,
)
from supq.quantale import (
    EndoHomset,
    NotCompletelyDistributive,
    automorphism_to_dualizing,
    enumerate_homset,
    enumerate_inf_maps,
    extend_from_J,
    is_completely_distributive,
    is_tight,
    ldiv_tables,
    raney_down,
    raney_down_tables,
    raney_up_tables,
    rdiv_tables,
    right_residual,
    tensor_meet_tables,
)
from supq.structures import (
    abstract_raney_check,
    downset_automorphism,
    e_family,
    wk_from_automorphism,
    wk_tables,
)
from supq.verify import (
    BLOCK_ROWS,
    CHECKS,
    SuiteConfig,
    _Ctx,
    _below_counts,
    _cover_steps,
    _monotone_keys,
    check_autodual,
    check_division_formulas,
    check_downset_irreducibles,
    check_galois_adjunction,
    check_naturality_composite,
    check_raney_adjunction,
    check_raney_transform_exchange,
    check_residual_adjunction,
    check_sup_interior_props,
    check_tight_subset,
    check_wk_bijection,
    check_wk_composition,
    corpus,
    report_to_json,
    report_to_text,
    run_suite,
)

import oracles
from oracles import (
    galois_adjunction_every_x,
    irreducibles_by_signatures,
    join_indices,
    lookup_rows,
    order_on_J,
    raney_adjunction_by_pairs,
    raney_adjunction_sides,
    raney_transform_exchange_by_both_adjoints,
    residual_adjunction_by_order_matrix,
    residual_adjunction_by_pair_gathers,
    right_adjoint_tables_every_x,
    tight_subset_every_composite,
    wk_composition_by_rows,
    wk_composition_per_member,
)
from perfbench import workloads


@pytest.fixture(scope="module")
def corpus_homsets():
    """Every corpus homset with at most 512 members, by name."""
    out = {}
    for name, L, _ in corpus():
        H = enumerate_homset(L)
        if H.m <= 512:
            out[name] = H
    return out


# -- oracles: the member-by-member loops ---------------------------------------------


def _ldiv_row(H, h):
    """g \\ h for every g, as one sup-interior of rho_g o h per g."""
    return H.index_rows(sup_interior_tables(H.lattice, H.lattice, H.rho_tables[:, H.tables[h]]))


def _rdiv_row(H, h):
    """h / g for every g, as the meet of tensors per g."""
    return H.index_rows(rdiv_tables(H.lattice, np.broadcast_to(H.tables[h], H.tables.shape), H.tables))


def _residual_witness_h_major(H):
    """The residual adjunction, one divisor row per member h."""
    leq = order_on_J(H)
    tabs = H.tables.astype(np.int64)
    comp = np.stack([H.index_rows(H.tables[g][tabs]) for g in range(H.m)])
    for h in range(H.m):
        ld = H.ldiv_indices(h)
        rd = H.rdiv_indices(h)
        solutions = leq[comp, h]
        if not (solutions == leq[:, ld].T).all():
            g = int(np.argwhere((solutions != leq[:, ld].T).any(axis=1))[0][0])
            return f"left residual adjunction fails at (g={g}, h={h})"
        if not (solutions == leq[:, rd]).all():
            f = int(np.argwhere((solutions != leq[:, rd]).any(axis=0))[0][0])
            return f"right residual adjunction fails at (f={f}, h={h})"
    return None


def _naturality_witness_fgt(H):
    """Composite naturality with the composites laid out as [f, g, t]."""
    L = H.lattice
    tabs = H.tables.astype(np.int64)
    rho = H.rho_tables.astype(np.int64)
    for y in range(L.n):
        for x in range(L.n):
            e_tab = np.array(_e_row(L, L, y, x), dtype=np.int64)
            got = H.tables[:, e_tab[tabs]]
            fy = tabs[:, y][:, None, None]
            gx = rho[:, x][None, :, None]
            t_le = L.leq.T[gx, np.arange(L.n)[None, None, :]]
            want = np.where(t_le, np.int16(L.bottom), fy.astype(np.int16))
            if not (got == want).all():
                return f"composite naturality fails at (y={y}, x={x})"
    return None


# -- block residuals --------------------------------------------------------------------


def test_block_residuals_equal_the_stacked_single_member_calls(corpus_homsets):
    for name, H in corpus_homsets.items():
        step = max(1, BLOCK_ROWS // H.m)
        blocks = [np.arange(s, min(s + step, H.m)) for s in range(0, H.m, step)]
        ld = np.concatenate([H.ldiv_indices(b) for b in blocks])
        rd = np.concatenate([H.rdiv_indices(b) for b in blocks])
        assert ld.shape == rd.shape == (H.m, H.m), name
        assert (ld == np.stack([H.ldiv_indices(h) for h in range(H.m)])).all(), name
        assert (rd == np.stack([H.rdiv_indices(h) for h in range(H.m)])).all(), name


def test_single_member_residuals_match_the_per_member_formulas(corpus_homsets):
    for name, H in corpus_homsets.items():
        for h in range(0, H.m, max(1, H.m // 16)):
            assert H.ldiv_indices(h).shape == (H.m,)
            assert (H.ldiv_indices(h) == _ldiv_row(H, h)).all(), (name, h)
            assert (H.rdiv_indices(h) == _rdiv_row(H, h)).all(), (name, h)


# -- residuals by index against the row kernels -------------------------------------------


def _ldiv_by_rows(H, hs):
    """[h, g] = g \\ h, by the row kernel ldiv_tables and a strict lookup."""
    got = ldiv_tables(H.lattice, np.tile(H.rho_tables, (len(hs), 1)), np.repeat(H.tables[hs], H.m, axis=0))
    return H.index_rows(got).reshape(len(hs), H.m)


def _rdiv_by_rows(H, hs):
    """[h, f] = h / f, by the row kernel rdiv_tables and a strict lookup."""
    got = rdiv_tables(H.lattice, np.repeat(H.tables[hs], H.m, axis=0), np.tile(H.tables, (len(hs), 1)))
    return H.index_rows(got).reshape(len(hs), H.m)


def test_residual_indices_equal_the_row_kernels(kernel_homsets):
    """Every h on the homsets of at most 512 members; twelve h on m5 and on
    m3 x chain2 (2,500 members)."""
    for name, H in kernel_homsets.items():
        hs = np.arange(H.m) if H.m <= 512 else np.linspace(0, H.m - 1, 12).astype(int)
        for block in np.array_split(hs, max(1, len(hs) * H.m // BLOCK_ROWS)):
            assert (H.ldiv_indices(block) == _ldiv_by_rows(H, block)).all(), name
            assert (H.rdiv_indices(block) == _rdiv_by_rows(H, block)).all(), name


@pytest.mark.parametrize("lookup", ["slot", "sorted"])
def test_residual_indices_agree_across_lookups_and_pairings(corpus_homsets, lookup, monkeypatch):
    """Above the slot cap the interiors run once per distinct J-key and
    call; the paired form is the diagonal of the outer one."""
    rng = np.random.default_rng(3)
    for name in ("m3", "n5", "boolean2", "downset-vee", "downset-chain2-plus-point"):
        H = _looked_up_by(corpus_homsets[name], lookup, monkeypatch)
        hs = np.arange(H.m)
        assert (H.ldiv_indices(hs) == _ldiv_by_rows(H, hs)).all(), name
        assert (H.rdiv_indices(hs) == _rdiv_by_rows(H, hs)).all(), name
        gs, hs = rng.integers(0, H.m, 40), rng.integers(0, H.m, 40)
        assert (H.ldiv_index(gs, hs, outer=False) == np.diagonal(H.ldiv_index(gs, hs))).all(), name


def _find_cyclic_by_rows(H):
    """find_cyclic as the row kernels compute it: the generator prefilter on
    whole residual rows, then both residuals by every divisor."""
    L = H.lattice
    alive = np.ones(H.m, dtype=bool)
    for gi in quantale._generator_indices(H):
        alive &= (rdiv_tables(L, H.tables, H.tables[gi]) == ldiv_tables(L, H.rho_tables[gi], H.tables)).all(axis=1)
    return [int(h) for h in np.flatnonzero(alive) if (_ldiv_by_rows(H, [h]) == _rdiv_by_rows(H, [h])).all()]


def _find_dualizing_by_rows(H):
    """find_dualizing as the row kernels compute it."""
    L = H.lattice
    alive = np.ones(H.m, dtype=bool)
    for gi in quantale._generator_indices(H):
        g_tab = H.tables[gi]
        back = rdiv_tables(L, H.tables, ldiv_tables(L, H.rho_tables[gi], H.tables))
        alive &= (back == g_tab).all(axis=1)
        over = H.index_rows(rdiv_tables(L, H.tables, g_tab))
        alive &= (ldiv_tables(L, H.rho_tables[over], H.tables) == g_tab).all(axis=1)
    out, members = [], np.arange(H.m)
    for h in np.flatnonzero(alive):
        ld, rd = _ldiv_by_rows(H, [h])[0], _rdiv_by_rows(H, [h])[0]
        if (rd[ld] == members).all() and (ld[rd] == members).all():
            out.append(int(h))
    return out


def test_searches_agree_with_the_row_kernels_on_the_corpus():
    for name, L, _ in corpus():
        H = enumerate_homset(L)
        assert quantale.find_cyclic(H) == _find_cyclic_by_rows(H), name
        assert quantale.find_dualizing(H) == _find_dualizing_by_rows(H), name


def _monotone_endomaps(L):
    """Every monotone endomap of L, for n^n <= 4000: every map, kept when it
    preserves the order."""
    grids = np.indices((L.n,) * L.n).reshape(L.n, -1).T.astype(np.int16)
    ok = np.ones(len(grids), dtype=bool)
    for x in range(L.n):
        for y in range(L.n):
            if L.leq[x, y]:
                ok &= L.leq[grids[:, x], grids[:, y]]
    return grids[ok]


def _interior_indices(H, rows):
    """Index of the sup-interior of each monotone row, through its J-key."""
    return H._interior_keys(H._j_keys(np.asarray(rows, dtype=np.int16)))


def _small_corpus():
    """The corpus lattices with n^n <= 4000, whose monotone endomaps can be listed."""
    return [(name, L) for name, L, _ in corpus() if L.n ** L.n <= 4000]


def test_monotone_rows_that_agree_on_J_have_one_interior():
    """On every corpus lattice with n^n <= 4000, all its monotone endomaps,
    grouped by their values on the join-irreducibles."""
    split = 0
    for name, L in _small_corpus():
        H = enumerate_homset(L)
        K = _monotone_endomaps(L)
        out = sup_interior_tables(L, L, K)
        _, first, group = np.unique(K[:, join_irreducibles(L)], axis=0, return_index=True, return_inverse=True)
        assert (out == out[first[group.reshape(-1)]]).all(), name
        split += len(first) < len(K)
        for lookup in LOOKUPS:
            with pytest.MonkeyPatch.context() as mp:
                got = _interior_indices(_looked_up_by(H, lookup, mp), K)
            assert (got == H.index_rows(out)).all(), (name, lookup)
    assert split >= 5  # lattices where rows that differ off J share their J-values


def test_the_memo_equals_the_fixpoint_on_every_key_of_D():
    """The memo, built whole by `join_zeta` over L^J, against the fixpoint
    kernel it replaced on the slot table, `sup_interior_tables` on the least
    monotone row of each key of D: every corpus homset and its opposite, the
    three seed-0 midsize lattices and the 7-chain."""
    lattices = [(name, L) for name, L, _ in corpus() + workloads.build("midsize", 0)]
    for name, L in lattices + [("chain7", make_chain(7))]:
        H = enumerate_homset(L)
        for S in (H, H.op):
            assert S._keys()[2] is not None, name
            D, _ = _monotone_keys(S)
            want = S.index_rows(sup_interior_tables(S.lattice, S.lattice, S._key_rows(D)))
            assert (S._interior_memo()[D] == want).all(), name


@pytest.mark.parametrize("make", [make_n5, lambda: make_mk(3), lambda: make_boolean(2), lambda: make_chain(4)])
def test_the_memo_holds_the_largest_member_below_every_key_of_L_to_the_J(make):
    """Every key q of L^J, the J-key of a monotone map or not, on both sides:
    the memo entry is the one member below q on J that every other member
    below q lies below, found by comparing all members with all keys."""
    H = enumerate_homset(make())
    for S in (H, H.op):
        L = S.lattice
        J, radix, _, _ = S._keys()
        q = np.arange(L.n ** len(J))
        vals = (q[:, None] // radix % L.n).astype(np.int16)  # [q, k] = the value at J[k]
        below = leq_tables(L, S.tables[:, J], vals)  # [f, q] = f <= q on J
        # [g, q] = some member below q is not below g
        escapes = (~order_on_J(S)).T.astype(np.int64) @ below.astype(np.int64) > 0
        largest = below & ~escapes
        assert (largest.sum(axis=0) == 1).all()
        assert (S._interior_memo() == np.argmax(largest, axis=0)).all()


def test_a_suite_on_the_slot_table_runs_no_fixpoint(monkeypatch):
    """On the corpus and the seed-0 midsize lattices, where every homset has
    n^|J| <= SLOT_CAP, every interior is read off the memo: `run_suite` calls
    `sup_interior_tables` under none of its names in the package."""
    real, calls = maps.sup_interior_tables, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (supq, maps, quantale, structures, verify):
        for attr in [a for a, v in vars(module).items() if v is real]:
            monkeypatch.setattr(module, attr, counted)
    for workload in ("corpus", "midsize"):
        for name, L, P in workloads.build(workload, 0):
            assert L.n ** len(join_irreducibles(L)) <= quantale.SLOT_CAP, name
            run_suite(workloads.fresh_copy(L), SuiteConfig(), name=name, poset=P)
    assert calls == []


def test_the_opposite_homset_holds_the_right_adjoints(kernel_homsets):
    for name, H in kernel_homsets.items():
        assert H.op.lattice is H.lattice.op
        assert (H.op.tables == H.rho_tables).all(), name
        assert H.op.op is H
        # the seeded adjoints, against an independent derivation
        assert (right_adjoint_tables(H.lattice.op, H.lattice.op, H.rho_tables) == H.tables).all(), name
        assert H.op.rho_tables is H.tables
        inf = enumerate_homset(H.lattice.op).tables  # lex-sorted, without repeats
        assert H.op.m == len(inf) and (np.unique(H.op.tables, axis=0) == inf).all(), name


def test_the_opposite_homset_has_the_same_order_matrix(kernel_homsets):
    """rho is order-preserving from Q(L) to Q(L.op), index for index: f <= g
    exactly when rho_g <= rho_f in L, which is rho_f <= rho_g in L.op, so
    the matrices are equal, not transposed."""
    for name, H in kernel_homsets.items():
        assert (order_on_J(H.op) == order_on_J(H)).all(), name


def test_the_opposite_homset_makes_no_reference_cycle():
    """A homset is freed with its last reference, with the cyclic collector
    off, while its opposite lives on and links to a rebuilt copy."""
    gc.disable()
    try:
        H = enumerate_homset(make_mk(3))
        O = H.op
        gone = weakref.ref(H)
        del H
        assert gone() is None
        assert O.op.op is O and (O.op.tables == O.rho_tables).all()
    finally:
        gc.enable()


def test_the_opposite_lattice_makes_no_reference_cycle():
    """A lattice is freed with its last reference, with the cyclic collector
    off, while its opposite lives on and links to a rebuilt copy."""
    gc.disable()
    try:
        L = make_n5()
        D = L.op
        assert D.op is L
        gone = weakref.ref(L)
        del L
        assert gone() is None
        again = D.op
        assert again.op is D and (again.leq == make_n5().leq).all()
        assert D.op is again
    finally:
        gc.enable()


def test_suite_runs_leave_no_lattice_behind():
    """Rounds of run_suite on fresh copies, with the cyclic collector off,
    leave as many lattices alive as there were before them."""
    entries = [e for e in corpus() if e[0] in ("m3", "boolean2", "downset-vee")] + workloads.build("midsize", 0)[2:]

    def alive():
        return sum(isinstance(o, Lattice) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for _ in range(3):
            for name, L, P in entries:
                run_suite(workloads.fresh_copy(L), SuiteConfig(), name=name, poset=P)
            assert alive() == before
    finally:
        gc.enable()


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_planted_memo_entry_fails_residual_adjunction(side):
    ctx = _Ctx(make_mk(3), SuiteConfig())
    H = ctx.homset
    assert check_residual_adjunction(ctx) is None
    memo = (H if side == "left" else H.op)._interior_memo()
    key = int(np.flatnonzero(memo >= 0)[0])
    memo[key] = (memo[key] + 1) % H.m
    assert check_residual_adjunction(ctx).startswith(f"{side} residual adjunction fails")


def test_below_counts_equal_a_brute_force_count():
    """cnt[q], the zeta transform of the members' slots, against the number of
    members below the J-values of q, over every key, on both sides."""
    lattices = {name: L for name, L, _ in corpus()}
    for name in ("chain3", "m3", "n5", "boolean2", "downset-chain2-plus-point"):
        H = enumerate_homset(lattices[name])
        for S in (H, H.op):
            L = S.lattice
            J, radix, _, _ = S._keys()
            q = np.arange(L.n ** len(J))
            vals = (q[:, None] // radix % L.n).astype(np.int16)  # [q, k] = the value at J[k]
            want = leq_tables(L, S.tables[:, J], vals).sum(axis=0)
            assert (_below_counts(S) == want).all(), name


def test_a_planted_wrong_rho_row_fails_galois_adjunction(monkeypatch):
    """The count form reads g o f <= h as f <= rho_g o h; galois-adjunction is
    the check that each rho_g is the right adjoint of g."""
    ctx = _Ctx(make_mk(3), SuiteConfig())
    H = ctx.homset
    assert check_galois_adjunction(ctx) is None
    bad = H.rho_tables.copy()
    bad[7] = H.rho_tables[8]
    monkeypatch.setitem(H._cache, "rho", bad)
    assert check_galois_adjunction(ctx) == "adjunction fails for member 7"


@pytest.mark.parametrize("make", [lambda: make_mk(3), make_n5, lambda: make_boolean(3)])
def test_galois_adjunction_on_J_gives_the_witness_of_every_x(make, monkeypatch):
    """A wrong rho row planted at the first, a middle and the last member:
    the check on the join-irreducibles and the m x n x n body it replaced
    both name that member."""
    ctx = _Ctx(make(), SuiteConfig())
    H = ctx.homset
    rho = H.rho_tables
    assert check_galois_adjunction(ctx) is None and galois_adjunction_every_x(ctx) is None
    for i in (0, H.m // 2, H.m - 1):
        bad = rho.copy()
        bad[i] = rho[(i + 1) % H.m]
        monkeypatch.setitem(H._cache, "rho", bad)
        assert check_galois_adjunction(ctx) == galois_adjunction_every_x(ctx) == f"adjunction fails for member {i}"


def test_galois_adjunction_reads_every_join_irreducible(monkeypatch):
    """On boolean3, rho of the identity at top moved to the coatom above
    every atom but one: only x = that atom tells the two sides apart, for
    each atom in turn."""
    L = make_boolean(3)
    ctx = _Ctx(L, SuiteConfig())
    H = ctx.homset
    rho, i, J = H.rho_tables, H.identity_index, join_irreducibles(L)
    for j in J:
        bad = rho.copy()
        bad[i, L.top] = next(z for z in range(L.n) if L.leq[J, z].sum() == len(J) - 1 and not L.leq[j, z])
        monkeypatch.setitem(H._cache, "rho", bad)
        assert check_galois_adjunction(ctx) == galois_adjunction_every_x(ctx) == f"adjunction fails for member {i}"


def _rows_swapped(tables):
    bad = tables.copy()
    bad[[0, 1]] = tables[[1, 0]]
    return bad


def _planted_inf_maps(monkeypatch, L, plant):
    """verify.enumerate_homset with the homset of L.op, the inf maps of L,
    replaced by plant(its tables)."""
    real = verify.enumerate_homset

    def enumerate_planted(S, cap):
        K = real(S, cap)
        return EndoHomset(S, plant(np.array(K.tables))) if S is L.op else K

    monkeypatch.setattr(verify, "enumerate_homset", enumerate_planted)


@pytest.mark.parametrize("make", [lambda: make_mk(3), make_n5, lambda: make_boolean(3)])
def test_the_folded_adjoint_inversions_keep_their_witnesses(make):
    """galois-adjunction's inversion tests, one loop over the right adjoint
    on L and on L.op, and raney-transform-exchange, the identity of the two
    star index arrays, against their bodies with both adjoint kernels:
    clean, and with a fault planted on each side.  The inf maps are one row
    of the enumeration of L.op replaced, which the old body sees as the
    right adjoint not inverting the left one there.  Two up rows swapped on
    either side before any star is looked up reach the stars, and so both
    exchange bodies; swapped in H once the stars are memoized, they reach
    raney-adjunction's unit alone, which reads the up transform itself."""
    L = make()
    ctx = _Ctx(L, SuiteConfig())
    H = ctx.homset
    assert check_galois_adjunction(ctx) is galois_adjunction_every_x(ctx) is None
    assert check_raney_transform_exchange(ctx) is raney_transform_exchange_by_both_adjoints(ctx) is None
    # the top member changed at top, off J: the same J-values, so the same right adjoint
    off_J = H.tables.copy()
    off_J[H.top_index, L.top] = L.bottom
    assert check_galois_adjunction(_ctx_on(EndoHomset(L, off_J))) == "lower adjoint does not invert the upper adjoint"

    def off_top(inf):  # the first inf map sent top to bottom: no inf map, as each keeps top
        inf[0, L.top] = L.bottom
        return inf

    with pytest.MonkeyPatch.context() as mp:
        _planted_inf_maps(mp, L, off_top)
        assert check_galois_adjunction(ctx) == galois_adjunction_every_x(ctx) == (
            "upper adjoint does not invert the lower adjoint")
    exchange = "lower adjoint of the up transform differs from the down transform of the upper adjoint at member 0"
    upper = "upper adjoint of the down transform differs from the up transform of the lower adjoint"
    lower = "lower adjoint of the up transform differs from the down transform of the upper adjoint"
    for K, witness in ((H.op, upper), (H, lower)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(K._cache, "star_idx", np.array(K.star_indices)[[1, 0, *range(2, H.m)]])
            assert check_raney_transform_exchange(ctx) == exchange
            assert raney_transform_exchange_by_both_adjoints(ctx) == witness
    for op_side in (True, False):
        fresh = _Ctx(L, SuiteConfig())
        K = fresh.homset.op if op_side else fresh.homset
        K._cache["up_t"] = _rows_swapped(K.up_transform_tables)
        assert check_raney_transform_exchange(fresh) == exchange
        assert raney_transform_exchange_by_both_adjoints(fresh) == upper
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(H._cache, "up_t", _rows_swapped(H.up_transform_tables))
        assert check_raney_transform_exchange(ctx) is None
        assert check_raney_adjunction(ctx).startswith("unit of the transform adjunction fails at inf map")


@pytest.mark.parametrize("make", [lambda: make_mk(3), make_n5, lambda: make_boolean(3), lambda: make_chain(4)])
def test_galois_adjunction_fails_when_the_rho_rows_are_not_every_inf_map(monkeypatch, make):
    """The rho rows, sorted, are the one enumeration of L.op.  One of its
    rows replaced by another inf map, which the right adjoint still
    inverts, or two rho rows made equal by a member planted twice, which
    keeps every adjunction and the lower inversion, fails the check with
    the upper inversion witness."""
    L = make()
    ctx = _Ctx(L, SuiteConfig())
    H = ctx.homset
    assert check_galois_adjunction(ctx) is None
    with pytest.MonkeyPatch.context() as mp:
        _planted_inf_maps(mp, L, lambda inf: np.concatenate([inf[1:2], inf[1:]]))
        assert check_galois_adjunction(ctx) == "upper adjoint does not invert the lower adjoint"
        assert galois_adjunction_every_x(ctx) is None
    twice = np.array(H.tables)
    twice[1] = twice[0]
    assert check_galois_adjunction(_ctx_on(EndoHomset(L, twice))) == "upper adjoint does not invert the lower adjoint"


def test_one_homset_per_side_on_the_corpus(monkeypatch):
    """Per run_suite on every corpus lattice exactly two homsets build a
    J-key table, H and H.op, and L and L.op are enumerated once each, L.op
    by galois-adjunction alone, which reads its tables only."""
    real_enumerate, real_keys, calls, built = quantale.enumerate_homset, EndoHomset._keys, [], []

    def counted_enumerate(S, cap=quantale.DEFAULT_HOMSET_CAP):
        calls.append(S)
        return real_enumerate(S, cap)

    def counted_keys(self):
        if "keys" not in self._cache:
            built.append(self)
        return real_keys(self)

    for module in (supq, quantale, structures, verify):
        if hasattr(module, "enumerate_homset"):
            monkeypatch.setattr(module, "enumerate_homset", counted_enumerate)
    monkeypatch.setattr(EndoHomset, "_keys", counted_keys)
    others = tuple(c for c in verify.ALL_CHECK_IDS if c != "galois-adjunction")
    for name, L, P in corpus():
        calls.clear()
        run_suite(L, SuiteConfig(checks=others), poset=P)
        assert calls == [L], name
        calls.clear()
        built.clear()
        assert run_suite(L, name=name, poset=P).failed == 0
        assert calls == [L, L.op], name
        H = built[0]
        assert H.lattice is L and len(built) == 2 and built[1] is H.op, name


def _counted(monkeypatch, fn, calls, key):
    """Every binding of fn in the package counts its calls under key."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    for module in (supq, cli, lattice, maps, quantale, structures, verify):
        for attr in [a for a, v in vars(module).items() if v is fn]:
            monkeypatch.setattr(module, attr, counted)


def test_the_transform_kernels_run_once_per_side_and_operand(monkeypatch):
    """Per run_suite on every corpus and seed-0 midsize lattice the down
    kernel runs 4 times: up and down on the identity row for
    is_completely_distributive, and one up transform per side, H's on the
    members and H.op's on the rho rows, from which star, the tight interior
    and the exchange law are index lookups.  The right adjoint kernel runs
    twice: the rho rows, and the left adjoint in galois-adjunction."""
    calls = dict.fromkeys(("down", "adjoint"), 0)
    _counted(monkeypatch, quantale.raney_down_tables, calls, "down")
    _counted(monkeypatch, maps.right_adjoint_tables, calls, "adjoint")
    for name, L, P in corpus() + workloads.build("midsize", 0):
        calls.update(down=0, adjoint=0)
        assert run_suite(L, name=name, poset=P).failed == 0, name
        assert calls == {"down": 4, "adjoint": 2}, name
    assert not hasattr(EndoHomset, "tight_interior_tables")


def test_one_automorphism_search_per_lattice(monkeypatch):
    """dualizing-structure and the automorphism_count flag share one search
    on boolean3; a search past its node cap stores nothing, so the next call
    searches again."""
    calls = {"search": 0}
    _counted(monkeypatch, lattice.order_automorphisms, calls, "search")
    report = run_suite(make_boolean(3))
    assert report.failed == 0 and report.summary["automorphism_count"] == 6
    assert calls["search"] == 1
    L = make_mk(5)
    with monkeypatch.context() as mp:
        mp.setattr(lattice, "AUTOMORPHISM_NODE_CAP", 3)
        with pytest.raises(SearchCapExceeded):
            automorphisms(L)
    assert "auts" not in L._cache
    assert len(automorphisms(L)) == len(automorphisms(L)) == 120
    assert calls["search"] == 3


def test_the_star_and_tight_interior_indices_equal_the_down_kernel(pair_scan_ctxs):
    """star is the up transform of `H.op` looked up in H, and the tight
    interior star[H.op.star_indices]; on every corpus and seed-0 midsize
    homset both equal the strict lookups of the down kernel they replace,
    and the tight mask its fixed points."""
    for name, ctx in pair_scan_ctxs.items():
        H = ctx.homset
        k = oracles.tight_interior_by_down_kernel(H)
        assert np.array_equal(H.star_indices, oracles.star_by_down_kernel(H)), name
        assert np.array_equal(H.tight_interior_indices, k), name
        assert np.array_equal(H.tight_mask, (H.tables[k] == H.tables).all(axis=1)), name


def test_the_count_form_agrees_with_the_order_matrix_body_on_the_corpus():
    """On every corpus homset of at most 512 members, clean and with one
    planted memo entry on each side, the count form gives the witness of the
    body it replaced, which counted with the m x m order matrix."""
    for name, L, _ in corpus():
        for side in (None, "left", "right"):
            H = enumerate_homset(L)
            if H.m > 512:
                break
            ctx = _ctx_on(H)
            assert check_residual_adjunction(ctx) is None, name
            if side is not None:
                memo = (H if side == "left" else H.op)._interior_memo()
                key = int(np.flatnonzero(memo >= 0)[0])
                memo[key] = (memo[key] + 1) % H.m
            got = check_residual_adjunction(ctx)
            assert got == residual_adjunction_by_order_matrix(H), (name, side)
            assert (got is None) == (side is None or H.m == 1), (name, side)


def test_the_count_form_agrees_with_the_pair_gather_body_on_the_corpus():
    """On every corpus homset of at most 512 members, clean and with one
    planted memo entry on each side, the per-member below tables give the
    witness of the body they replaced, which read res <= kappa by the
    two-index gather L.leq[at, kappa]."""
    for name, L, _ in corpus():
        for side in (None, "left", "right"):
            H = enumerate_homset(L)
            if H.m > 512:
                break
            ctx = _ctx_on(H)
            assert check_residual_adjunction(ctx) is None, name
            if side is not None:
                memo = (H if side == "left" else H.op)._interior_memo()
                key = int(np.flatnonzero(memo >= 0)[0])
                memo[key] = (memo[key] + 1) % H.m
            got = check_residual_adjunction(ctx)
            assert got == residual_adjunction_by_pair_gathers(H), (name, side)
            assert (got is None) == (side is None or H.m == 1), (name, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_planted_composite_weight_column_fails_residual_adjunction(monkeypatch, side):
    """W[:, h] forms the key of rho_g o h in ldiv_index, so column h of the
    identity moved onto the bottom member turns g \\ id into g \\ bottom for
    every g; kappa is read off the rho rows, not W, so the check sees it.
    The right side reads H.op's weights through rdiv_indices."""
    ctx = _Ctx(make_mk(3), SuiteConfig())
    H = ctx.homset
    assert check_residual_adjunction(ctx) is None
    S = H if side == "left" else H.op
    W = S._composite_weights().copy()
    before = S.ldiv_indices(H.identity_index)
    W[:, H.identity_index] = W[:, H.bottom_index]
    monkeypatch.setitem(S._cache, "comp_w", W)
    assert (S.ldiv_indices(H.identity_index) != before).any()
    assert check_residual_adjunction(ctx).startswith(f"{side} residual adjunction fails at")


# -- the residual kernels against their row-major loops ----------------------------------


def _interior_pass_row_major(source, target, K):
    """One pass of the sup-interior operator on the rows of K, in place, by
    2-D fancy indexing on its strided columns."""
    jt, mt = target.join, target.meet
    K[:, source.bottom] = target.bottom
    for x in source.descending_order:
        for p in np.flatnonzero(source.covers[x]):
            K[:, x] = mt[K[:, x], K[:, p]]
    for x in range(source.n):
        for a, b in source.incomparable_join_pairs[x]:
            K[:, x] = mt[K[:, x], jt[K[:, a], K[:, b]]]


def _sup_interior_row_major(source, target, tables):
    """The row-major fixpoint: every row runs until the slowest one is done."""
    K = np.array(tables, dtype=np.int16).reshape(-1, source.n)
    while True:
        before = K.copy()
        _interior_pass_row_major(source, target, K)
        if (K == before).all():
            return K


def _settling_pass(source, target, row):
    """The last pass that changes the row, counted from 0 for a row that no
    pass changes."""
    K = np.array(row, dtype=np.int16)[None, :]
    last = 0
    for k in itertools.count(1):
        before = K.copy()
        _interior_pass_row_major(source, target, K)
        if (K == before).all():
            return last
        last = k


def _tensor_meet_row_major(L, h_tabs, f_tabs):
    """Meet over x of the tensors h(x) over f(x), one (rows, n) gather per x."""
    h = np.array(h_tabs, dtype=np.int16).reshape(-1, L.n)
    f = np.array(f_tabs, dtype=np.int16).reshape(-1, L.n)
    acc = np.full((max(len(h), len(f)), L.n), L.top, dtype=np.int16)
    for x in range(L.n):
        val = np.where(L.leq.T[f[:, x]], h[:, x][:, None], np.int16(L.top))
        val[:, L.bottom] = L.bottom
        acc = L.meet[acc, val]
    return acc


def _assert_same_rows(got, want):
    assert got.dtype == np.int16 and got.flags.c_contiguous
    assert got.shape == want.shape and (got == want).all()


def _chain(n):
    """An n-chain, built past the size guard of make_chain."""
    idx = np.arange(n)
    return Lattice(idx[:, None] <= idx[None, :], join=np.maximum.outer(idx, idx),
                   meet=np.minimum.outer(idx, idx), _validated=True)


def _random_monotone(S, T, rows, rng):
    """Random monotone tables from S to T: x goes to the join of random
    values over the down-set of x."""
    r = rng.integers(0, T.n, size=(rows, S.n))
    out = np.full((rows, S.n), T.bottom, dtype=np.int16)
    for x in range(S.n):
        for y in np.flatnonzero(S.leq[:, x]):
            out[:, x] = T.join[out[:, x], r[:, y]]
    return out


def test_residual_kernels_match_the_row_major_loops_on_every_corpus_residual(corpus_homsets):
    """The inputs of g \\ h and of h / f for every pair of members."""
    for name, H in corpus_homsets.items():
        L, m = H.lattice, H.m
        ldiv_in = H.rho_tables[:, H.tables].reshape(m * m, L.n)  # rho_g o h
        _assert_same_rows(sup_interior_tables(L, L, ldiv_in), _sup_interior_row_major(L, L, ldiv_in))
        h, f = np.repeat(H.tables, m, axis=0), np.tile(H.tables, (m, 1))
        meet = _tensor_meet_row_major(L, h, f)
        _assert_same_rows(tensor_meet_tables(L, h, f), meet)
        _assert_same_rows(sup_interior_tables(L, L, meet), _sup_interior_row_major(L, L, meet))


RANDOM_PAIRS = [
    ("mk3->chain2", make_mk(3), make_chain(2)),
    ("chain2->mk3", make_chain(2), make_mk(3)),
    ("n5->boolean3", make_n5(), make_boolean(3)),
    ("boolean3->mk5", make_boolean(3), make_mk(5)),
    ("mk5->n5", make_mk(5), make_n5()),
    ("dual-n5", dual(make_n5()), dual(make_n5())),
]


@pytest.mark.parametrize("S, T", [(S, T) for _, S, T in RANDOM_PAIRS], ids=[name for name, _, _ in RANDOM_PAIRS])
def test_residual_kernels_match_the_row_major_loops_on_random_monotone_inputs(S, T):
    rng = np.random.default_rng(11)
    K = _random_monotone(S, T, 3000, rng)
    _assert_same_rows(sup_interior_tables(S, T, K), _sup_interior_row_major(S, T, K))
    if S is T:
        h, f = _random_monotone(S, S, 3000, rng), _random_monotone(S, S, 3000, rng)
        _assert_same_rows(tensor_meet_tables(S, h, f), _tensor_meet_row_major(S, h, f))
        _assert_same_rows(tensor_meet_tables(S, h[0], f), _tensor_meet_row_major(S, h[0], f))
        _assert_same_rows(tensor_meet_tables(S, h, f[0]), _tensor_meet_row_major(S, h, f[0]))


def test_rows_settling_in_different_passes_come_back_in_order():
    """On m3 the inputs of g \\ h settle in passes 0, 1 and 2; a shuffled
    batch of them must come back row for row."""
    H = enumerate_homset(make_mk(3))
    L = H.lattice
    K = H.rho_tables[:, H.tables].reshape(-1, L.n)
    passes = np.array([_settling_pass(L, L, row) for row in K])
    assert set(passes.tolist()) == {0, 1, 2}
    picks = np.concatenate([np.flatnonzero(passes == k)[:40] for k in (0, 1, 2)])
    batch = K[np.random.default_rng(3).permutation(picks)]
    got = sup_interior_tables(L, L, batch)
    _assert_same_rows(got, _sup_interior_row_major(L, L, batch))
    for row, want in zip(batch, got):
        assert (sup_interior_tables(L, L, row)[0] == want).all()


def test_one_row_views_of_the_residual_kernels():
    H = enumerate_homset(make_n5())
    L = H.lattice
    K = H.rho_tables[:, H.tables].reshape(-1, L.n)
    for row in K[::97]:
        kept = row.copy()
        want = _sup_interior_row_major(L, L, row)
        _assert_same_rows(sup_interior_tables(L, L, row), want)          # 1-D
        _assert_same_rows(sup_interior_tables(L, L, row[None, :]), want)  # one 2-D row
        assert sup_interior(LatticeMap(L, L, row)).table == tuple(want[0])
        assert (row == kept).all()
    for h, f in zip(H.tables[::7], H.tables[::-7]):
        _assert_same_rows(tensor_meet_tables(L, h, f), _tensor_meet_row_major(L, h, f))
    empty = np.zeros((0, L.n), dtype=np.int16)
    _assert_same_rows(sup_interior_tables(L, L, empty), empty)


@pytest.mark.parametrize("L", [_chain(200), Lattice(np.kron(make_chain(2).leq, _chain(100).leq))],
                         ids=["chain200", "chain2xchain100"])
def test_residual_kernels_past_the_int16_flat_index(L):
    """n > 181, so a*n + b no longer fits in int16."""
    assert L.n ** 2 > 1 << 15
    rng = np.random.default_rng(19)
    K = _random_monotone(L, L, 64, rng)
    assert K.max() > 181
    _assert_same_rows(sup_interior_tables(L, L, K), _sup_interior_row_major(L, L, K))
    h, f = _random_monotone(L, L, 64, rng), _random_monotone(L, L, 64, rng)
    _assert_same_rows(tensor_meet_tables(L, h, f), _tensor_meet_row_major(L, h, f))


# -- the one join kernel -----------------------------------------------------------------


def _join_by_loop(L, vecs):
    """The join over the first axis of `vecs`, one entry and one join at a time."""
    out = np.full(vecs.shape[1:], L.bottom, dtype=np.int64)
    for at in np.ndindex(out.shape):
        for v in vecs[(slice(None),) + at]:
            out[at] = L.join[out[at], v]
    return out


def _families(n, k, rows):
    """k vectors of `rows` elements, each running through the elements at its own stride."""
    r = np.arange(rows)
    return np.array([(r * (2 * i + 1) + i * i) % n for i in range(k)], dtype=np.int16).reshape(k, rows)


def test_join_fold_equals_a_fold_of_the_join_table_on_the_corpus():
    for name, L, _ in corpus():
        for k in (0, 1, 2, L.n + 1):
            vecs = _families(L.n, k, 3 * L.n)
            assert (join_fold(L, vecs) == _join_by_loop(L, vecs)).all(), (name, k)
            if k:  # an iterator is folded as it is consumed
                assert (join_fold(L, (v for v in vecs)) == _join_by_loop(L, vecs)).all(), (name, k)
            square = vecs.reshape(k, 3, L.n)
            assert (join_fold(L, square) == _join_by_loop(L, square)).all(), (name, k)
        a, b = np.divmod(np.arange(L.n ** 2), L.n)
        assert (join_fold(L, np.stack([a, b])) == L.join[a, b]).all(), name


@pytest.mark.parametrize("n", [181, 182])
@pytest.mark.parametrize("dtype", [bool, np.int16])
def test_table_take_equals_the_two_index_gather(n, dtype):
    """T[a, b] on both sides of the int16/int32 flat index (181^2 <= 2^15 <
    182^2), for index arrays of broadcasting shapes and dtypes; the corner
    (n - 1, n - 1) is where an int16 index would wrap at n = 182."""
    assert _flat_index_dtype(n) == (np.int16 if n == 181 else np.int32)
    rng = np.random.default_rng(n)
    T = rng.integers(0, 2 if dtype is bool else n, size=(n, n)).astype(dtype)
    a = rng.integers(0, n, size=(4, 1, 6)).astype(np.int16)
    b = rng.integers(0, n, size=(5, 1))
    a[0, 0, 0] = b[0, 0] = n - 1
    for x, y in ((a, b), (b, a), (a[0, 0], a[1, 0]), (np.int16(n - 1), b), (n - 1, n - 1)):
        got = table_take(T, x, y)
        assert got.dtype == T.dtype and got.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
        assert (got == T[x, y]).all()


@pytest.mark.parametrize("L", [downset_lattice(Poset(np.eye(7, dtype=bool))),
                               downset_lattice(Poset(np.eye(8, dtype=bool))), _chain(200)],
                         ids=["downset-antichain7", "downset-antichain8", "chain200"])
def test_join_fold_past_64_elements(L):
    """The downset lattices of the 7- and 8-point antichains, 128 and 256
    elements, and the 200-chain; past 181 elements the flat index a*n + b is
    int32 (at 256 an int16 index would wrap onto the right entry, at 200 it
    would not).  Every pair is one row, and one row holds a family of every
    element.  The identity is its own adjoint, tight, and the extension of
    its values on J."""
    a, b = np.divmod(np.arange(L.n ** 2), L.n)
    assert (join_fold(L, np.stack([a, b]).astype(np.int16)) == L.join[a, b]).all()
    one_row = _families(L.n, L.n, 1)
    assert (join_fold(L, one_row) == _join_by_loop(L, one_row)).all()
    assert join_fold(L, np.arange(L.n)[:, None]).tolist() == [L.top]
    ident = np.arange(L.n, dtype=np.int16)
    assert (right_adjoint_tables(L, L, ident) == ident).all()
    assert (left_adjoint_tables(L, L, ident) == ident).all()
    assert is_completely_distributive(L)
    J = join_irreducibles(L)
    assert (extend_from_J(L, J, ident[J, None])[:, 0] == ident).all()


def _left_adjoint_every_x(source, target, tables):
    return right_adjoint_tables_every_x(source.op, target.op, tables)


def test_the_adjoint_folds_over_J_and_M_equal_the_folds_over_every_x():
    """On every corpus homset, its inf homset and its rho rows, both adjoint
    kernels agree with the fold over every source element."""
    for name, L, _ in corpus():
        H = enumerate_homset(L)
        for tabs in (H.tables, H.op.tables, H.rho_tables):
            assert (right_adjoint_tables(L, L, tabs) == right_adjoint_tables_every_x(L, L, tabs)).all(), name
            assert (left_adjoint_tables(L, L, tabs) == _left_adjoint_every_x(L, L, tabs)).all(), name


@pytest.mark.parametrize("source, target", [(make_mk(3), make_chain(2)), (make_chain(2), make_mk(3))])
def test_the_adjoint_folds_hold_on_every_monotone_table(source, target):
    """Monotone rows, join- or meet-preserving or neither: {x : f(x) <= y} is
    a down-set, decided by its join-irreducibles."""
    tabs = np.array([t for t in itertools.product(range(target.n), repeat=source.n)
                     if maps.is_monotone(LatticeMap(source, target, t))], dtype=np.int16)
    assert (right_adjoint_tables(source, target, tabs) == right_adjoint_tables_every_x(source, target, tabs)).all()
    assert (left_adjoint_tables(source, target, tabs) == _left_adjoint_every_x(source, target, tabs)).all()


def _key_rows_by_insertion(H, keys):
    """The least monotone rows of J-keys as `EndoHomset._key_rows` built
    them before the join kernel: each J-value joined into every element
    above its join-irreducible."""
    L = H.lattice
    J, radix, _, _ = H._keys()
    jt = L.join.ravel()
    cols = np.full((L.n, len(keys)), L.bottom, dtype=np.int64)
    for k, j in enumerate(J):
        v = keys // radix[k] % L.n
        for x in np.flatnonzero(L.leq[j]):
            cols[x] = jt.take(cols[x] * L.n + v)
    return cols.astype(np.int16).T


@pytest.mark.parametrize("make", [lambda: make_mk(3), lambda: make_mk(5), lambda: make_boolean(3)],
                         ids=["m3", "m5", "boolean3"])
def test_the_J_extension_equals_the_insertion_on_every_key(make):
    H = enumerate_homset(make())
    keys = np.arange(H.lattice.n ** len(H._keys()[0]), dtype=np.int64)
    assert (H._key_rows(keys) == _key_rows_by_insertion(H, keys)).all()


def test_lattice_level_checks_run_past_64_elements():
    """On the 128-element downset lattice of the 7-point antichain,
    distributivity-agreement passes and cd-raney is skipped by the
    enumeration's work cap; both failed while the transforms needed
    bitmask tables of at most 64 elements."""
    L = downset_lattice(Poset(np.eye(7, dtype=bool)))
    got = verify._run_checks(CHECKS, ("distributivity-agreement", "cd-raney"),
                             [cid for cid, _ in CHECKS], _Ctx(L, SuiteConfig()))
    assert [(r.check_id, r.status) for r in got] == [
        ("distributivity-agreement", "pass"), ("cd-raney", "skipped")]
    assert got[1].reason == "homset enumeration grew past 1600000 candidate assignments"


# -- residual adjunction witnesses -------------------------------------------------------


def _corrupt(monkeypatch, method, spots):
    """Replace `method` so that the divisor rows of the given (h, g) spots
    point at another member: the next one, or the member given as a third
    entry (h, g, to).  Single and block calls see the same change."""
    real = getattr(EndoHomset, method)

    def patched(self, i):
        got = np.array(real(self, i))
        rows = got.reshape(-1, self.m)
        hs = np.atleast_1d(i)
        for h, g, *to in spots:
            rows[hs == h, g] = to[0] if to else (rows[hs == h, g] + 1) % self.m
        return got

    monkeypatch.setattr(EndoHomset, method, patched)


@pytest.mark.parametrize(
    "left, right",
    [
        ([(5, 3)], []),
        ([], [(5, 2)]),
        ([(7, 1)], [(4, 6)]),
        ([(4, 6)], [(4, 1)]),
        ([], [(2, 5), (2, 0)]),
        ([(9, 8), (9, 2)], [(11, 0)]),
    ],
)
def test_residual_adjunction_reports_the_h_major_witness(monkeypatch, left, right):
    ctx = _Ctx(make_mk(3), SuiteConfig())
    H = ctx.homset
    assert check_residual_adjunction(ctx) is None
    _corrupt(monkeypatch, "ldiv_indices", left)
    _corrupt(monkeypatch, "rdiv_indices", right)
    want = _residual_witness_h_major(H)
    assert want is not None
    assert check_residual_adjunction(ctx) == want


def test_residual_adjunction_blocks_cover_every_member(monkeypatch):
    monkeypatch.setattr(verify, "BLOCK_ROWS", 3 * 50)  # three members per block on m3
    ctx = _Ctx(make_mk(3), SuiteConfig())
    assert ctx.homset.m == 50
    assert check_residual_adjunction(ctx) is None
    _corrupt(monkeypatch, "rdiv_indices", [(49, 7)])
    assert check_residual_adjunction(ctx) == _residual_witness_h_major(ctx.homset)


@pytest.fixture(scope="module")
def residual_ctxs():
    """Contexts on which residual-adjunction passes: m3 (one block), the
    downset lattice of a 2-chain plus a point (108 maps, one block) and
    boolean3 (512 maps, 16 blocks of 32 members)."""
    lattices = {name: (L, P) for name, L, P in corpus()}
    out = {}
    for name in ("m3", "downset-chain2-plus-point", "boolean3"):
        L, P = lattices[name]
        ctx = _Ctx(L, SuiteConfig(), P)
        assert check_residual_adjunction(ctx) is None, name
        out[name] = ctx
    return out


@pytest.mark.parametrize("name", ["downset-chain2-plus-point", "boolean3"])
@pytest.mark.parametrize(
    "left, right",
    [
        ([(5, 3)], []),
        ([], [(37, 2)]),
        ([(90, 1)], [(40, 6)]),
        ([(64, 100)], [(64, 1), (33, 0)]),
    ],
)
def test_residual_adjunction_witness_on_larger_homsets(monkeypatch, residual_ctxs, name, left, right):
    ctx = residual_ctxs[name]
    _corrupt(monkeypatch, "ldiv_indices", left)
    _corrupt(monkeypatch, "rdiv_indices", right)
    want = _residual_witness_h_major(ctx.homset)
    assert want is not None
    assert check_residual_adjunction(ctx) == want


def _one_sided_spot(H, method, kind):
    """A corruption (h, g, to) of `method` that only one half of the count
    form catches.  "inside": `to` is the bottom member, which solves
    g o f <= h (resp. f o g <= h) for every h, below a true residual with a
    larger down-set, so it lies below kappa and only the count fails.
    "same-size": `to` has a down-set of the true residual's size but is
    another member, so it is not below the residual and lies outside the
    solution set; only membership, below kappa, fails.  h starts a third of
    the way into the members, past the first block of h on boolean3, and g
    at the last one."""
    leq = order_on_J(H)
    sizes = leq.sum(axis=0)
    for h in range(H.m // 3, H.m):
        res = getattr(H, method)(h)
        for g in range(H.m - 1, -1, -1):
            r = res[g]
            if kind == "inside":
                others = [H.bottom_index] if sizes[r] > 1 else []
            else:
                others = np.flatnonzero((sizes == sizes[r]) & (np.arange(H.m) != r))
            if len(others) == 0:
                continue
            to = int(others[0])
            comp = H.compose_indices(g, to) if method == "ldiv_indices" else H.compose_indices(to, g)
            assert bool(leq[comp[0, 0], h]) == (kind == "inside")
            assert (sizes[to] == sizes[r]) == (kind == "same-size")
            return h, g, to
    raise AssertionError(f"no {kind} spot for {method}")


@pytest.mark.parametrize("name", ["m3", "downset-chain2-plus-point", "boolean3"])
@pytest.mark.parametrize("method", ["ldiv_indices", "rdiv_indices"])
@pytest.mark.parametrize("kind", ["inside", "same-size"])
def test_residual_adjunction_catches_each_half_of_the_count_form(
    monkeypatch, residual_ctxs, name, method, kind
):
    ctx = residual_ctxs[name]
    h, g, to = _one_sided_spot(ctx.homset, method, kind)
    _corrupt(monkeypatch, method, [(h, g, to)])
    side, var = ("left", "g") if method == "ldiv_indices" else ("right", "f")
    want = f"{side} residual adjunction fails at ({var}={g}, h={h})"
    assert _residual_witness_h_major(ctx.homset) == want
    assert check_residual_adjunction(ctx) == want


# -- composite naturality witnesses --------------------------------------------------------


@pytest.mark.parametrize("make, g", [(make_n5, 0), (make_n5, 17), (lambda: make_mk(3), 31)])
def test_naturality_composite_reports_the_fgt_witness(monkeypatch, make, g):
    ctx = _Ctx(make(), SuiteConfig())
    H = ctx.homset
    assert check_naturality_composite(ctx) is None
    bad = H.rho_tables.copy()
    bad[g] = H.rho_tables[(g + 1) % H.m]
    monkeypatch.setitem(H._cache, "rho", bad)
    want = _naturality_witness_fgt(H)
    assert want is not None
    assert check_naturality_composite(ctx) == want


def test_naturality_case_split_equals_the_fgt_scan_on_the_corpus(monkeypatch, corpus_homsets):
    for name, kept in corpus_homsets.items():
        ctx = _Ctx(kept.lattice, SuiteConfig())
        H = ctx.homset
        assert check_naturality_composite(ctx) == _naturality_witness_fgt(H) is None, name
        if H.m > 1:
            bad = H.rho_tables.copy()
            bad[[0, 1]] = bad[[1, 0]]
            with monkeypatch.context() as mp:
                mp.setitem(H._cache, "rho", bad)
                want = _naturality_witness_fgt(H)
                assert want is not None and check_naturality_composite(ctx) == want, name
    assert {"boolean3", "downset-antichain3"} <= set(corpus_homsets)


def _naturality_cases(H, rho):
    """Which of A and not B, B and not A occur for some (g, t, x), with
    A = [g(t) <= x] and B = [t <= rho_g(x)]."""
    L = H.lattice
    A = L.leq[H.tables]
    B = L.leq.T[rho].transpose(0, 2, 1)
    return bool((A & ~B).any()), bool((B & ~A).any())


@pytest.mark.parametrize("plant, cases", [
    ("swapped row", None),
    ("entry moved down", (True, False)),  # only A and not B
    ("entry moved up", (False, True)),    # only B and not A
])
def test_naturality_case_split_names_the_planted_witness(monkeypatch, plant, cases):
    ctx = _Ctx(make_boolean(3), SuiteConfig())
    H, L = ctx.homset, ctx.L
    g, x = H.identity_index, next(v for v in range(L.n) if v not in (L.bottom, L.top))
    bad = H.rho_tables.copy()
    if plant == "swapped row":
        bad[g] = H.rho_tables[(g + 1) % H.m]
    else:
        bad[g, x] = L.bottom if plant == "entry moved down" else L.top
        assert _naturality_cases(H, bad) == cases
    monkeypatch.setitem(H._cache, "rho", bad)
    want = _naturality_witness_fgt(H)
    assert want is not None
    assert check_naturality_composite(ctx) == want
    if cases is not None:
        assert want.endswith(f"x={x})")


# -- the sup-interior check over D ---------------------------------------------------------


def _sup_interior_props_on_rows(L, H, K, interior):
    """The check as it ran on rows before it ranged over D: on monotone rows
    K, with `interior` sending rows to rows, the join of the members below
    each row and every ordered pair of rows."""
    out = interior(K)
    if not L.leq[out, K].all():
        return "interior is not deflationary"
    if not (interior(out) == out).all():
        return "interior is not idempotent"
    if (lookup_rows(H, out) < 0).any():
        return "interior produced a map outside the homset"
    J = join_irreducibles(L)
    members = H.tables[:, J]
    above = (leq_tables(L, members, K[:, J]) & ~leq_tables(L, members, out[:, J])).any(axis=0)
    if above.any():
        return f"interior differs from the join of maps below input {int(np.argmax(above))}"
    i, j = np.indices((len(K), len(K))).reshape(2, -1)
    if not L.leq[out[i], interior(L.join[K[i], K[j]])].all():
        return "interior is not monotone as an operator"
    return None


def _memo_interior(H):
    """Rows to the rows of their interiors, read from the memo of H."""
    return lambda rows: H.tables[_interior_indices(H, rows)]


def _ctx_on(H):
    """A check context whose homset is H itself, planted memo entries included."""
    ctx = _Ctx(H.lattice, SuiteConfig())
    ctx._homset = H
    return ctx


def _planted_witness(H, q):
    """The witness of the check once the memo entry of key q is a member
    strictly below its interior: idempotence fails at a member's key, else
    the step into q."""
    return ("interior is not idempotent" if np.isin(q, H._keys()[3][0])
            else "interior is not monotone as an operator")


def test_D_holds_the_J_keys_of_the_monotone_endomaps():
    for name, L in _small_corpus():
        H = enumerate_homset(L)
        D, vals = _monotone_keys(H)
        assert (D == np.unique(H._j_keys(_monotone_endomaps(L)))).all(), name
        assert (vals == D[:, None] // H._keys()[1] % L.n).all(), name
    for L in (make_mk(3), make_mk(5), make_boolean(3)):  # J is an antichain: every assignment is monotone
        assert len(_monotone_keys(enumerate_homset(L))[0]) == L.n ** len(join_irreducibles(L))


@pytest.mark.parametrize("make", [lambda: make_chain(3), lambda: make_mk(3), make_n5, lambda: make_boolean(2)])
def test_monotonicity_covers_every_ordered_pair(make):
    """The cover steps stay in D, and their transitive closure is the
    componentwise order on D, by brute force: monotonicity on the steps is
    monotonicity on every ordered pair."""
    L = make()
    H = enumerate_homset(L)
    J, radix, _, _ = H._keys()
    D, vals = _monotone_keys(H)
    i, q2 = _cover_steps(L, J, radix, D, vals)
    at = np.searchsorted(D, q2)
    assert (D[np.minimum(at, len(D) - 1)] == q2).all()
    reach = np.eye(len(D), dtype=bool)
    reach[i, at] = True
    for k in range(len(D)):
        reach |= reach[:, k, None] & reach[k]
    assert (reach == L.leq[vals[:, None, :], vals[None, :, :]].all(axis=2)).all()


def test_monotonicity_catches_a_non_monotone_interior():
    """A planted memo entry at a key that is no member's, below its true
    interior: the idempotence and deflation tests pass, a step into it fails."""
    H = enumerate_homset(make_mk(3))
    D, _ = _monotone_keys(H)
    true = H._interior_keys(D)
    q = D[np.flatnonzero(~np.isin(D, H._keys()[3][0]) & (true != H.bottom_index))[-1]]
    H._interior_memo()[q] = H.bottom_index
    assert check_sup_interior_props(_ctx_on(H)) == "interior is not monotone as an operator"


def test_a_planted_entry_above_its_key_fails_deflation():
    H = enumerate_homset(make_n5())
    D, vals = _monotone_keys(H)
    q = D[np.flatnonzero(~np.isin(D, H._keys()[3][0]) & (vals != H.lattice.top).any(axis=1))[0]]
    H._interior_keys(D)
    H._interior_memo()[q] = H.top_index
    assert check_sup_interior_props(_ctx_on(H)) == "interior is not deflationary"


def _off_the_homset(real):
    """`join_zeta` with the interior at the bottom key, the bottom member,
    planted off the homset: the value at a join-irreducible below another
    one goes to top, so the J-values are not monotone and no member has
    them.  Row k of the call holds the values at J[k], as one call takes
    every J-value of a lattice as small as n5."""

    def planted(L, T):
        out = real(L, T)
        J = join_irreducibles(L)
        k = next(k for k, j in enumerate(J) if L.leq[j, J].sum() > 1)
        out[k].flat[0] = L.top
        return out

    return planted


def test_a_non_member_interior_fails_the_check(monkeypatch):
    monkeypatch.setattr(quantale, "join_zeta", _off_the_homset(quantale.join_zeta))
    ctx = _Ctx(make_n5(), SuiteConfig())
    [result] = verify._run_checks(CHECKS, ("sup-interior-props",), [cid for cid, _ in CHECKS], ctx)
    assert result.status == "fail"
    assert result.witness == "KeyError: 'row is not a join-preserving member of the homset'"


def test_a_broken_kernel_leaves_the_summary_flags_unsettled(monkeypatch):
    """The summary flags that reach a broken kernel read as if capped, and the
    report still comes back with the check that reaches it failed."""
    monkeypatch.setattr(quantale, "join_zeta", _off_the_homset(quantale.join_zeta))
    report = run_suite(make_n5(), SuiteConfig(checks=("sup-interior-props",)), name="n5")
    [result] = report.results
    assert (result.status, result.witness) == (
        "fail", "KeyError: 'row is not a join-preserving member of the homset'")
    assert report.summary == {
        "is_CD": False,
        "is_girard": None,
        "dualizing_count": None,
        "automorphism_count": 1,
        "tight_unital": False,
        "autodual_verdict": "inconclusive",
    }


def test_a_flag_whose_kernel_raises_fails_the_report(monkeypatch):
    """With a filter that leaves out every check reaching a broken kernel,
    the flags that reach it read as if capped, and each is named with its
    typed error and counts as a failure, so the command line exits 1."""
    monkeypatch.setattr(quantale, "join_zeta", _off_the_homset(quantale.join_zeta))
    report = run_suite(make_n5(), SuiteConfig(checks=("lattice-axioms",)), name="n5")
    error = "KeyError: 'row is not a join-preserving member of the homset'"
    assert [r.status for r in report.results] == ["pass"]
    assert (report.summary["is_girard"], report.summary["dualizing_count"]) == (None, None)
    assert report.summary["autodual_verdict"] == "inconclusive"
    assert report.flag_errors == {"is_girard": error, "dualizing_count": error, "autodual_verdict": error}
    assert report.failed == 3
    assert report.to_doc()["flag_errors"] == report.flag_errors
    assert f"[FAIL] flag is_girard: {error}" in report_to_text([report])
    assert cli._exit_code([report], strict=True) == cli.EXIT_CHECK_FAILED


def test_a_capped_flag_is_no_error():
    report = run_suite(make_boolean(2), SuiteConfig(max_homset=1, checks=("lattice-axioms",)))
    assert report.summary["is_girard"] is None
    assert report.flag_errors == {} and report.failed == 0
    assert "flag_errors" not in report.to_doc()


def test_sup_interior_props_pass_with_the_check_on_rows():
    """On every corpus lattice with n^n <= 4000 and both lookups, the check
    and the form on all monotone endomaps pass, with the interiors of the
    kernel and of the memo."""
    for name, L in _small_corpus():
        K = _monotone_endomaps(L)
        for lookup in LOOKUPS:
            with pytest.MonkeyPatch.context() as mp:
                H = _looked_up_by(enumerate_homset(L), lookup, mp)
                assert check_sup_interior_props(_ctx_on(H)) is None, (name, lookup)
                for interior in (lambda rows: sup_interior_tables(L, L, rows), _memo_interior(H)):
                    assert _sup_interior_props_on_rows(L, H, K, interior) is None, (name, lookup)


def test_the_sorted_lookup_finds_each_step_target_in_D(monkeypatch):
    """Above SLOT_CAP there is no memo: phi is computed once per key of D and
    a step target is read at its place among D's sorted keys.  An interior
    planted below its value at one key fails the check as on the slot table."""
    real = EndoHomset._interior_keys
    for L in (make_mk(3), make_n5(), make_boolean(3)):
        with pytest.MonkeyPatch.context() as mp:
            H = _looked_up_by(enumerate_homset(L), "sorted", mp)
            D, _ = _monotone_keys(H)
            true = real(H, D)
            for q in D[np.flatnonzero(true != H.bottom_index)[::7]]:
                mp.setattr(EndoHomset, "_interior_keys",
                           lambda self, keys: np.where(keys == q, self.bottom_index, real(self, keys)))
                assert check_sup_interior_props(_ctx_on(H)) == _planted_witness(H, q), q
                mp.setattr(EndoHomset, "_interior_keys", real)
            assert check_sup_interior_props(_ctx_on(H)) is None


# -- fault containment ---------------------------------------------------------------------


@pytest.mark.parametrize("exc", [ValueError("bad value"), IndexError("index 9 is out of bounds")])
def test_a_crashing_check_fails_and_the_later_checks_still_run(monkeypatch, exc):
    ids = [cid for cid, _ in CHECKS]
    k = ids.index("galois-adjunction")

    def crash(ctx):
        raise exc

    monkeypatch.setattr(verify, "CHECKS", CHECKS[:k] + [("galois-adjunction", crash)] + CHECKS[k + 1:])
    report = run_suite(make_chain(3), name="chain3")
    assert [r.check_id for r in report.results] == ids
    crashed = report.results[k]
    assert crashed.status == "fail"
    assert crashed.witness == f"{type(exc).__name__}: {exc}"
    assert report.failed == 1
    assert all(r.status == "pass" for r in report.results[k + 1:])


def test_a_failing_star_witness_fails_the_autodual_check_and_the_run_goes_on(monkeypatch):
    star = EndoHomset.star_indices.fget
    monkeypatch.setattr(EndoHomset, "star_indices", property(lambda H: np.roll(star(H), 1)))
    report = run_suite(make_boolean(2), name="boolean2")
    autodual = next(r for r in report.results if r.check_id == "autodual")
    assert autodual.status == "fail"
    assert autodual.witness == "autoduality witness is not an order-reversing bijection"


def test_the_star_witness_is_tested_on_the_cover_edges_above_the_matrix_cap(monkeypatch):
    """With the order of the members and the search of autodual_report
    refused, the check tests the star of boolean2 on the lower-cover edges:
    it passes, and a rolled star fails."""
    def refuse(*args, **kwargs):
        raise RuntimeError("order of the members built")

    monkeypatch.setattr(structures, "leq_tables", refuse)
    monkeypatch.setattr(structures, "find_order_isomorphism", refuse)
    config = SuiteConfig(checks=("autodual",))
    [result] = run_suite(make_boolean(2), config, name="boolean2").results
    assert result.status == "pass"
    star = EndoHomset.star_indices.fget
    monkeypatch.setattr(EndoHomset, "star_indices", property(lambda H: np.roll(star(H), 1)))
    [result] = run_suite(make_boolean(2), config, name="boolean2").results
    assert (result.status, result.witness) == ("fail", "autoduality witness is not an order-reversing bijection")


def test_the_lower_cover_edges_are_the_cover_relation(kernel_homsets):
    """On the corpus and on m3 x chain2 (2,500 members, above TABLE_SCAN_CAP),
    whose raney-adjunction and tight-subset rest on these edges."""
    for name, H in kernel_homsets.items():
        f, g = structures.homset_irreducibles(H).lower_cover_edges
        covers = np.zeros((H.m, H.m), dtype=bool)
        covers[g, f] = True
        assert len(f) == covers.sum() and (covers == cover_relation(order_on_J(H))).all(), name


def test_every_member_is_the_join_of_the_join_irreducible_members_below_it(kernel_homsets):
    """The premise of the generator form of tight-subset, on the corpus and
    m3 x chain2: the pointwise join of the JI(Q) members below f is f."""
    for name, H in kernel_homsets.items():
        L = H.lattice
        below = order_on_J(H)
        acc = np.full((H.m, L.n), L.bottom, dtype=np.int64)
        for i in structures.homset_irreducibles(H).join_irreducible_indices:
            acc = np.where(below[i][:, None], L.join[acc, H.tables[i]], acc)
        assert (acc == H.tables).all(), name


def test_no_check_builds_the_order_matrix_of_m5(monkeypatch):
    """m5 has 1,582 members, the largest homset of the corpus; with the
    order and the search of autodual_report refused, every check and summary
    flag comes out the same."""
    want = run_suite(make_mk(5), name="m5")

    def refuse(*args, **kwargs):
        raise RuntimeError("order matrix built")

    assert not hasattr(EndoHomset, "leq_matrix")
    monkeypatch.setattr(structures, "leq_tables", refuse)
    monkeypatch.setattr(structures, "find_order_isomorphism", refuse)
    got = run_suite(make_mk(5), name="m5")
    assert [r.to_doc() for r in got.results] == [r.to_doc() for r in want.results]
    assert got.summary == want.summary


def test_an_equal_count_report_reaches_the_search_and_takes_its_verdict(monkeypatch):
    """No non-distributive lattice has as many meet- as join-irreducibles in
    Q(L), so only a patched report reaches the search of autodual_report; it
    searches the order of the members, and its answer is the verdict."""
    real = structures.homset_irreducibles

    def equal(H):
        rep = real(H)
        return dataclasses.replace(rep, meet_irreducible_indices=rep.join_irreducible_indices)

    monkeypatch.setattr(structures, "homset_irreducibles", equal)
    search = structures.find_order_isomorphism
    asked = []

    def recorded(leq1, leq2):
        asked.append((leq1, leq2))
        return search(leq1, leq2)

    monkeypatch.setattr(structures, "find_order_isomorphism", recorded)
    ctx = _Ctx(make_n5(), SuiteConfig())
    H = ctx.homset
    rep = structures.autodual_report(H)
    assert (rep.verdict, rep.reason) == ("not-autodual", "no order-reversing bijection exists")
    [(leq1, leq2)] = asked
    assert (leq1 == order_on_J(H)).all() and (leq2 == order_on_J(H).T).all()
    assert check_autodual(ctx) is None
    monkeypatch.setattr(structures, "find_order_isomorphism", lambda leq1, leq2: tuple(range(H.m)))
    rep = structures.autodual_report(H)
    assert (rep.verdict, rep.reason, rep.witness) == (
        "autodual", "order-reversing bijection found by search", tuple(range(H.m)))
    assert check_autodual(ctx) == "order-reversing bijection found on a non-distributive lattice"


# -- irreducibles from the tensors ---------------------------------------------------------


def _irreducibles_by_cover_relation(H):
    """The irreducible report from the covers of the whole order matrix, the
    m x m self-product that the tensor form replaced."""
    L = H.lattice
    covers = cover_relation(order_on_J(H))
    j_idx = tuple(int(i) for i in np.flatnonzero(covers.sum(axis=0) == 1))
    m_idx = tuple(int(i) for i in np.flatnonzero(covers.sum(axis=1) == 1))
    jl, ml = join_irreducibles(L), meet_irreducibles(L)
    ms, js = np.array(ml, dtype=np.int64)[:, None], np.array(jl, dtype=np.int64)[None, :]
    tensors = [int(i) for i in H.index_rows(tensor_tables(L, L, ms, js).reshape(-1, L.n))]
    es = [int(i) for i in H.index_rows(e_tables(L, L, js, ms).reshape(-1, L.n))]
    return structures.IrreducibleReport(
        join_irreducible_indices=j_idx,
        meet_irreducible_indices=m_idx,
        tensor_indices=tuple(tensors),
        e_indices=tuple(es),
        product_count=len(jl) * len(ml),
        meet_equals_tensors=set(m_idx) == set(tensors),
        e_within_join_irreducibles=set(es) <= set(j_idx),
        tensors_pairwise_distinct=len(set(tensors)) == len(tensors),
        e_pairwise_distinct=len(set(es)) == len(es),
    )


def test_irreducibles_from_the_tensors_equal_the_cover_relation():
    """On every corpus homset and the three seed-0 midsize homsets (2,150 to
    2,500 members, above the scan cap, so the report is built directly)."""
    entries = corpus() + workloads.build("midsize", 0)
    for name, L, _ in entries:
        H = enumerate_homset(L)
        assert structures.homset_irreducibles(H) == _irreducibles_by_cover_relation(H), name


def test_the_cover_test_by_inside_equals_the_signature_test():
    """The report and its lower-cover edges, on every corpus homset, the
    three seed-0 midsize homsets and chain3 x boolean2 (7,776 members)."""
    entries = corpus() + workloads.build("midsize", 0)
    entries.append(("chain3xboolean2", _product(make_chain(3), make_boolean(2)), None))
    for name, L, _ in entries:
        H = enumerate_homset(L)
        got, want = structures.homset_irreducibles(H), irreducibles_by_signatures(H)
        assert got == want, name
        for a, b in zip(got.lower_cover_edges, want.lower_cover_edges):
            assert np.array_equal(a, b), name


# -- merged kernels ------------------------------------------------------------------------


def test_one_row_residual_sides_equal_their_broadcast_rows(corpus_homsets):
    for name, H in corpus_homsets.items():
        L, shape = H.lattice, H.tables.shape
        for g in range(0, H.m, max(1, H.m // 8)):
            assert (rdiv_tables(L, H.tables, H.tables[g])
                    == rdiv_tables(L, H.tables, np.broadcast_to(H.tables[g], shape))).all(), (name, g)
            assert (rdiv_tables(L, H.tables[g], H.tables)
                    == rdiv_tables(L, np.broadcast_to(H.tables[g], shape), H.tables)).all(), (name, g)
            assert (ldiv_tables(L, H.rho_tables[g], H.tables)
                    == ldiv_tables(L, np.broadcast_to(H.rho_tables[g], shape), H.tables)).all(), (name, g)
            assert (ldiv_tables(L, H.rho_tables, H.tables[g])
                    == ldiv_tables(L, H.rho_tables, np.broadcast_to(H.tables[g], shape))).all(), (name, g)


@pytest.mark.parametrize("source, target", [(make_mk(3), make_chain(2)), (make_chain(2), make_mk(3))])
def test_adjoint_kernels_between_different_lattices(source, target):
    tables = np.array(list(itertools.product(range(target.n), repeat=source.n)), dtype=np.int16)
    sup = np.array([t for t in tables if is_sup_preserving(LatticeMap(source, target, t))])
    inf = np.array([t for t in tables if is_inf_preserving(LatticeMap(source, target, t))])
    rho = right_adjoint_tables(source, target, sup)
    lam = left_adjoint_tables(source, target, inf)
    assert rho.shape == (len(sup), target.n) and lam.shape == (len(inf), target.n)
    for f, r in zip(sup, rho):
        # f(x) <= y exactly when x <= rho(y)
        assert (target.leq[f] == source.leq[:, r]).all()
    for g, l in zip(inf, lam):
        # y <= g(x) exactly when lam(y) <= x
        assert (target.leq[:, g] == source.leq[l, :]).all()


def test_one_search_serves_automorphisms_and_isomorphisms(monkeypatch):
    rng = np.random.default_rng(5)
    for name, L, _ in corpus():
        auts = order_automorphisms(L.leq)
        assert find_order_isomorphism(L.leq, L.leq) in auts, name
        perm = rng.permutation(L.n)
        relabelled = np.empty_like(L.leq)
        relabelled[np.ix_(perm, perm)] = L.leq  # element i becomes perm[i]
        sigma = np.array(find_order_isomorphism(L.leq, relabelled))
        assert (relabelled[np.ix_(sigma, sigma)] == L.leq).all(), name
    monkeypatch.setattr(lattice, "AUTOMORPHISM_NODE_CAP", 3)
    with pytest.raises(SearchCapExceeded):
        order_automorphisms(make_mk(5).leq)
    with pytest.raises(SearchCapExceeded):
        find_order_isomorphism(make_mk(5).leq, make_mk(5).leq)


# -- weakening-relation checks -------------------------------------------------------------


WK_CHECKS = ("wk-bijection", "wk-composition", "wk-automorphism-dualizing")


def test_weakening_checks_pass_on_a_four_point_poset():
    P = Poset.from_covers(4, [(0, 1), (0, 2)])
    report = run_suite(downset_lattice(P), SuiteConfig(checks=WK_CHECKS), name="vee-plus-point", poset=P)
    assert [(r.check_id, r.status) for r in report.results] == [(c, "pass") for c in WK_CHECKS]


def test_wk_bijection_reports_each_broken_step(monkeypatch):
    P = Poset.from_covers(3, [(0, 1), (0, 2)])  # vee
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    H = ctx.homset
    rels = wk_tables(P, H.tables)
    assert check_wk_bijection(ctx) is None

    shifted = H.tables.copy()
    shifted[5] = H.tables[6]
    monkeypatch.setattr(verify, "supmap_tables", lambda P, rels: shifted)
    assert check_wk_bijection(ctx) == "relation round trip differs for map 5"

    monkeypatch.setattr(verify, "supmap_tables", lambda P, rels: H.tables)
    twice = rels.copy()
    twice[7] = rels[3]
    monkeypatch.setattr(verify, "wk_tables", lambda P, tables: twice)
    assert check_wk_bijection(ctx) == "map-to-relation translation is not injective"

    # the full relation without (0, 1) still holds (1, 1), which lies above
    # (0, 1) in P x P^op, so it is not down-closed there
    top = int(np.flatnonzero(rels.all(axis=(1, 2)))[0])
    holed = rels.copy()
    holed[top, 0, 1] = False
    monkeypatch.setattr(verify, "wk_tables", lambda P, tables: holed)
    assert check_wk_bijection(ctx) == f"relation of map {top} is not a weakening relation"


def test_wk_bijection_counts_the_weakening_relations_against_the_maps(monkeypatch):
    P = Poset.from_covers(3, [(0, 1), (0, 2)])  # vee: 50 maps
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    assert check_wk_bijection(ctx) is None
    monkeypatch.setattr(Poset, "downset_count", lambda self: 49)
    assert check_wk_bijection(ctx) == "49 weakening relations vs 50 maps"


@pytest.mark.parametrize("covers", [
    [(0, 1), (1, 2), (2, 3), (3, 4)],           # 5-chain: 252 maps
    [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],   # diamond with a tail: 598 maps
])
def test_weakening_checks_pass_on_five_point_posets(covers):
    # P x P^op has 25 cells but only as many downsets as there are maps
    P = Poset.from_covers(5, covers)
    report = run_suite(downset_lattice(P), SuiteConfig(checks=WK_CHECKS), name="five-point", poset=P)
    assert [(r.check_id, r.status) for r in report.results] == [(c, "pass") for c in WK_CHECKS]
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    assert wk_composition_by_rows(ctx) == wk_composition_per_member(ctx) is None


def test_wk_bijection_passes_on_the_eight_chain():
    # P x P^op has 64 cells, and a 9-chain has 12,870 maps
    P = Poset.from_covers(8, [(i, i + 1) for i in range(7)])
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    assert ctx.homset.m == 12_870
    assert check_wk_bijection(ctx) is None


def _wk_generators(ctx) -> np.ndarray:
    """[a, b] = index of g_(a,b) = e(down b, P minus up a), which sends t to
    down b when a is in t and to the empty set otherwise."""
    P, D = ctx.poset, ctx.L
    at = {mask: i for i, mask in enumerate(P.downset_masks())}
    bits = 1 << np.arange(P.n)
    down = [at[int(bits[P.leq[:, b]].sum())] for b in range(P.n)]
    off_up = [at[int(bits[~P.leq[a]].sum())] for a in range(P.n)]
    tables = e_tables(D, D, np.array(down)[None, :], np.array(off_up)[:, None])  # [a, b, t]
    return ctx.homset.index_rows(tables.reshape(-1, D.n)).reshape(P.n, P.n)


def _wk_witness_on_generators(ctx):
    """What check_wk_composition reports, from the generators above: the
    first generator whose relation is not the down-set of (b, a), else the
    per-member oracle with the generators on the right."""
    P, H = ctx.poset, ctx.homset
    gens = _wk_generators(ctx)
    rels = verify.wk_tables(P, H.tables)
    for a, b in itertools.product(range(P.n), repeat=2):
        if not (rels[gens[a, b]] == np.outer(P.leq[:, b], P.leq[a])).all():
            return f"relation of the generator g_({a},{b}) is not the down-set of ({b}, {a})"
    return wk_composition_per_member(ctx, gens.ravel())


@pytest.mark.parametrize("covers, spots", [
    ([(0, 1), (0, 2)], [(0, 1, 2)]),
    ([(0, 1), (0, 2)], [(17, 0, 0)]),
    ([(0, 1), (0, 2)], [(49, 2, 1), (30, 1, 1)]),
    ([(0, 1), (1, 2)], [(3, 0, 2)]),
])
def test_wk_composition_reports_the_per_member_witness(monkeypatch, covers, spots):
    """Planted relation flips: the per-member oracle over every pair fails,
    and the check fails with the first failing (f, generator)."""
    P = Poset.from_covers(3, covers)
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    monkeypatch.setattr(verify, "BLOCK_ROWS", P.n**2 * 7)  # blocks of 7 members
    assert check_wk_composition(ctx) is None
    rels = wk_tables(P, ctx.homset.tables)
    for i, y, x in spots:
        rels[i, y, x] ^= True
    monkeypatch.setattr(verify, "wk_tables", lambda P, tables: rels)
    assert wk_composition_per_member(ctx) is not None
    want = _wk_witness_on_generators(ctx)
    assert want is not None
    assert check_wk_composition(ctx) == want


@pytest.mark.parametrize("perm", [[0, 2, 1], [2, 1, 0]])
def test_wk_composition_fails_when_joins_are_not_unions(perm):
    """The downset lattice of the 2-chain with its elements relabelled: its
    join table no longer matches the downsets in the order of
    P.downset_masks(), once off the top ([0, 2, 1]) and once with the
    bottom moved ([2, 1, 0])."""
    P = Poset.from_covers(2, [(0, 1)])
    D = downset_lattice(P)
    leq = np.empty_like(D.leq)
    leq[np.ix_(perm, perm)] = D.leq  # element i becomes perm[i]
    ctx = _Ctx(Lattice(leq), SuiteConfig(), poset=P)
    assert check_wk_composition(ctx) == "joins of the downset lattice are not unions"


def test_wk_composition_fails_on_a_generator_with_the_wrong_relation(monkeypatch):
    P = Poset.from_covers(3, [(0, 1), (0, 2)])  # vee
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    gens = _wk_generators(ctx)
    rels = wk_tables(P, ctx.homset.tables)
    rels[gens[1, 2], 0, 0] ^= True  # (0, 0) lies outside down (2, 1) in P x P^op
    monkeypatch.setattr(verify, "wk_tables", lambda P, tables: rels)
    assert check_wk_composition(ctx) == "relation of the generator g_(1,2) is not the down-set of (2, 1)"
    assert _wk_witness_on_generators(ctx) == check_wk_composition(ctx)


def test_wk_composition_raises_on_a_missing_generator():
    P = Poset.from_covers(3, [(0, 1), (0, 2)])
    ctx = _Ctx(downset_lattice(P), SuiteConfig(), poset=P)
    gen = int(_wk_generators(ctx)[2, 2])
    ctx._homset = EndoHomset(ctx.L, np.delete(ctx.homset.tables, gen, axis=0))
    with pytest.raises(KeyError):
        check_wk_composition(ctx)


def test_wk_composition_looks_up_composites_with_the_generators_alone(monkeypatch):
    """On downset-vee-plus-point (2,500 members, |P| = 4) every composite
    lookup has the |P|^2 = 16 generators on the right and each member once
    on the left, so no m x m composite table is built."""
    P = Poset.from_covers(4, [(0, 1), (0, 2)])
    L = downset_lattice(P)
    real = EndoHomset.compose_indices
    calls = []

    def bounded(self, gs, fs=None):
        assert fs is not None and np.size(fs) <= 16
        calls.append((np.atleast_1d(gs), np.atleast_1d(fs)))
        return real(self, gs, fs)

    monkeypatch.setattr(EndoHomset, "compose_indices", bounded)
    report = run_suite(L, SuiteConfig(checks=("wk-composition",)), name="vee-plus-point", poset=P)
    assert [(r.check_id, r.status) for r in report.results] == [("wk-composition", "pass")]
    gens = _wk_generators(_Ctx(L, SuiteConfig(), poset=P))
    assert all(sorted(fs) == sorted(gens.ravel()) for _, fs in calls)
    assert (np.concatenate([gs for gs, _ in calls]) == np.arange(2500)).all()


# -- the composite-index kernel ------------------------------------------------------------


def _composites_per_row(H, gs, fs):
    """Index of g o f, one index_rows call of materialized composites per g."""
    return np.stack([H.index_rows(H.tables[g][H.tables[fs]]) for g in gs])


def _joins_per_row(H, gs, fs):
    return np.stack([H.index_rows(H.lattice.join[H.tables[g][None, :], H.tables[fs]]) for g in gs])


def _product(A, B):
    return Lattice(np.kron(A.leq, B.leq))


@pytest.fixture(scope="module")
def kernel_homsets():
    """Every corpus homset and one homset of 2,500 members."""
    out = {name: enumerate_homset(L) for name, L, _ in corpus()}
    out["m3xchain2"] = enumerate_homset(_product(make_mk(3), make_chain(2)))
    return out


def test_compose_indices_equal_the_looked_up_composites(kernel_homsets):
    for name, H in kernel_homsets.items():
        members = np.arange(H.m)
        step = max(1, BLOCK_ROWS // H.m)
        for start in range(0, H.m, step):
            block = members[start:start + step]
            assert (H.compose_indices(block, members) == _composites_per_row(H, block, members)).all(), name
        for k in (0, H.m // 2, H.m - 1):
            assert (H.compose_indices(k, members) == _composites_per_row(H, [k], members)).all(), name
            assert (H.compose_indices(members, [k]) == _composites_per_row(H, members, [k])).all(), name
            assert H.compose_indices(k, k).shape == (1, 1)


def test_join_indices_equal_the_looked_up_joins(kernel_homsets):
    for name, H in kernel_homsets.items():
        picks = np.unique(np.linspace(0, H.m - 1, 40).astype(int))
        members = np.arange(H.m)
        assert (join_indices(H, picks, members) == _joins_per_row(H, picks, members)).all(), name
        assert (join_indices(H, members, picks[-1]) == _joins_per_row(H, members, [picks[-1]])).all(), name


LOOKUPS = ("slot", "sorted")


def _looked_up_by(H, lookup, monkeypatch):
    """A fresh copy of H whose J-keys are looked up through `lookup`: the
    slot table, or the sorted keys that lattices with n^|J| > SLOT_CAP use,
    forced here by setting SLOT_CAP to 0 through `monkeypatch` for as long
    as it holds, the opposite homset included."""
    if lookup == "sorted":
        monkeypatch.setattr(quantale, "SLOT_CAP", 0)
    K = EndoHomset(H.lattice, H.tables)
    assert _lookup_of(K) == lookup
    return K


def _lookup_of(H):
    return "sorted" if H._keys()[2] is None else "slot"


def _off_member_rows(H, rng, count=300):
    """Rows that are mostly not members: random values, and members with one
    entry set to a random value."""
    n = H.lattice.n
    moved = H.tables[rng.integers(0, H.m, count)].copy()
    moved[np.arange(count), rng.integers(0, n, count)] = rng.integers(0, n, count)
    return np.concatenate([rng.integers(0, n, (count, n)), moved]).astype(np.int16)


ALL_PAIRS_MAX = 108  # members of downset-chain2-plus-point, the largest homset compared on every pair


def test_the_two_lookups_give_the_same_indices(kernel_homsets):
    rng = np.random.default_rng(0)
    for name, H in kernel_homsets.items():
        assert _lookup_of(H) == "slot", name
        members = np.arange(H.m)
        if H.m <= ALL_PAIRS_MAX:
            sides = [(members, members), (3 % H.m, members)]
        else:
            picks = np.unique(np.linspace(0, H.m - 1, 40).astype(int))
            sides = [(picks, members), (members, picks)]
        rows = np.concatenate([H.tables, _off_member_rows(H, rng)])
        got = {}
        for lookup in LOOKUPS:
            with pytest.MonkeyPatch.context() as mp:
                K = _looked_up_by(H, lookup, mp)
                got[lookup] = [kernel(K, gs, fs) for kernel in (EndoHomset.compose_indices, join_indices)
                               for gs, fs in sides]
                got[lookup].append(lookup_rows(K, rows))
        for lookup in LOOKUPS[1:]:
            for a, b in zip(got["slot"], got[lookup]):
                assert (a == b).all(), (name, lookup)
        idx = got["slot"][-1]
        assert (idx[:H.m] == members).all(), name
        assert (idx[H.m:] < 0).any() or H.lattice.n == 1, name


def test_a_row_that_agrees_with_a_member_only_on_the_join_irreducibles_is_absent(kernel_homsets):
    for name, H in kernel_homsets.items():
        L = H.lattice
        if L.n == 1:
            continue  # no other value to move to
        others = [x for x in range(L.n) if x not in join_irreducibles(L)]  # bottom at least
        rows = np.repeat(H.tables, len(others), axis=0)
        at = np.tile(others, H.m)
        rows[np.arange(len(rows)), at] = (rows[np.arange(len(rows)), at] + 1) % L.n
        for lookup in LOOKUPS:
            with pytest.MonkeyPatch.context() as mp:
                K = _looked_up_by(H, lookup, mp)
                assert (lookup_rows(K, rows) == -1).all(), (name, lookup)
                with pytest.raises(KeyError):
                    K.index_rows(rows[-1])
        # each row's J-key finds its member, and the full-row check refuses it
        J, radix, slot, _ = H._keys()
        assert (J == join_irreducibles(L)).all()
        assert (slot[rows[:, J] @ radix] == np.repeat(np.arange(H.m), len(others))).all(), name


@pytest.mark.parametrize("lookup", LOOKUPS)
def test_the_slot_table_refuses_members_that_break_exactness(kernel_homsets, lookup, monkeypatch):
    H = kernel_homsets["n5"]
    L = H.lattice
    bad = H.tables[-1].copy()  # a member with its value at bottom raised to top
    bad[L.bottom] = L.top
    if lookup == "sorted":
        monkeypatch.setattr(quantale, "SLOT_CAP", 0)
    for tables, match in (
        (np.concatenate([H.tables, bad[None]]), f"member {H.m} is not join-preserving"),
        (np.concatenate([H.tables[:4], H.tables[2:3]]), "members 2 and 4 agree on the join-irreducibles"),
    ):
        K = EndoHomset(L, tables)
        for call in (lambda: K.index_rows(K.tables[0]), lambda: K.compose_indices(0, 0),
                     lambda: join_indices(K, 0, 0)):
            with pytest.raises(ValueError, match=match):
                call()


def test_the_lookup_follows_the_size_of_the_key_space():
    def ends(L):  # bottom and identity
        return EndoHomset(L, np.array([[L.bottom] * L.n, np.arange(L.n)], dtype=np.int16))

    assert _lookup_of(ends(make_boolean(4))) == "slot"  # 16^4 keys
    assert _lookup_of(ends(make_mk(6))) == "slot"       # 8^6 keys, the cap
    assert _lookup_of(ends(make_mk(7))) == "sorted"     # 9^7 keys
    assert _lookup_of(ends(make_chain(8))) == "sorted"  # 8^7 keys
    assert _lookup_of(ends(make_chain(9))) == "sorted"  # 9^8 keys
    K = ends(make_chain(17))                            # 17^16 keys, past 2^63
    with pytest.raises(CapExceeded, match="exceeds the int64 range") as exc:
        K.index_rows(K.tables)
    assert exc.value.partial_count == 17**16


def test_the_suite_reports_the_same_through_either_lookup(monkeypatch):
    """chain 8 runs on the sorted J-keys, its homset and the opposite one
    alike; with SLOT_CAP raised to its 8^7 keys it runs on slot tables."""
    sorted_run = report_to_json([run_suite(make_chain(8), name="chain8")])
    monkeypatch.setattr(quantale, "SLOT_CAP", 8**7)
    assert sorted_run == report_to_json([run_suite(make_chain(8), name="chain8")])
    assert '"status": "pass"' in sorted_run and '"status": "fail"' not in sorted_run


@pytest.mark.parametrize("lookup", LOOKUPS)
def test_a_missing_member_raises_key_error(kernel_homsets, lookup, monkeypatch):
    H = kernel_homsets["n5"]
    members = np.arange(H.m)
    comp = H.compose_indices(members, members)
    joins = join_indices(H, members, members)
    for table, kernel in ((comp, EndoHomset.compose_indices), (joins, join_indices)):
        # a member that some g o f (or g v f) reaches from two other members
        g0, f0 = next((g, f) for g, f in np.argwhere(table) if table[g, f] not in (g, f))
        k = int(table[g0, f0])
        less = _looked_up_by(EndoHomset(H.lattice, np.delete(H.tables, k, axis=0)), lookup, monkeypatch)
        g, f = g0 - (g0 > k), f0 - (f0 > k)  # indices after the deletion
        assert (less.tables[g] == H.tables[g0]).all() and (less.tables[f] == H.tables[f0]).all()
        with pytest.raises(KeyError):
            kernel(less, g, f)
        with pytest.raises(KeyError):
            kernel(less, np.arange(less.m), np.arange(less.m))
        with pytest.raises(KeyError):
            less.index_rows(H.tables[k])


# -- tight subset witnesses ------------------------------------------------------------------


def _tight_subset_per_member(ctx):
    """Composites and joins of the tight members, one member at a time."""
    H, L = ctx.homset, ctx.L
    tight = H.tight_indices()
    mask = H.tight_mask
    for t in tight:
        t_tab = H.tables[t]
        if not mask[H.index_rows(t_tab[H.tables])].all():
            return f"left composite with tight member {t} escapes the tight subset"
        if not mask[H.index_rows(H.tables[:, t_tab.astype(np.int64)])].all():
            return f"right composite with tight member {t} escapes the tight subset"
    sub = H.tables[tight].astype(np.int64)
    for i in range(len(tight)):
        if not mask[H.index_rows(L.join[sub[i][None, :], sub])].all():
            return "tight subset is not closed under joins"
    down_idx = np.unique(H.index_rows(raney_down_tables(L, H.rho_tables)))
    if set(down_idx.tolist()) != set(int(i) for i in tight):
        return "image of the down transform differs from the tight subset"
    if (len(down_idx) == H.m) != bool(mask[H.identity_index]):
        return "down transform surjectivity disagrees with tightness of the identity"
    return None


def _set_tight_mask(monkeypatch, H, mask):
    monkeypatch.setitem(H._cache, "tight_mask", np.asarray(mask, dtype=bool))


IMAGE_WITNESS = "image of the down transform differs from the tight subset"


@pytest.mark.parametrize("make", [make_n5, lambda: make_mk(3), lambda: make_chain(4)])
def test_tight_subset_reports_the_per_member_witness(monkeypatch, make):
    """Planted tight masks: the per-member oracle finds its composite, join
    or image witness, and the check, which compares the down image first,
    fails with the image witness on every mask but the real one."""
    ctx = _Ctx(make(), SuiteConfig())
    H, L = ctx.homset, ctx.L
    assert check_tight_subset(ctx) is None
    real = np.array(H.tight_mask)

    def planted(mask):
        _set_tight_mask(monkeypatch, H, mask)
        assert check_tight_subset(ctx) == (None if (np.asarray(mask) == real).all() else IMAGE_WITNESS)
        return _tight_subset_per_member(ctx)

    # {t : t(a) = bottom} is closed under t o f for every f, so only a left
    # composite can escape it; {t : t(top) <= a} is closed under g o t, so
    # only a right one can; both are closed under joins
    sides = set()
    for a in range(L.n):
        for side, mask in (("left", H.tables[:, a] == L.bottom), ("right", L.leq[H.tables[:, L.top], a])):
            want = planted(mask)
            if want and want.split()[0] in ("left", "right"):
                assert want.startswith(side)
                sides.add(side)
    assert sides == {"left", "right"}
    # the maps with at most one value above the bottom are closed under both
    # composites but not under joins
    mask = [len(set(t) - {L.bottom}) <= 1 for t in H.tables.tolist()]
    assert planted(mask) == "tight subset is not closed under joins"
    for k in range(H.m):
        flipped = real.copy()
        flipped[k] = not flipped[k]
        assert planted(flipped) is not None, k


@pytest.mark.parametrize("name", ["m3", "m5", "n5"])
def test_tight_subset_reports_the_interior_and_composite_witnesses(pair_scan_ctxs, monkeypatch, name):
    """Faults of the tight interior k = down o up, and a planted composite
    of a tight member with a join-irreducible member.  k planted on its
    memo so that a tight member is no fixed point changes the tight mask
    built from it, which the down image sees.  Deflation and monotonicity
    of k are raney-adjunction's counit and its monotone up and down: a k(f)
    raised to the top member, planted where the counit reads k, fails the
    counit at f.  up(f) = rho_q for a loose f and an inf map q with k(f) =
    star(q) <= f keeps the unit and the counit (f is no star, so the unit
    never reads up(f)); on n5 the first such plant that breaks monotonicity
    fails the up-monotone test on the first cover edge it breaks."""
    ctx = pair_scan_ctxs[name]
    H = ctx.homset
    mask, k = np.array(H.tight_mask), np.array(H.tight_interior_indices)
    f_e, g_e = structures.homset_irreducibles(H).lower_cover_edges
    loose = np.flatnonzero(~mask)

    with pytest.MonkeyPatch.context() as mp:
        planted = k.copy()
        planted[H.tight_indices()[-1]] = H.bottom_index
        mp.setitem(H._cache, "tight_idx", planted)
        mp.delitem(H._cache, "tight_mask")
        assert check_tight_subset(ctx) == IMAGE_WITNESS
    assert check_tight_subset(ctx) is None

    f = int(loose[loose != H.top_index][0])
    u = np.array(H.op.star_indices)  # k = star[u]
    assert H.star_indices[H.bottom_index] == H.top_index  # down(rho bottom) = down(top inf map)
    with pytest.MonkeyPatch.context() as mp:
        raised = u.copy()
        raised[f] = H.bottom_index
        mp.setitem(H.op._cache, "star_idx", raised)
        assert check_raney_adjunction(ctx) == f"counit of the transform adjunction fails at member {f}"

    # up(g) <= up(f) exactly when member u[f] <= member u[g], as rho reverses the order
    leq, star = order_on_J(H), H.star_indices
    for f, q in ((f, q) for f in loose for q in np.flatnonzero(leq[star, f]) if q != u[f]):
        planted = u.copy()
        planted[f] = q
        bad = ~leq[planted[f_e], planted[g_e]]
        if bad.any():
            e = int(np.argmax(bad))
            rows = np.array(H.up_transform_tables)
            rows[f] = H.rho_tables[q]
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(H._cache, "up_t", rows)
                mp.setitem(H.op._cache, "star_idx", planted)
                want = f"up transform is not monotone on the cover edge ({g_e[e]}, {f_e[e]})"
                assert check_raney_adjunction(ctx) == want
            break
    else:
        assert name in ("m3", "m5")  # every such plant keeps up monotone there
    assert check_raney_adjunction(ctx) is None

    tight, real = H.tight_indices(), EndoHomset.compose_indices
    for side, at in (("left", 0), ("right", 0), ("left", len(tight) - 1), ("right", len(tight) - 1)):
        def escaping(self, gs, fs=None):
            out = real(self, gs, fs).copy()
            if side == "left" and np.array_equal(gs, tight):
                out[at, -1] = loose[0]
            if side == "right" and np.array_equal(fs, tight):
                out[-1, at] = loose[0]
            return out

        monkeypatch.setattr(EndoHomset, "compose_indices", escaping)
        want = f"{side} composite with tight member {tight[at]} escapes the tight subset"
        assert check_tight_subset(ctx) == want


# -- old bodies of the pair scans ------------------------------------------------------------


@pytest.fixture(scope="module")
def pair_scan_ctxs():
    """A context for every corpus entry and every seed-0 midsize entry, by name."""
    entries = corpus() + workloads.build("midsize", 0)
    return {name: _Ctx(L, SuiteConfig(), poset=P) for name, L, P in entries}


def test_the_pair_scans_agree_with_their_old_bodies(pair_scan_ctxs):
    for name, ctx in pair_scan_ctxs.items():
        assert check_tight_subset(ctx) == tight_subset_every_composite(ctx) is None, name
        assert check_raney_adjunction(ctx) == raney_adjunction_by_pairs(ctx) is None, name
        if ctx.poset is not None:
            assert check_wk_composition(ctx) == wk_composition_by_rows(ctx) is None, name
            assert wk_composition_per_member(ctx) is None, name


@pytest.mark.parametrize("name", ["m3", "m5"])
def test_a_flipped_tight_entry_gives_the_old_verdict(pair_scan_ctxs, monkeypatch, name):
    """Both forms fail on one flipped entry of the tight mask: the old body
    with a composite, join or image witness, the check, which compares the
    down image first, with the image witness."""
    ctx = pair_scan_ctxs[name]
    H = ctx.homset
    real = np.array(H.tight_mask)
    tight, loose = np.flatnonzero(real), np.flatnonzero(~real)
    for k in (tight[0], tight[-1], loose[0], loose[-1], H.identity_index):
        flipped = real.copy()
        flipped[k] = not flipped[k]
        _set_tight_mask(monkeypatch, H, flipped)
        assert tight_subset_every_composite(ctx) is not None, k
        assert check_tight_subset(ctx) == IMAGE_WITNESS, k


@pytest.mark.parametrize("name", ["boolean3", "downset-vee-plus-point"])
def test_tight_subset_looks_up_no_composite_when_every_member_is_tight(pair_scan_ctxs, monkeypatch, name):
    ctx = pair_scan_ctxs[name]
    assert ctx.homset.tight_mask.all()
    calls = []

    def refuse(self, gs, fs=None):
        calls.append((gs, fs))
        raise AssertionError("no composite or join is needed")

    monkeypatch.setattr(EndoHomset, "compose_indices", refuse)
    monkeypatch.setattr(oracles, "join_indices", refuse)
    assert check_tight_subset(ctx) is None
    assert calls == []
    with pytest.raises(AssertionError, match="no composite"):
        tight_subset_every_composite(ctx)


def _swap_composite(monkeypatch, H, i, j):
    """Patch compose_indices so that f_i o f_j looks up another member; the
    witness that names the pair."""
    real = EndoHomset.compose_indices
    other = (int(real(H, i, j)[0, 0]) + 1) % H.m

    def swapped(self, gs, fs=None):
        out = real(self, gs, fs)
        at_i = np.atleast_1d(gs) == i
        at_j = np.arange(self.m) == j if fs is None else np.atleast_1d(fs) == j
        out[np.ix_(at_i, at_j)] = other
        return out

    monkeypatch.setattr(EndoHomset, "compose_indices", swapped)
    return f"relational composition differs from map composition at ({i}, {j})"


@pytest.mark.parametrize("name, i, j", [
    ("downset-chain2-plus-point", 40, 7),
    ("downset-vee-plus-point", 1234, 0),
    ("downset-vee-plus-point", 5, 2499),
])
def test_a_swapped_composite_gives_the_old_wk_witness(pair_scan_ctxs, monkeypatch, name, i, j):
    """Off the generators the old body over every pair names the swap, and
    the check, which looks up composites with the generators alone, passes:
    a wrong composite there is caught by
    test_compose_indices_equal_the_looked_up_composites."""
    ctx = pair_scan_ctxs[name]
    assert j not in _wk_generators(ctx)
    want = _swap_composite(monkeypatch, ctx.homset, i, j)
    assert wk_composition_by_rows(ctx) == want
    assert check_wk_composition(ctx) is None


@pytest.mark.parametrize("name, i", [("downset-chain2-plus-point", 40), ("downset-vee-plus-point", 1234)])
def test_a_swapped_generator_composite_gives_the_wk_witness(pair_scan_ctxs, name, i):
    """A swap at (i, g) for each generator g, one at a time: the check and
    the old body over every pair both name it."""
    ctx = pair_scan_ctxs[name]
    for g in _wk_generators(ctx).ravel():
        with pytest.MonkeyPatch.context() as mp:
            want = _swap_composite(mp, ctx.homset, i, int(g))
            assert wk_composition_by_rows(ctx) == check_wk_composition(ctx) == want, g


# -- the generator-map kernels ---------------------------------------------------------------


def _e_row(S, T, y, x):
    """e(y, x) as a comprehension: t to y when t not<= x, else bottom."""
    return [y if not S.leq[t, x] else T.bottom for t in range(S.n)]


def _tensor_row(S, T, y, x):
    """y over x as a comprehension: top off the down-set of x, y on it, and
    bottom at bottom."""
    return [T.top if not S.leq[t, x] else T.bottom if t == S.bottom else y for t in range(S.n)]


def _c_row(S, T, y):
    return [T.bottom if t == S.bottom else y for t in range(S.n)]


def _a_row(S, T, x):
    return [T.bottom if S.leq[t, x] else T.top for t in range(S.n)]


GENERATOR_PAIRS = [(name, L, L) for name, L, _ in corpus()] + [
    ("mk3->chain2", make_mk(3), make_chain(2)),
    ("chain2->mk3", make_chain(2), make_mk(3)),
]


@pytest.mark.parametrize("S, T", [(S, T) for _, S, T in GENERATOR_PAIRS],
                         ids=[name for name, _, _ in GENERATOR_PAIRS])
def test_generator_kernels_equal_the_comprehension_constructors(S, T):
    ys, xs = np.arange(T.n), np.arange(S.n)
    for kernel, row in ((e_tables, _e_row), (tensor_tables, _tensor_row)):
        want = np.array([[row(S, T, y, x) for x in xs] for y in ys])  # [y, x, t]
        # 2-D: broadcast columns and rows, a full array against a row, and [x, y]
        assert (kernel(S, T, ys[:, None], xs[None, :]) == want).all()
        assert (kernel(S, T, np.repeat(ys[:, None], S.n, axis=1), xs[None, :]) == want).all()
        assert (kernel(S, T, ys, xs[:, None]) == want.transpose(1, 0, 2)).all()
        for y in ys:
            assert kernel(S, T, y, xs).shape == (S.n, S.n)                            # 1-D
            assert (kernel(S, T, y, xs) == want[y]).all()
            for x in xs:
                assert kernel(S, T, y, x).shape == (S.n,)                             # scalar
                assert (kernel(S, T, y, x) == want[y, x]).all()
        for x in xs:
            assert (kernel(S, T, ys, x) == want[:, x]).all()
            assert (kernel(S, T, ys[::-1], x) == want[::-1, x]).all()
    for y in ys:
        assert c_map(S, T, y).table == tuple(_c_row(S, T, y))
        for x in xs:
            assert e_map(S, T, y, x).table == tuple(_e_row(S, T, y, x))
            assert tensor_over(S, T, y, x).table == tuple(_tensor_row(S, T, y, x))
    for x in xs:
        assert a_map(S, T, x).table == tuple(_a_row(S, T, x))


# -- division-formula witnesses --------------------------------------------------------------


def _division_witness_per_pair(ctx):
    """The division formulas, one (y, x) at a time with per-pair residual
    calls, from the comprehension constructors."""
    H, L = ctx.homset, ctx.L
    n, top, bot = L.n, L.top, L.bottom
    up = H.up_transform_tables
    st = H.tables[H.star_indices.astype(np.int64)]
    arange = np.arange(n)

    def c_rows(vals):
        return np.where(arange[None, :] == bot, np.int16(bot), vals[:, None].astype(np.int16))

    def a_rows(vals):
        return np.where(L.leq.T[vals.astype(np.int64)], np.int16(bot), np.int16(top))

    def tensor_rows(vals, x):
        out = np.where(L.leq[:, x][None, :], vals[:, None].astype(np.int16), np.int16(top))
        out[:, bot] = bot
        return out

    def tensor_rows_varying(y, xs):
        out = np.where(L.leq.T[xs.astype(np.int64)], np.int16(y), np.int16(top))
        out[:, bot] = bot
        return out

    for y in range(n):
        for x in range(n):
            e_tab = np.array(_e_row(L, L, y, x), dtype=np.int16)
            if not (rdiv_tables(L, H.tables, e_tab) == tensor_rows(up[:, x], y)).all():
                return f"division by the e map fails at (y={y}, x={x})"
            e_idx = H.index_rows(e_tab)[0]
            got = ldiv_tables(L, H.rho_tables[e_idx], H.tables)
            if not (got == tensor_rows_varying(x, st[:, y])).all():
                return f"co-division by the e map fails at (y={y}, x={x})"
            t_tab = np.array(_tensor_row(L, L, y, x), dtype=np.int16)
            t_div = rdiv_tables(L, H.tables, t_tab)
            want = sup_interior_tables(
                L, L, L.meet[c_rows(up[:, x]), tensor_rows(up[:, bot], y)].astype(np.int16)
            )
            if not (t_div == want).all():
                return f"division by the tensor fails at (y={y}, x={x})"
            t_idx = H.index_rows(t_tab)[0]
            t_codiv = ldiv_tables(L, H.rho_tables[t_idx], H.tables)
            want = sup_interior_tables(
                L, L, L.meet[a_rows(st[:, y]), tensor_rows_varying(x, st[:, top])].astype(np.int16)
            )
            if not (t_codiv == want).all():
                return f"co-division by the tensor fails at (y={y}, x={x})"
            rows = np.flatnonzero(up[:, bot] == bot)
            red = np.where(L.leq[:, y][None, :], np.int16(bot), up[rows, x][:, None].astype(np.int16))
            if not (t_div[rows] == red).all():
                return f"reduced tensor division fails at (y={y}, x={x})"
            rows = np.flatnonzero(st[:, top] == top)
            red = np.where(L.leq.T[st[rows, y].astype(np.int64)], np.int16(bot), np.int16(x))
            if not (t_codiv[rows] == red).all():
                return f"reduced tensor co-division fails at (y={y}, x={x})"
    return None


def _division_witness_by_tables(ctx):
    """The division formulas on whole tables: every residual and closed form
    as its row of n values, the blocked pass the J-key comparison replaced."""
    H, L = ctx.homset, ctx.L
    n, m, top, bot = L.n, H.m, L.top, L.bottom
    up = H.up_transform_tables
    st = H.tables[H.star_indices.astype(np.int64)]
    up_bot, st_top = up[:, bot], st[:, top]
    ys, xs = np.divmod(np.arange(n * n), n)
    e_idx = H.index_rows(e_tables(L, L, ys, xs))
    t_idx = H.index_rows(tensor_tables(L, L, ys, xs))
    members = np.arange(m)

    def div(divisors):
        return H.tables[H.op.ldiv_index(divisors, members)]

    def codiv(divisors):
        return H.tables[H.ldiv_index(divisors, members)]

    step = max(1, verify.BLOCK_ROWS // m)
    for start in range(0, n * n, step):
        p = slice(start, start + step)
        y, x = ys[p, None], xs[p, None]
        up_x, st_y = up[:, xs[p]].T, st[:, ys[p]].T
        e_div, e_codiv = div(e_idx[p]), codiv(e_idx[p])
        t_div, t_codiv = div(t_idx[p]), codiv(t_idx[p])
        over = L.meet[e_tables(L, L, up_x, bot), tensor_tables(L, L, up_bot, y)]
        under = L.meet[e_tables(L, L, top, st_y), tensor_tables(L, L, x, st_top)]
        bad = np.stack([
            e_div != tensor_tables(L, L, up_x, y),
            e_codiv != tensor_tables(L, L, x, st_y),
            t_div != H.tables[_interior_indices(H, over)],
            t_codiv != H.tables[_interior_indices(H, under)],
            (t_div != e_tables(L, L, up_x, y)) & (up_bot == bot)[:, None],
            (t_codiv != e_tables(L, L, x, st_y)) & (st_top == top)[:, None],
        ]).any(axis=(2, 3))
        if bad.any():
            pair = int(np.flatnonzero(bad.any(axis=0))[0])
            name = verify.DIVISION_FORMULAS[int(np.argmax(bad[:, pair]))]
            return f"{name} fails at (y={ys[start + pair]}, x={xs[start + pair]})"
    return None


def test_division_formulas_pass_on_the_corpus_as_per_pair():
    for name, L, _ in corpus():
        ctx = _Ctx(L, SuiteConfig())
        if ctx.homset.m <= 512:
            assert check_division_formulas(ctx) is None, name
            assert _division_witness_per_pair(ctx) is None, name
            assert _division_witness_by_tables(ctx) is None, name


def test_division_formulas_report_the_per_pair_witness(monkeypatch):
    """Each corrupted up-transform entry or star index gives the witness of
    both oracles, per pair and on whole tables: the first failing (y, x) in
    row-major order, then the first
    failing formula.  Whenever a reduced form applies it equals the tensor
    form, so a corrupted table fails the tensor form first.  In the dual
    pentagon the bottom is the last element, so the pairs with y = bottom,
    where the e-map divisions do not depend on the tables, come last."""
    seen = set()
    for L in (make_n5(), dual(make_n5()), make_mk(3), make_chain(4)):
        ctx = _Ctx(L, SuiteConfig())
        H = ctx.homset
        monkeypatch.setattr(verify, "BLOCK_ROWS", 3 * H.m)  # three pairs per block
        assert check_division_formulas(ctx) is None
        up, star_idx = np.array(H.up_transform_tables), np.array(H.star_indices)
        for f in range(0, H.m, max(1, H.m // 12)):
            for x in range(L.n):
                bad = up.copy()
                bad[f, x] = (bad[f, x] + 1) % L.n
                monkeypatch.setitem(H._cache, "up_t", bad)
                want = _division_witness_per_pair(ctx)
                assert want is not None and check_division_formulas(ctx) == want, (f, x)
                assert _division_witness_by_tables(ctx) == want, (f, x)
                seen.add(want.split(" fails")[0])
            monkeypatch.setitem(H._cache, "up_t", up)
            for g in (1, H.m // 2):
                bad = star_idx.copy()
                bad[f] = (bad[f] + g) % H.m
                monkeypatch.setitem(H._cache, "star_idx", bad)
                want = _division_witness_per_pair(ctx)
                assert check_division_formulas(ctx) == want == _division_witness_by_tables(ctx), (f, g)
                if want is not None:
                    seen.add(want.split(" fails")[0])
            monkeypatch.setitem(H._cache, "star_idx", star_idx)
    assert seen == set(verify.DIVISION_FORMULAS[:4])


@pytest.mark.parametrize("make", [make_n5, lambda: make_mk(3), lambda: make_chain(4)])
def test_a_planted_interior_entry_fails_division_as_on_whole_tables(make):
    """A wrong memo entry, one that the interior of the meet in the tensor
    division reads at a pair in the middle of the scan, gives the witness of
    the table form, which reads the same memo; a residual that shares the
    key may read it first."""
    ctx = _Ctx(make(), SuiteConfig())
    H, L = ctx.homset, ctx.L
    assert check_division_formulas(ctx) is None
    up, y, x = H.up_transform_tables, L.n // 2, L.n - 1
    over = L.meet[e_tables(L, L, up[:, x], L.bottom), tensor_tables(L, L, up[:, L.bottom], y)]
    memo, q = H._interior_memo(), H._j_keys(over)[H.m // 2]
    memo[q] = (memo[q] + 1) % H.m
    want = _division_witness_by_tables(ctx)
    assert want is not None and check_division_formulas(ctx) == want


# -- the transform adjunction on the irreducibles -----------------------------------------


def test_raney_adjunction_sides_equal_the_scans_of_all_columns(kernel_homsets):
    """down(g) <= f is compared on J and g <= up(f) on M; the comparison on
    all n columns is the oracle, on the corpus and on m3 x chain2."""
    for name, H in kernel_homsets.items():
        L = H.lattice
        ctx = _Ctx(L, SuiteConfig())
        inf = ctx.homset.rho_tables  # the inf maps, as the rho rows
        lhs, rhs = raney_adjunction_sides(ctx)
        assert (lhs == leq_tables(L, raney_down_tables(L, inf), H.tables)).all(), name
        assert (rhs == leq_tables(L, inf, raney_up_tables(L, H.tables))).all(), name
        assert (lhs == rhs).all(), name


def _off(L, irreducibles):
    """The highest element outside `irreducibles`; bottom lies outside J and
    top outside M."""
    return max(x for x in range(L.n) if x not in set(irreducibles))


@pytest.mark.parametrize("on_op, irreducibles", [(False, join_irreducibles),
                                               (True, meet_irreducibles)],
                         ids=["down", "up"])
@pytest.mark.parametrize("make", [make_n5, lambda: make_mk(3), lambda: make_boolean(2),
                                  lambda: make_chain(4)])
def test_raney_adjunction_fails_on_a_transform_broken_off_the_irreducibles(
        monkeypatch, on_op, irreducibles, make):
    """One down(g) changed off J, or one up(f) off M, leaves every compared
    column alone; only the membership lookups can see it.  The check reads
    down on the rho rows through `star_indices` and up as the memoized up
    transform; both are the down kernel, up on L being down on L.op, so the
    kernel is broken on one of the two lattices."""
    L = make()
    kept = irreducibles(L)
    real, x = quantale.raney_down_tables, _off(L, kept)
    target = L.op if on_op else L

    def broken(lattice, tables):
        out = real(lattice, tables)
        if lattice is not target:
            return out
        out = out.copy()
        r = len(out) // 2
        out[r, x] = L.top if out[r, x] != L.top else L.bottom
        assert (out[:, kept] == real(lattice, tables)[:, kept]).all()
        return out

    monkeypatch.setattr(quantale, "raney_down_tables", broken)
    (got,) = run_suite(L, SuiteConfig(checks=("raney-adjunction",))).results
    assert got.status == "fail"
    assert got.witness.startswith("KeyError")


def _fresh(pair_scan_ctxs, name):
    """A context of its own for a corpus lattice, whose memos a test may plant."""
    ctx = pair_scan_ctxs[name]
    return _Ctx(ctx.L, SuiteConfig(), poset=ctx.poset)


@pytest.mark.parametrize("name", ["m3", "m5"])
def test_both_forms_of_raney_adjunction_fail_on_a_rolled_star(pair_scan_ctxs, name):
    """The check reads down on the rho rows as star, so a rolled star alone
    fails it, at the unit, while the old pair form, reading down off the up
    transform of `H.op`, does not see it; rolled there too, so that
    down(rho_f) = star(f) still holds, both forms fail."""
    ctx = _fresh(pair_scan_ctxs, name)
    H = ctx.homset
    assert check_raney_adjunction(ctx) is None
    star = np.roll(H.star_indices, 1)
    H._cache["star_idx"] = star
    assert check_raney_adjunction(ctx).startswith("unit of the transform adjunction fails at inf map")
    assert raney_adjunction_by_pairs(ctx) is None
    H.op._cache["up_t"] = H.tables[star]
    assert check_raney_adjunction(ctx) is not None
    assert raney_adjunction_by_pairs(ctx) is not None


def test_a_raised_star_off_the_image_of_up_fails_only_down_monotonicity():
    """On n5 one inf map, rho_i, lies outside the image of up.  Its star
    raised to the top member keeps the unit, as up(top) is the top inf map,
    and every counit, which reads star on the image of up alone; so only
    the down-monotone fact sees it.  The old pair form, on the same down
    rows, fails too."""
    ctx = _Ctx(make_n5(), SuiteConfig())
    H = ctx.homset
    [i] = np.setdiff1d(np.arange(H.m), H.op.index_rows(H.up_transform_tables))
    star = np.array(H.star_indices)
    star[i] = H.top_index
    H._cache["star_idx"], H.op._cache["up_t"] = star, H.tables[star]
    got = check_raney_adjunction(ctx)
    assert got.startswith("down transform is not monotone on the cover edge") and got.endswith(f", {i})")
    assert raney_adjunction_by_pairs(ctx) is not None


@pytest.mark.parametrize("name", ["m3", "m5"])
def test_both_forms_of_raney_adjunction_fail_on_a_replaced_up_row(pair_scan_ctxs, name):
    """One member's up transform replaced by another member's: every up(f)
    is still an inf map, so only the unit, the counit or the monotonicity
    of up can see it."""
    ctx = _fresh(pair_scan_ctxs, name)
    H = ctx.homset
    up = np.array(H.up_transform_tables)
    r = H.m // 2
    other = int(np.flatnonzero((up != up[r]).any(axis=1))[0])
    up[r] = up[other]
    H._cache["up_t"] = up
    got = check_raney_adjunction(ctx)
    assert got is not None and got.split()[0] in ("unit", "counit", "up"), got
    assert raney_adjunction_by_pairs(ctx) is not None


@pytest.mark.parametrize("name", ["m3", "m5"])
def test_both_forms_of_raney_adjunction_fail_on_a_raised_down_row(pair_scan_ctxs, name):
    """down(g0) raised to the top member for g0 = up(f0), in star and in the
    up transform of `H.op` alike: up is monotone, so every unit g <= up(down
    g) still holds, and the counit fails at the first member f != top with
    up(f) = g0."""
    ctx = _fresh(pair_scan_ctxs, name)
    H = ctx.homset
    star = np.array(H.star_indices)
    u = H.op.index_rows(H.up_transform_tables)
    f0 = next(f for f in range(H.m) if f != H.top_index and star[u[f]] != H.top_index)
    star[u[f0]] = H.top_index
    H._cache["star_idx"], H.op._cache["up_t"] = star, H.tables[star]
    first = int(np.flatnonzero((u == u[f0]) & (np.arange(H.m) != H.top_index))[0])
    assert check_raney_adjunction(ctx) == f"counit of the transform adjunction fails at member {first}"
    assert raney_adjunction_by_pairs(ctx) is not None


def test_raney_adjunction_and_tight_subset_build_no_pair_table_on_m3xchain2(monkeypatch):
    """m3 x chain2 (2,500 members, 2,200 tight): no order table and no
    composite table of more than |T| |JI(Q)| cells, and no join kernel in
    the package; both checks pass, and tight-subset also alone, with
    homset-irreducibles not run."""
    L = _product(make_mk(3), make_chain(2))
    H = enumerate_homset(L)
    bound = int(H.tight_mask.sum()) * len(structures.homset_irreducibles(H).join_irreducible_indices)

    def refuse(*args, **kwargs):
        raise AssertionError("leq_tables called")

    assert not hasattr(verify, "leq_tables")
    monkeypatch.setattr(maps, "leq_tables", refuse)
    monkeypatch.setattr(structures, "leq_tables", refuse)
    assert not hasattr(EndoHomset, "join_indices")
    cells = []

    def bounded(self, gs, fs=None, _real=EndoHomset.compose_indices):
        cells.append(np.size(gs) * (self.m if fs is None else np.size(fs)))
        assert cells[-1] <= bound, f"{cells[-1]} cells"
        return _real(self, gs, fs)

    monkeypatch.setattr(EndoHomset, "compose_indices", bounded)
    report = run_suite(L, SuiteConfig(checks=("raney-adjunction", "tight-subset")), name="m3xchain2")
    assert [(r.check_id, r.status) for r in report.results] == [
        ("raney-adjunction", "pass"), ("tight-subset", "pass")]
    assert report.flag_errors == {}
    assert cells and max(cells) <= bound
    (alone,) = run_suite(L, SuiteConfig(checks=("tight-subset",))).results
    assert alone.status == "pass"


def test_cached_irreducible_report_still_respects_a_smaller_cap(monkeypatch):
    """m3 x chain2 has 2,500 members, within MATRIX_CAP and past
    TABLE_SCAN_CAP: raney-adjunction fills the homset's irreducible memo,
    and homset-irreducibles and autodual are still skipped by their cap."""
    built = []

    def recorded(L, cap):
        built.append(enumerate_homset(L, cap))
        return built[-1]

    monkeypatch.setattr(verify, "enumerate_homset", recorded)
    config = SuiteConfig(checks=("raney-adjunction", "homset-irreducibles", "autodual"))
    report = run_suite(_product(make_mk(3), make_chain(2)), config, name="m3xchain2")
    assert [(r.check_id, r.status, r.reason) for r in report.results] == [
        ("raney-adjunction", "pass", None),
        ("homset-irreducibles", "skipped", "homset has 2500 members; irreducible scan capped at 2000"),
        ("autodual", "skipped", "2500 maps exceed the search cap 2000"),
    ]
    assert "irreducibles" in built[0]._cache
    assert report.summary["autodual_verdict"] == "inconclusive"


def test_downset_irreducibles_needs_no_search(monkeypatch):
    """Birkhoff's map is tested itself: the check agrees with the search it
    replaced on the corpus and on the midsize and large lattices at seeds 0
    and 7, and passes on boolean 3 and the 64-element downset lattice of the
    6-antichain with the search's node cap at 3."""
    lattices = corpus() + [e for w in ("midsize", "large") for seed in (0, 7) for e in workloads.build(w, seed)]
    for _, L, _ in lattices:
        ctx = _Ctx(L, SuiteConfig())
        assert check_downset_irreducibles(ctx) is None is oracles.downset_irreducibles_by_search(ctx)
    monkeypatch.setattr(lattice, "AUTOMORPHISM_NODE_CAP", 3)
    for L in (make_boolean(3), downset_lattice(Poset(np.eye(6, dtype=bool)))):
        with pytest.raises(SearchCapExceeded):
            oracles.downset_irreducibles_by_search(_Ctx(L, SuiteConfig()))
        assert check_downset_irreducibles(_Ctx(L, SuiteConfig())) is None


@pytest.mark.parametrize("plant", ["collide", "swap"])
def test_a_wrong_downset_index_fails_downset_irreducibles(monkeypatch, plant):
    """A planted wrong index fails the check with the witness of the search:
    two elements sent to one downset, or bottom and top swapped."""
    real = verify._downsets
    L = make_chain(3)

    def wrong(P):
        rows, index = real(P)

        def planted(sets):
            phi = index(sets).copy()
            if plant == "collide":
                phi[1] = phi[0]
            else:
                phi[[L.bottom, L.top]] = phi[[L.top, L.bottom]]
            return phi

        return rows, planted

    monkeypatch.setattr(verify, "_downsets", wrong)
    assert check_downset_irreducibles(_Ctx(L, SuiteConfig())) == "downset representation is not isomorphic to the lattice"


# -- the transform facts, each read from one table ----------------------------------------


@pytest.fixture(scope="module")
def raney_homsets(kernel_homsets):
    """The corpus, m3 x chain2, the opposite of n5 and mk 6 (13,376 members)."""
    return {**kernel_homsets, "dual-n5": enumerate_homset(dual(make_n5())),
            "mk6": enumerate_homset(make_mk(6))}


def test_complete_distributivity_is_the_tightness_of_the_identity(raney_homsets):
    """The one-row table derivation, the single-map one and the tight mask agree."""
    for name, H in raney_homsets.items():
        L = H.lattice
        cd = is_completely_distributive(L)
        assert cd == is_tight(identity_map(L)) == bool(H.tight_mask[H.identity_index]), name


def test_the_down_transform_of_the_identity_is_its_star(raney_homsets):
    for name, H in raney_homsets.items():
        L = H.lattice
        o = H.tables[H.star_indices[H.identity_index]]
        assert tuple(int(v) for v in o) == raney_down(identity_map(L)).table, name


def test_automorphism_to_dualizing_equals_the_single_map_residual(raney_homsets):
    """On every completely distributive lattice, for every automorphism g:
    the index of down(id) / g, from the single maps."""
    seen = 0
    for name, H in raney_homsets.items():
        L = H.lattice
        if not is_completely_distributive(L):
            with pytest.raises(NotCompletelyDistributive):
                automorphism_to_dualizing(H, tuple(range(L.n)))
            continue
        o = raney_down(identity_map(L))
        for g in automorphisms(L):
            want = H.index_of(right_residual(o, LatticeMap(L, L, g)))
            assert automorphism_to_dualizing(H, g) == want, (name, g)
            seen += 1
    assert seen == 30  # the automorphisms of the 16 distributive corpus lattices


def test_the_right_adjoints_of_the_members_are_the_inf_maps(raney_homsets):
    for name, H in raney_homsets.items():
        inf = enumerate_inf_maps(H.lattice)
        assert np.array_equal(np.unique(H.rho_tables, axis=0), inf), name


def test_the_canonical_family_is_the_table_of_e_maps(raney_homsets):
    """c_y o a_x = e(y, x); the verdict is the same whether the family is
    tabulated from its single maps or read from the e-map kernel."""
    for name, H in raney_homsets.items():
        L = H.lattice
        psi = e_family(L)
        fam = np.array([[psi(y, x).table for x in range(L.n)] for y in range(L.n)])
        vs = np.arange(L.n)
        assert (fam == e_tables(L, L, vs[:, None], vs[None])).all(), name
        assert abstract_raney_check(H) == abstract_raney_check(H, psi), name


def _automorphism_text_by_loop(leq, g):
    """The refusal of a permutation, as automorphism_to_dualizing once
    worded it: the pairs (x, y) in row-major order."""
    n = len(leq)
    if sorted(g) != list(range(n)):
        return "not a permutation of the elements"
    for x in range(n):
        for y in range(n):
            if bool(leq[x, y]) != bool(leq[g[x], g[y]]):
                return f"order not preserved at pair ({x}, {y})"
    return None


def _refusal(build, *args):
    try:
        build(*args)
    except NotAutomorphism as e:
        return str(e)
    return None


@pytest.mark.parametrize("make", [lambda: make_chain(3), lambda: make_boolean(2), lambda: make_mk(3),
                                  make_n5])
def test_not_automorphism_has_one_text_for_lattices_and_posets(make):
    """Every map of the elements into themselves, refused with the same text
    by the dualizing correspondence and by the weakening constructors on the
    lattice's own order, before any completeness test."""
    L = make()
    H, P = enumerate_homset(L), Poset(L.leq)
    refused = 0
    for g in itertools.product(range(L.n), repeat=L.n):
        want = _automorphism_text_by_loop(L.leq, g)
        if want is None:
            continue
        refused += 1
        assert _refusal(automorphism_to_dualizing, H, g) == want, g
        assert _refusal(wk_from_automorphism, P, g) == want, g
        assert _refusal(downset_automorphism, P, g) == want, g
    assert refused == L.n ** L.n - len(automorphisms(L))


def _interior_join_witness_by_loop(L, H, K, out):
    """The first input whose interior differs from the join of the members
    below it, one input at a time."""
    J = join_irreducibles(L)
    below_all = leq_tables(L, H.tables[:, J], K[:, J])
    for k_i in range(len(K)):
        below = below_all[:, k_i]
        join_tab = np.full(L.n, L.bottom, dtype=np.int16)
        for row in H.tables[below]:
            join_tab = L.join[join_tab, row]
        if not (join_tab == out[k_i]).all():
            return f"interior differs from the join of maps below input {k_i}"
    return None


def test_sup_interior_props_fails_on_a_planted_entry_as_the_per_input_loop(kernel_homsets):
    """One memo entry at a time planted at the bottom map, strictly below its
    interior, at a spread of keys of D: the check fails, at a member's key
    by idempotence and elsewhere on a step into it.  On the lattices whose
    monotone endomaps can be listed, the form on rows and the per-input loop
    then both name the first row with that key."""
    small, seen = dict(_small_corpus()), []
    for name, H in kernel_homsets.items():
        L = H.lattice
        D, _ = _monotone_keys(H)
        memo, true = H._interior_memo(), H._interior_keys(D)
        planted = D[np.flatnonzero(true != H.bottom_index)[::max(1, len(D) // 5)]]
        K = _monotone_endomaps(L) if name in small else None
        for q in planted:
            memo[q] = H.bottom_index
            seen.append(_planted_witness(H, q))
            assert check_sup_interior_props(_ctx_on(H)) == seen[-1], (name, q)
            if K is not None:
                row = int(np.flatnonzero(H._j_keys(K) == q)[0])
                want = f"interior differs from the join of maps below input {row}"
                out = _memo_interior(H)(K)
                assert _interior_join_witness_by_loop(L, H, K, out) == want, (name, q)
                if (H._j_keys(out) == q).any():  # a planted member's row: its interior moves
                    want = "interior is not idempotent"
                assert _sup_interior_props_on_rows(L, H, K, _memo_interior(H)) == want, (name, q)
            memo[q] = true[np.searchsorted(D, q)]
        assert check_sup_interior_props(_ctx_on(H)) is None, name
    assert len(seen) > 60 and len(set(seen)) == 2


@pytest.mark.parametrize("make", [lambda: make_boolean(3), lambda: make_mk(5), make_n5],
                         ids=["boolean3", "m5", "n5"])
def test_the_suite_builds_no_single_maps_and_no_second_inf_homset(monkeypatch, make):
    """With no poset, every check reads the transforms, the star of the
    identity and the inf maps from the homset tables: no LatticeMap is built
    and enumerate_inf_maps is never called."""
    built, inf_calls = [], []
    init = LatticeMap.__init__

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counted_inf(*args, **kwargs):
        inf_calls.append(None)
        return enumerate_inf_maps(*args, **kwargs)

    monkeypatch.setattr(LatticeMap, "__init__", counted_init)
    for module in (supq, quantale, structures, verify):
        if hasattr(module, "enumerate_inf_maps"):
            monkeypatch.setattr(module, "enumerate_inf_maps", counted_inf)
    report = run_suite(make())
    assert report.failed == 0
    assert built == [] and inf_calls == []
