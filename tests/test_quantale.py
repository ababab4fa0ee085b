"""Tests for the endomap quantale: enumeration, transforms, residuals,
cyclic/dualizing searches, and the automorphism correspondence.

The oracles enumerate raw value tables (all n^n of them) and recompute
every operation from its defining property before trusting a closed form.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq import (
    Lattice,
    LatticeMap,
    Poset,
    automorphisms,
    c_map,
    downset_lattice,
    dual,
    identity_map,
    is_distributive,
    is_inf_preserving,
    is_sup_preserving,
    left_adjoint,
    leq_tables,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    pointwise_join,
    right_adjoint,
)
from supq import quantale
from supq.quantale import (
    CapExceeded,
    NotAutomorphism,
    NotCompletelyDistributive,
    NotDualizing,
    adjunction_formulas,
    automorphism_to_dualizing,
    conucleus_gap,
    division_formulas,
    dualizing_to_automorphism,
    enumerate_homset,
    enumerate_inf_maps,
    find_cyclic,
    find_dualizing,
    is_completely_distributive,
    is_cyclic,
    is_dualizing,
    is_girard,
    is_tight,
    left_residual,
    q_meet,
    raney_down,
    raney_up,
    relation_dual_profile,
    right_residual,
    star,
    tight_has_unit,
    tight_interior,
)
from supq.verify import corpus

from oracles import join_of, meet_of, order_on_J
from perfbench import workloads

CORPUS = {
    "chain2": make_chain(2),
    "chain3": make_chain(3),
    "chain4": make_chain(4),
    "boolean2": make_boolean(2),
    "m3": make_mk(3),
    "n5": make_n5(),
}

HOMSETS = {name: enumerate_homset(L) for name, L in CORPUS.items()}


# -- oracles -----------------------------------------------------------------


def sup_tables_scan(L):
    """Every join-preserving table, by filtering all n^n value tables."""
    cols = np.array(list(itertools.product(range(L.n), repeat=L.n)), dtype=np.int16)
    ok = cols[:, L.bottom] == L.bottom
    for a in range(L.n):
        for b in range(a + 1, L.n):
            ok &= cols[:, L.join[a, b]] == L.join[cols[:, a], cols[:, b]]
    return cols[ok]


def raney_down_scan(L, table):
    out = []
    for x in range(L.n):
        out.append(join_of(L, (table[t] for t in range(L.n) if not L.leq[x, t])))
    return tuple(out)


def raney_up_scan(L, table):
    out = []
    for x in range(L.n):
        out.append(meet_of(L, (table[t] for t in range(L.n) if not L.leq[t, x])))
    return tuple(out)


def residual_by_scan(H, h_tab, f_tab, side):
    """Pointwise join of every member whose composite lies below h."""
    L = H.lattice
    acc = np.full(L.n, L.bottom, dtype=np.int16)
    for g in H.tables:
        comp = g[f_tab] if side == "right" else h_tab[g]
        target = h_tab if side == "right" else f_tab
        if all(L.leq[comp[x], target[x]] for x in range(L.n)):
            acc = L.join[acc, g].astype(np.int16)
    return tuple(int(v) for v in acc)


# -- enumeration ----------------------------------------------------------------


def test_homset_matches_exhaustive_table_filter():
    for name, L in CORPUS.items():
        expected = sup_tables_scan(L)
        got = HOMSETS[name].tables
        assert got.shape == expected.shape
        assert (np.sort(got, axis=0) == np.sort(expected, axis=0)).all()
        # rows are lex-sorted and unique
        assert (got == np.unique(got, axis=0)).all()


def test_homset_matches_exhaustive_filter_on_m5():
    L = make_mk(5)
    H = enumerate_homset(L)
    expected = sup_tables_scan(L)
    assert H.m == len(expected) == 1582
    assert (H.tables == np.unique(expected, axis=0)).all()


def test_enumeration_order_is_that_of_np_unique():
    """The rows come out in the order of np.unique(axis=0), for the homset
    of every corpus and seed-0 midsize lattice and of its opposite."""
    for name, L, _ in corpus() + workloads.build("midsize", 0):
        for side in (L, L.op):
            tables = enumerate_homset(side).tables
            assert np.array_equal(tables, np.unique(tables, axis=0)), name


def test_two_assignments_with_one_row_raise(monkeypatch):
    """No two assignments on J extend to the same row; if two did, the
    enumeration raises rather than dropping one."""
    real = quantale.extend_from_J

    def twice(L, J, vals):
        ext = real(L, J, vals)  # [x, row]
        ext[:, -1] = ext[:, 0]
        return ext

    monkeypatch.setattr(quantale, "extend_from_J", twice)
    with pytest.raises(ValueError, match="two assignments on J extend to the row"):
        enumerate_homset(make_boolean(2))


def test_homset_sizes_frozen():
    assert [enumerate_homset(make_chain(n)).m for n in range(1, 6)] == [1, 2, 6, 20, 70]
    assert [enumerate_homset(make_boolean(k)).m for k in range(0, 4)] == [1, 2, 16, 512]
    assert HOMSETS["m3"].m == 50
    assert HOMSETS["n5"].m == 43


def test_homset_members_are_sup_preserving_maps():
    for H in HOMSETS.values():
        for i in range(H.m):
            assert is_sup_preserving(H.map_at(i))


def test_homset_cap():
    with pytest.raises(CapExceeded) as exc:
        enumerate_homset(make_boolean(3), cap=100)
    assert exc.value.partial_count > 100
    assert enumerate_homset(make_boolean(3), cap=512).m == 512


def test_mk7_fits_the_work_cap_of_its_homset_cap():
    """The 9^7 assignments to the seven atoms of mk 7 pass the order
    constraints alone, past the work cap of 16 * 150,000; pruning the
    triples c <= a v b with f(c) not below f(a) v f(b) as the atoms are
    assigned keeps the enumeration under it, and the cap error then carries
    the real member count."""
    assert enumerate_homset(make_mk(7), cap=150_000).m == 130_986
    with pytest.raises(CapExceeded) as exc:
        enumerate_homset(make_mk(7))
    assert exc.value.partial_count == 130_986


def test_inf_maps_are_the_dual_homset():
    for name, L in CORPUS.items():
        tabs = enumerate_inf_maps(L)
        assert len(tabs) == HOMSETS[name].m
        for t in tabs:
            assert is_inf_preserving(LatticeMap(L, L, t))


def test_index_lookup_roundtrip():
    for H in HOMSETS.values():
        idx = H.index_rows(H.tables)
        assert (idx == np.arange(H.m)).all()
        assert H.index_of(H.map_at(3 % H.m)) == 3 % H.m
        with pytest.raises(KeyError):
            bad = np.full(H.lattice.n, H.lattice.top, dtype=np.int16)
            H.index_rows(bad)  # never bottom-preserving for n >= 2


def test_distinguished_members():
    for name, H in HOMSETS.items():
        L = H.lattice
        assert tuple(H.tables[H.identity_index]) == tuple(range(L.n))
        assert tuple(H.tables[H.bottom_index]) == (L.bottom,) * L.n
        assert H.map_at(H.top_index) == c_map(L, L, L.top)
        # extremes really bound the homset
        assert leq_tables(L, H.tables[H.bottom_index], H.tables).all()
        assert leq_tables(L, H.tables, H.tables[H.top_index]).all()


def test_homset_closed_under_the_quantale_operations():
    for name, H in HOMSETS.items():
        L = H.lattice
        step = max(1, H.m // 12)
        sample = range(0, H.m, step)
        for i in sample:
            f = H.map_at(i)
            assert H.index_of(star(f)) == H.star_indices[i]
            assert H.index_of(tight_interior(f)) >= 0
            for j in sample:
                g = H.map_at(j)
                H.index_of(f.compose(g))
                H.index_of(pointwise_join(f, g))
                H.index_of(q_meet(f, g))
                H.index_of(right_residual(f, g))
                H.index_of(left_residual(g, f))


def test_the_order_on_J_matches_the_pointwise_scan():
    for name in ["chain3", "boolean2", "m3"]:
        H = HOMSETS[name]
        L = H.lattice
        M = order_on_J(H)
        for i in range(H.m):
            for j in range(H.m):
                expect = all(L.leq[H.tables[i][k], H.tables[j][k]] for k in range(L.n))
                assert bool(M[i, j]) == expect
        assert (leq_tables(L, H.tables[::2], H.tables[1::3]) == M[::2, 1::3]).all()
    # the helper compares members on the join-irreducibles only; the scan of
    # all n columns is the oracle, on every corpus homset of at most 512 maps
    # and on one of 2,500
    homsets = [enumerate_homset(L) for _, L, _ in corpus()]
    homsets = [H for H in homsets if H.m <= 512]
    homsets.append(enumerate_homset(Lattice(np.kron(make_mk(3).leq, make_chain(2).leq))))
    for H in homsets:
        assert (order_on_J(H) == leq_tables(H.lattice, H.tables, H.tables)).all()


# -- transforms ------------------------------------------------------------------


def test_raney_transforms_match_definition_scan():
    for name, H in HOMSETS.items():
        L = H.lattice
        for table in itertools.product(range(L.n), repeat=L.n):
            if L.n > 3 and hash(table) % 17:
                continue  # sample arbitrary tables on the larger lattices
            f = LatticeMap(L, L, table)
            assert raney_down(f).table == raney_down_scan(L, table)
            assert raney_up(f).table == raney_up_scan(L, table)


def test_raney_down_lands_in_sup_maps_and_up_in_inf_maps():
    for L in CORPUS.values():
        for table in itertools.islice(itertools.product(range(L.n), repeat=L.n), 200):
            f = LatticeMap(L, L, table)
            assert is_sup_preserving(raney_down(f))
            assert is_inf_preserving(raney_up(f))


def test_raney_adjunction_on_arbitrary_tables():
    # down-transform of g below f exactly when g below up-transform of f
    for name in ["chain3", "boolean2", "m3", "n5"]:
        L = CORPUS[name]
        tables = list(itertools.product(range(L.n), repeat=L.n))
        sample = tables[:: max(1, len(tables) // 40)]
        for tg in sample:
            for tf in sample:
                g, f = LatticeMap(L, L, tg), LatticeMap(L, L, tf)
                lhs = raney_down(g).leq(f)
                rhs = all(L.leq[tg[t], raney_up(f).table[t]] for t in range(L.n))
                assert lhs == rhs


def test_transform_alternation_stabilizes():
    # one down-up round makes any map tight
    for name, H in HOMSETS.items():
        for i in range(H.m):
            t = tight_interior(H.map_at(i))
            assert is_tight(t)
            assert t.leq(H.map_at(i))


def test_star_through_either_route():
    # left adjoint of the up-transform equals down-transform of the right adjoint
    for name, H in HOMSETS.items():
        for i in range(H.m):
            f = H.map_at(i)
            assert star(f) == left_adjoint(raney_up(f))
            assert star(f) == raney_down(right_adjoint(f))


def test_adjoint_transform_exchange():
    # right adjoint of a down-transform is the up-transform of the left adjoint
    for name, H in HOMSETS.items():
        L = H.lattice
        for t in enumerate_inf_maps(L):
            g = LatticeMap(L, L, t)
            assert right_adjoint(raney_down(g)) == raney_up(left_adjoint(g))


def test_complete_distributivity_matches_distributivity():
    cases = list(CORPUS.values()) + [
        make_mk(5),
        downset_lattice(Poset.from_covers(3, [(0, 1), (0, 2)])),
        downset_lattice(Poset.from_covers(4, [(0, 1), (1, 2), (0, 3)])),
    ]
    for L in cases:
        assert is_completely_distributive(L) == is_distributive(L)


def test_tight_counts_frozen():
    assert int(HOMSETS["chain3"].tight_mask.sum()) == 6
    assert int(HOMSETS["boolean2"].tight_mask.sum()) == 16
    assert int(HOMSETS["m3"].tight_mask.sum()) == 44
    assert int(HOMSETS["n5"].tight_mask.sum()) == 42
    assert int(enumerate_homset(make_mk(5)).tight_mask.sum()) == 262


def test_tight_members_are_the_image_of_the_down_transform():
    for name, H in HOMSETS.items():
        L = H.lattice
        image = {tuple(raney_down_scan(L, t)) for t in enumerate_inf_maps(L)}
        tight = {tuple(int(v) for v in H.tables[i]) for i in H.tight_indices()}
        assert image == tight


def test_identity_is_tight_exactly_on_distributive_lattices():
    for name, H in HOMSETS.items():
        L = H.lattice
        assert bool(H.tight_mask[H.identity_index]) == is_distributive(L)


# -- residuals --------------------------------------------------------------------


def test_residuals_match_join_of_solutions_scan():
    for name in ["chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        for hi in range(H.m):
            for fi in range(H.m):
                h_tab, f_tab = H.tables[hi], H.tables[fi]
                rr = right_residual(H.map_at(hi), H.map_at(fi))
                assert rr.table == residual_by_scan(H, h_tab, f_tab, "right")
                lr = left_residual(H.map_at(hi), H.map_at(fi))
                assert lr.table == residual_by_scan(H, h_tab, f_tab, "left")


def test_residual_adjunction_full_triples():
    for name in ["chain2", "chain3"]:
        H = HOMSETS[name]
        L = H.lattice
        for gi in range(H.m):
            g = H.map_at(gi)
            for fi in range(H.m):
                f = H.map_at(fi)
                for hi in range(H.m):
                    h = H.map_at(hi)
                    below = g.compose(f).leq(h)
                    assert below == g.leq(right_residual(h, f))
                    assert below == f.leq(left_residual(g, h))


def test_batched_residual_indices_match_scalar():
    for name in ["chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        for i in range(0, H.m, max(1, H.m // 8)):
            h = H.map_at(i)
            ld = H.ldiv_indices(i)
            rd = H.rdiv_indices(i)
            for j in range(0, H.m, max(1, H.m // 11)):
                g = H.map_at(j)
                assert H.map_at(int(ld[j])) == left_residual(g, h)
                assert H.map_at(int(rd[j])) == right_residual(h, g)


def test_q_meet_is_the_greatest_lower_bound():
    for name in ["chain3", "boolean2", "n5"]:
        H = HOMSETS[name]
        for i in range(H.m):
            for j in range(i, H.m):
                f, g = H.map_at(i), H.map_at(j)
                w = q_meet(f, g)
                assert w.leq(f) and w.leq(g)
                below_both = leq_tables(H.lattice, H.tables, H.tables[[i, j]]).all(axis=1)
                below_meet = leq_tables(H.lattice, H.tables, w.as_array())[:, 0]
                assert (below_both == below_meet).all()


# -- pointwise characterizations ------------------------------------------------------


def test_relation_dual_profile_equivalences():
    for name in ["chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        L = H.lattice
        for i in range(H.m):
            f = H.map_at(i)
            for y in range(L.n):
                for x in range(L.n):
                    profile = relation_dual_profile(f, y, x)
                    assert len(set(profile)) == 1


def test_adjunction_formulas_hold_everywhere():
    for name, H in HOMSETS.items():
        for i in range(H.m):
            assert all(adjunction_formulas(H.map_at(i)).values())


def test_division_formulas_hold_everywhere():
    for name in ["chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        L = H.lattice
        for i in range(H.m):
            f = H.map_at(i)
            for y in range(L.n):
                for x in range(L.n):
                    division_formulas(f, y, x)  # raises on any mismatch


# -- cyclic and dualizing elements ------------------------------------------------------


def brute_cyclic(H):
    return [i for i in range(H.m) if is_cyclic(H, i)]


def brute_dualizing(H):
    return [i for i in range(H.m) if is_dualizing(H, i)]


def test_find_cyclic_matches_unfiltered_scan():
    for name in ["chain2", "chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        assert find_cyclic(H) == brute_cyclic(H)


def test_find_dualizing_matches_unfiltered_scan():
    for name in ["chain2", "chain3", "boolean2", "m3", "n5"]:
        H = HOMSETS[name]
        assert find_dualizing(H) == brute_dualizing(H)


def test_cyclic_members_frozen():
    # the top of the quantale is always cyclic; on a distributive lattice the
    # down-transform of the identity joins it, and nothing else ever does
    for name, H in HOMSETS.items():
        L = H.lattice
        got = {tuple(int(v) for v in H.tables[i]) for i in find_cyclic(H)}
        expect = {c_map(L, L, L.top).table}
        if is_distributive(L):
            expect.add(raney_down(identity_map(L)).table)
        assert got == expect


def test_dualizing_members_frozen():
    assert find_dualizing(HOMSETS["chain2"]) == [HOMSETS["chain2"].bottom_index]
    got = [tuple(int(v) for v in HOMSETS["chain3"].tables[i])
           for i in find_dualizing(HOMSETS["chain3"])]
    assert got == [(0, 0, 1)]
    got = {tuple(int(v) for v in HOMSETS["boolean2"].tables[i])
           for i in find_dualizing(HOMSETS["boolean2"])}
    assert got == {(0, 1, 2, 3), (0, 2, 1, 3)}
    assert find_dualizing(HOMSETS["m3"]) == []
    assert find_dualizing(HOMSETS["n5"]) == []
    assert find_dualizing(enumerate_homset(make_mk(5))) == []


def test_searches_run_once_per_homset(monkeypatch):
    calls = []
    original = quantale.EndoHomset.ldiv_index

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quantale.EndoHomset, "ldiv_index", counted)
    for search in (find_dualizing, find_cyclic):
        H = enumerate_homset(make_chain(3))
        first = search(H)
        assert calls
        calls.clear()
        assert search(H) == first
        assert calls == []


def test_cached_table_is_built_once(monkeypatch):
    calls = []
    original = quantale.right_adjoint_tables

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(quantale, "right_adjoint_tables", counted)
    H = enumerate_homset(make_chain(3))
    first = H.rho_tables
    assert H.rho_tables is first
    assert len(calls) == 1


def test_cached_table_stores_nothing_when_its_build_raises(monkeypatch):
    H = enumerate_homset(make_chain(3))

    def capped(*args):
        raise CapExceeded("adjoint tables capped at 5", H.m)

    monkeypatch.setattr(quantale, "right_adjoint_tables", capped)
    with pytest.raises(CapExceeded, match="capped at 5"):
        H.rho_tables
    assert "rho" not in H._cache
    monkeypatch.undo()
    assert H.rho_tables.shape == (H.m, H.lattice.n)
    assert "rho" in H._cache


def test_cached_search_results_are_fresh_lists():
    H = enumerate_homset(make_boolean(2))
    for search in (find_dualizing, find_cyclic):
        first = search(H)
        expected = list(first)
        first.clear()
        assert expected and search(H) == expected


def test_girard_exactly_on_distributive_lattices():
    for name, H in HOMSETS.items():
        assert is_girard(H) == is_distributive(H.lattice)
    assert not is_girard(enumerate_homset(make_mk(5)))


def test_dualizing_of_the_down_transformed_identity():
    # on a distributive lattice the down-transform of the identity is dualizing
    for name in ["chain2", "chain3", "chain4", "boolean2"]:
        H = HOMSETS[name]
        o = raney_down(identity_map(H.lattice))
        assert is_dualizing(H, H.index_of(o))
        assert is_cyclic(H, H.index_of(o))


# -- the automorphism correspondence ------------------------------------------------------


def test_dualizing_automorphism_bijection():
    cases = [
        make_chain(4),
        make_boolean(2),
        make_boolean(3),
        downset_lattice(Poset.from_covers(3, [(0, 1), (0, 2)])),
    ]
    for L in cases:
        H = enumerate_homset(L)
        dz = find_dualizing(H)
        auts = automorphisms(L)
        perms = sorted(dualizing_to_automorphism(H, i) for i in dz)
        assert perms == auts
        for p in auts:
            i = automorphism_to_dualizing(H, p)
            assert i in dz
            assert dualizing_to_automorphism(H, i) == p


def test_automorphism_correspondence_errors():
    H = HOMSETS["m3"]
    with pytest.raises(NotDualizing):
        dualizing_to_automorphism(H, H.identity_index)
    with pytest.raises(NotCompletelyDistributive):
        automorphism_to_dualizing(H, tuple(range(5)))
    HB = HOMSETS["boolean2"]
    with pytest.raises(NotAutomorphism):
        automorphism_to_dualizing(HB, (0, 0, 1, 2))
    with pytest.raises(NotAutomorphism):
        automorphism_to_dualizing(HB, (1, 0, 2, 3))  # moves the bottom


def test_star_of_dualizing_inverts_the_up_transform():
    # for dualizing f the up-transform and the star are mutually inverse
    for name in ["chain3", "chain4", "boolean2"]:
        H = HOMSETS[name]
        L = H.lattice
        for i in find_dualizing(H):
            f = H.map_at(i)
            up, st = raney_up(f), star(f)
            assert st.compose(up) == identity_map(L)
            assert up.compose(st) == identity_map(L)


def test_star_is_an_order_reversing_involution_on_distributive_lattices():
    for name in ["chain2", "chain3", "chain4", "boolean2"]:
        H = HOMSETS[name]
        for i in range(H.m):
            f = H.map_at(i)
            assert star(star(f)) == f
            for j in range(H.m):
                g = H.map_at(j)
                assert f.leq(g) == star(g).leq(star(f))


def test_star_fails_to_be_an_involution_off_distributive_lattices():
    for name in ["m3", "n5"]:
        H = HOMSETS[name]
        assert any(star(star(H.map_at(i))) != H.map_at(i) for i in range(H.m))


# -- tight members under composition ---------------------------------------------------


def test_tight_unit_frozen():
    for name, H in HOMSETS.items():
        if is_distributive(H.lattice):
            assert tight_has_unit(H) == H.identity_index
        else:
            assert tight_has_unit(H) is None
    assert tight_has_unit(enumerate_homset(make_mk(5))) is None


def tight_unit_loop(H):
    """Oracle: compare u o t and t o u with t for every tight u and t."""
    tight = H.tight_indices()
    sub = H.tables[tight]
    for u in tight:
        tab_u = H.tables[u]
        if (tab_u[sub] == sub).all() and (sub[:, tab_u] == sub).all():
            return int(u)
    return None


@pytest.mark.parametrize(
    "L",
    [*CORPUS.values(), make_mk(5), Lattice(np.kron(make_n5().leq, make_chain(2).leq)),
     downset_lattice(Poset.from_covers(4, [(0, 1), (0, 2)]))],
    ids=[*CORPUS, "m5", "n5xchain2", "downset-vee-plus-point"],
)
def test_tight_unit_prefilter_matches_the_full_scan(L):
    H = enumerate_homset(L)
    assert tight_has_unit(H) == tight_unit_loop(H)


def test_conucleus_gap_exists_exactly_off_the_distributive_members():
    for name, H in HOMSETS.items():
        gap = conucleus_gap(H)
        if is_distributive(H.lattice):
            assert gap is None, name
        else:
            i, j = gap
            f, g = H.map_at(i), H.map_at(j)
            lhs = tight_interior(f).compose(tight_interior(g))
            rhs = tight_interior(f.compose(g))
            assert lhs != rhs, name
            assert lhs.leq(rhs), name
    assert conucleus_gap(enumerate_homset(make_mk(5))) is not None


def test_interior_composites_stay_below_the_composite_interior():
    # the lax inclusion holds for every pair, distributive or not
    for name in ["m3", "n5"]:
        H = HOMSETS[name]
        step = max(1, H.m // 15)
        for i in range(0, H.m, step):
            Tf = tight_interior(H.map_at(i))
            for j in range(0, H.m, step):
                g = H.map_at(j)
                lhs = Tf.compose(tight_interior(g))
                assert lhs.leq(tight_interior(H.map_at(i).compose(g)))


# -- randomized checks ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_raney_adjunction_random_tables(data):
    name = data.draw(st.sampled_from(sorted(CORPUS)))
    L = CORPUS[name]
    tg = data.draw(st.tuples(*[st.integers(0, L.n - 1)] * L.n))
    tf = data.draw(st.tuples(*[st.integers(0, L.n - 1)] * L.n))
    g, f = LatticeMap(L, L, tg), LatticeMap(L, L, tf)
    assert raney_down(g).leq(f) == all(
        L.leq[tg[t], raney_up(f).table[t]] for t in range(L.n)
    )
    assert raney_down(f).table == raney_down_scan(L, tf)
    assert raney_up(g).table == raney_up_scan(L, tg)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_residual_adjunction_random_triples(data):
    name = data.draw(st.sampled_from(sorted(HOMSETS)))
    H = HOMSETS[name]
    g = H.map_at(data.draw(st.integers(0, H.m - 1)))
    f = H.map_at(data.draw(st.integers(0, H.m - 1)))
    h = H.map_at(data.draw(st.integers(0, H.m - 1)))
    below = g.compose(f).leq(h)
    assert below == g.leq(right_residual(h, f))
    assert below == f.leq(left_residual(g, h))
