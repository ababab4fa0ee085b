"""Tests for lattice maps: adjoints, generators, interior, factorization.

Oracles enumerate entire map spaces by brute force (all n^n tables,
filtered by the defining equations) and check the package's closed-form
constructions against them.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq import (
    LatticeMap,
    MapError,
    a_map,
    alpha_map,
    c_map,
    characterization_check,
    e_map,
    extend_bimorphism,
    factorize,
    gamma_map,
    identity_map,
    inf_map,
    inf_witness,
    is_inf_preserving,
    is_monotone,
    is_sup_preserving,
    left_adjoint,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    monotone_map,
    monotone_witness,
    pointwise_join,
    pointwise_meet,
    right_adjoint,
    sup_interior,
    sup_interior_tables,
    sup_map,
    sup_witness,
    tensor_over,
    tensor_under,
)

from oracles import join_of

CORPUS = {
    "chain4": make_chain(4),
    "boolean2": make_boolean(2),
    "m3": make_mk(3),
    "n5": make_n5(),
}


def all_maps_scan(L1, L2, keep):
    out = []
    for table in itertools.product(range(L2.n), repeat=L1.n):
        f = LatticeMap(L1, L2, table)
        if keep(f):
            out.append(f)
    return out


def sup_maps_scan(L1, L2):
    return all_maps_scan(L1, L2, is_sup_preserving)


def inf_maps_scan(L1, L2):
    return all_maps_scan(L1, L2, is_inf_preserving)


def monotone_maps_scan(L1, L2):
    return all_maps_scan(L1, L2, is_monotone)


SUP_MAPS = {name: sup_maps_scan(L, L) for name, L in CORPUS.items()}
INF_MAPS = {name: inf_maps_scan(L, L) for name, L in CORPUS.items()}
MONOTONE_MAPS = {name: monotone_maps_scan(L, L) for name, L in CORPUS.items()}


# -- map basics ----------------------------------------------------------------


def test_map_validation():
    L = make_chain(3)
    with pytest.raises(MapError, match="entries"):
        LatticeMap(L, L, [0, 1])
    with pytest.raises(MapError, match="range"):
        LatticeMap(L, L, [0, 1, 3])
    with pytest.raises(MapError, match="monotone"):
        monotone_map(L, L, [1, 0, 2])
    with pytest.raises(MapError, match="joins"):
        sup_map(L, L, [1, 1, 2])
    with pytest.raises(MapError, match="meets"):
        inf_map(L, L, [0, 1, 1])
    assert sup_map(L, L, [0, 1, 2]) == identity_map(L)


def test_witnesses_explain_failures():
    L = make_boolean(2)
    assert sup_witness(LatticeMap(L, L, [1, 1, 2, 3])) == "bottom"
    # joins of atoms not preserved
    f = LatticeMap(L, L, [0, 1, 2, 2])
    assert sup_witness(f) == (1, 2)
    assert inf_witness(LatticeMap(L, L, [0, 1, 2, 2])) == "top"
    g = LatticeMap(L, L, [1, 1, 2, 3])
    assert inf_witness(g) == (0, 2)  # g(0 ^ 2) = 1 but g(0) ^ g(2) = 0
    assert monotone_witness(LatticeMap(L, L, [0, 3, 2, 1])) == (1, 3)
    assert monotone_witness(identity_map(L)) is None


def test_compose_and_identity():
    L = make_mk(3)
    ident = identity_map(L)
    for f in SUP_MAPS["m3"][:20]:
        assert f.compose(ident) == f
        assert ident.compose(f) == f
    f = sup_map(L, L, [0, 1, 1, 1, 1])
    g = sup_map(L, L, [0, 4, 4, 4, 4])
    assert g.compose(f).table == tuple(g.table[t] for t in f.table)
    with pytest.raises(MapError, match="middle"):
        f.compose(identity_map(make_chain(3)))


def test_composition_of_sup_maps_is_sup_preserving():
    for name, L in CORPUS.items():
        maps = SUP_MAPS[name]
        for f in maps[: min(len(maps), 12)]:
            for g in maps[: min(len(maps), 12)]:
                assert is_sup_preserving(f.compose(g))


def test_pointwise_join_meet():
    L = make_boolean(2)
    f = sup_map(L, L, [0, 1, 2, 3])
    g = sup_map(L, L, [0, 2, 1, 3])
    assert pointwise_join(f, g).table == (0, 3, 3, 3)
    assert pointwise_meet(f, g).table == (0, 0, 0, 3)
    with pytest.raises(MapError, match="homsets"):
        pointwise_join(f, identity_map(make_chain(2)))
    with pytest.raises(MapError, match="homsets"):
        f.leq(identity_map(make_chain(2)))


def test_extreme_maps_bound_the_homset():
    for name, L in CORPUS.items():
        bot = c_map(L, L, L.bottom)
        top = c_map(L, L, L.top)
        assert is_sup_preserving(bot) and is_sup_preserving(top)
        for f in SUP_MAPS[name]:
            assert bot.leq(f) and f.leq(top)


# -- adjoints -------------------------------------------------------------------


def test_right_adjoint_satisfies_the_adjunction():
    for name, L in CORPUS.items():
        for f in SUP_MAPS[name]:
            rho = right_adjoint(f)
            assert is_inf_preserving(rho)
            for x in range(L.n):
                for y in range(L.n):
                    assert bool(L.leq[f.table[x], y]) == bool(L.leq[x, rho.table[y]])
            assert left_adjoint(rho) == f


def test_left_adjoint_satisfies_the_adjunction():
    for name, L in CORPUS.items():
        for g in INF_MAPS[name]:
            lam = left_adjoint(g)
            assert is_sup_preserving(lam)
            for x in range(L.n):
                for y in range(L.n):
                    assert bool(L.leq[y, g.table[x]]) == bool(L.leq[lam.table[y], x])
            assert right_adjoint(lam) == g


def test_adjoints_between_different_lattices():
    L1, L2 = make_mk(3), make_chain(2)
    for f in sup_maps_scan(L1, L2):
        rho = right_adjoint(f)
        assert rho.source is L2 and rho.target is L1
        assert left_adjoint(rho) == f


def test_known_adjoint_values():
    L = make_chain(3)
    assert right_adjoint(sup_map(L, L, [0, 0, 1])).table == (1, 2, 2)
    assert left_adjoint(inf_map(L, L, [1, 2, 2])).table == (0, 0, 1)
    with pytest.raises(MapError, match="join-preserving"):
        right_adjoint(LatticeMap(L, L, [1, 1, 2]))
    with pytest.raises(MapError, match="meet-preserving"):
        left_adjoint(LatticeMap(L, L, [0, 1, 1]))


# -- generator maps -------------------------------------------------------------


def test_generator_maps_preserve_the_right_operations():
    for L in CORPUS.values():
        for y in range(L.n):
            assert is_sup_preserving(c_map(L, L, y))
            assert is_inf_preserving(gamma_map(L, L, y))
            for x in range(L.n):
                assert is_sup_preserving(tensor_over(L, L, y, x))
                assert is_sup_preserving(e_map(L, L, y, x))
                assert is_inf_preserving(tensor_under(L, L, y, x))
        for x in range(L.n):
            assert is_sup_preserving(a_map(L, L, x))
            assert is_inf_preserving(alpha_map(L, L, x))


def test_generator_identities():
    for L in CORPUS.values():
        for y in range(L.n):
            # constant-style maps are tensors at the extreme thresholds
            assert c_map(L, L, y) == tensor_over(L, L, y, L.top)
            assert a_map(L, L, y) == tensor_over(L, L, L.bottom, y)
            for x in range(L.n):
                t = tensor_over(L, L, y, x)
                assert t == pointwise_join(c_map(L, L, y), a_map(L, L, x))
                e = e_map(L, L, y, x)
                assert e == pointwise_meet(c_map(L, L, y), a_map(L, L, x))
                assert e == c_map(L, L, y).compose(a_map(L, L, x))


def test_generator_adjoints():
    for L in CORPUS.values():
        for v in range(L.n):
            assert right_adjoint(a_map(L, L, v)) == gamma_map(L, L, v)
            assert right_adjoint(c_map(L, L, v)) == alpha_map(L, L, v)
            for x in range(L.n):
                assert right_adjoint(tensor_over(L, L, v, x)) == tensor_under(L, L, x, v)


def test_tensor_characterization():
    # f(x) <= y iff f is below the tensor map of (y, x)
    for name, L in CORPUS.items():
        for f in SUP_MAPS[name]:
            for x in range(L.n):
                for y in range(L.n):
                    assert characterization_check(f, x, y) == bool(L.leq[f.table[x], y])


def test_sup_map_is_the_meet_of_its_tensor_decomposition():
    for name, L in CORPUS.items():
        for f in SUP_MAPS[name]:
            acc = None
            for x in range(L.n):
                piece = tensor_over(L, L, f.table[x], x)
                acc = piece if acc is None else pointwise_meet(acc, piece)
            assert acc == f


def test_inf_map_is_the_join_of_its_tensor_decomposition():
    for name, L in CORPUS.items():
        for g in INF_MAPS[name]:
            acc = None
            for x in range(L.n):
                piece = tensor_under(L, L, g.table[x], x)
                acc = piece if acc is None else pointwise_join(acc, piece)
            assert acc == g


# -- sup interior ----------------------------------------------------------------


def interior_scan(k):
    """Pointwise join of every sup-preserving map below k."""
    L1, L2 = k.source, k.target
    best = c_map(L1, L2, L2.bottom)
    for g in sup_maps_scan(L1, L2):
        if g.leq(k):
            best = pointwise_join(best, g)
    return best


def test_sup_interior_matches_bruteforce_on_all_monotone_maps():
    for name, L in CORPUS.items():
        for k in MONOTONE_MAPS[name]:
            got = sup_interior(k)
            assert is_sup_preserving(got)
            assert got.leq(k)
            assert got == interior_scan(k)


def test_sup_interior_is_greatest():
    for name, L in CORPUS.items():
        sups = SUP_MAPS[name]
        for k in MONOTONE_MAPS[name][:: max(1, len(MONOTONE_MAPS[name]) // 40)]:
            got = sup_interior(k)
            for g in sups:
                if g.leq(k):
                    assert g.leq(got)


def test_sup_interior_fixes_sup_maps():
    for name in CORPUS:
        for f in SUP_MAPS[name]:
            assert sup_interior(f) == f


def test_sup_interior_pentagon_regression():
    # the naive "cut at incomparable joins" sweep alone converges to a
    # non-monotone table here; the interior must drop the middle element too
    N5, C2 = make_n5(), make_chain(2)
    k = monotone_map(N5, C2, [0, 0, 1, 0, 1])
    got = sup_interior(k)
    assert got.table == (0, 0, 0, 0, 0)
    assert got == interior_scan(k)


def test_sup_interior_batch_matches_scalar():
    for name, L in CORPUS.items():
        tables = [k.table for k in MONOTONE_MAPS[name]]
        batch = sup_interior_tables(L, L, tables)
        for row, k in zip(batch, MONOTONE_MAPS[name]):
            assert tuple(int(v) for v in row) == sup_interior(k).table


def test_sup_interior_rejects_non_monotone():
    L = make_chain(3)
    with pytest.raises(MapError, match="monotone"):
        sup_interior(LatticeMap(L, L, [0, 2, 1]))


# -- bimorphism extension ----------------------------------------------------------


def test_extension_over_e_family_on_chain():
    L = make_chain(3)
    out = extend_bimorphism(lambda y, x: e_map(L, L, y, x), identity_map(L))
    assert out.table == (0, 0, 1)


def test_extension_over_e_family_matches_join_formula():
    for L in [make_chain(4), make_mk(3), make_n5()]:
        for g in inf_maps_scan(L, L):
            out = extend_bimorphism(lambda y, x: e_map(L, L, y, x), g)
            for t in range(L.n):
                expected = join_of(L, (g.table[x] for x in range(L.n) if not L.leq[t, x]))
                assert out.table[t] == expected


def test_extension_needs_inf_preserving_input():
    L = make_boolean(2)
    with pytest.raises(MapError, match="meet-preserving"):
        extend_bimorphism(lambda y, x: e_map(L, L, y, x), LatticeMap(L, L, [0, 1, 2, 2]))


# -- factorization ------------------------------------------------------------------


def test_factorization_decomposes_every_sup_map():
    for name, L in CORPUS.items():
        for f in SUP_MAPS[name]:
            fac = factorize(f)
            rho = right_adjoint(f)
            assert fac.closure == rho.compose(f)
            assert fac.interior == f.compose(rho)
            assert is_monotone(fac.closure) and is_monotone(fac.interior)
            # closure is inflationary and idempotent; interior deflationary
            for x in range(L.n):
                assert L.leq[x, fac.closure.table[x]]
                assert fac.closure.table[fac.closure.table[x]] == fac.closure.table[x]
            for y in range(L.n):
                assert L.leq[fac.interior.table[y], y]
                assert fac.interior.table[fac.interior.table[y]] == fac.interior.table[y]
            # the middle is an order isomorphism between the fixed sets
            assert sorted(fac.iso) == list(fac.source_fixed)
            assert sorted(fac.iso.values()) == list(fac.target_fixed)
            for a in fac.source_fixed:
                for b in fac.source_fixed:
                    assert bool(L.leq[a, b]) == bool(L.leq[fac.iso[a], fac.iso[b]])
            # f factors through: inclusion after iso after closure-projection
            for x in range(L.n):
                assert fac.iso[fac.closure.table[x]] == f.table[x]
            assert f.compose(rho).compose(f) == f


def test_factorization_known_example():
    L = make_chain(3)
    fac = factorize(sup_map(L, L, [0, 0, 1]))
    assert fac.source_fixed == (1, 2)
    assert fac.target_fixed == (0, 1)
    assert fac.iso == {1: 0, 2: 1}


def test_closure_and_interior_legs_are_only_monotone():
    # the recomposition legs need not preserve joins: closures usually move
    # the bottom, and interiors can miss joins of open elements
    for name in ["boolean2", "m3", "n5"]:
        bad_closure = bad_interior = 0
        for f in SUP_MAPS[name]:
            fac = factorize(f)
            bad_closure += not is_sup_preserving(fac.closure)
            bad_interior += not is_sup_preserving(fac.interior)
        assert bad_closure > 0 and bad_interior > 0


# -- randomized checks ----------------------------------------------------------------


MONOTONE_CASES = [(name, f.table) for name in CORPUS for f in MONOTONE_MAPS[name]]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(MONOTONE_CASES))
def test_interior_adjunction_random(case):
    # interior is right adjoint to the inclusion of sup maps into monotone maps
    name, table = case
    L = CORPUS[name]
    k = LatticeMap(L, L, table)
    inner = sup_interior(k)
    for f in SUP_MAPS[name][:: max(1, len(SUP_MAPS[name]) // 25)]:
        assert f.leq(k) == f.leq(inner)


SUP_CASES = [(name, f.table) for name in CORPUS for f in SUP_MAPS[name]]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SUP_CASES), st.sampled_from(SUP_CASES))
def test_adjoint_reverses_composition_random(case1, case2):
    name1, t1 = case1
    name2, t2 = case2
    if name1 != name2:
        return
    L = CORPUS[name1]
    f, g = LatticeMap(L, L, t1), LatticeMap(L, L, t2)
    assert right_adjoint(f.compose(g)) == right_adjoint(g).compose(right_adjoint(f))
