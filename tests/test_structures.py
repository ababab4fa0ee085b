"""Tests for abstract quantales, irreducible analysis, weakening relations,
and the classification of natural two-parameter families.

Oracles used here:
  * residual/cyclic/dualizing facts are re-checked from their defining
    adjunctions by exhaustive scans over the finite carrier;
  * irreducible members are recomputed from the algebraic definition
    (x = a v b forces x in {a, b}) and, for the large case, from the
    set-difference counting characterization, both independent of the
    cover-counting implementation;
  * weakening relations are enumerated by filtering all subsets of P x P;
  * naturality is re-verified by composing actual maps, not index tables,
    and the classification from J-key composites is compared with a scalar
    loop that builds every composite as a LatticeMap and with the row
    gathers it replaced;
  * the abstract two-valued check is re-run with one extend_bimorphism per
    inf map, for the canonical family and for three others.
"""
import itertools

import numpy as np
import pytest

from supq.lattice import (
    Lattice,
    Poset,
    SizeGuardExceeded,
    downset_lattice,
    is_distributive,
    join_irreducibles,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    meet_irreducibles,
)
from supq.maps import (
    LatticeMap,
    MapError,
    a_map,
    c_map,
    e_map,
    e_tables,
    extend_bimorphism,
    identity_map,
    pointwise_join,
)
from supq.quantale import (
    CapExceeded,
    NotAutomorphism,
    _row_groups,
    enumerate_homset,
    enumerate_inf_maps,
    find_cyclic,
    find_dualizing,
    is_dualizing,
    raney_down,
    star,
)
from supq.structures import (
    AbstractRaneyVerdict,
    FiniteQuantale,
    NaturalClassification,
    NaturalFamily,
    WeakeningRelation,
    abstract_raney_check,
    autodual_report,
    classify_natural,
    downset_automorphism,
    e_family,
    family_c_after_map,
    family_map_after_a,
    find_order_isomorphism,
    homset_irreducibles,
    m5_quantale,
    parse_quantale,
    poset_hash,
    q_cyclic,
    q_dualizing,
    q_residuals,
    serialize_quantale,
    supmap_from_wk,
    supmap_tables,
    wk_compose,
    wk_from_automorphism,
    wk_from_supmap,
    wk_tables,
    _family_is_natural,
)
from supq.verify import corpus

import oracles
from oracles import order_on_J

LATTICES = {
    "chain2": make_chain(2),
    "chain3": make_chain(3),
    "chain4": make_chain(4),
    "boolean2": make_boolean(2),
    "boolean3": make_boolean(3),
    "m3": make_mk(3),
    "n5": make_n5(),
    "m5": make_mk(5),
}
HOMSETS = {name: enumerate_homset(L) for name, L in LATTICES.items()}

POSETS = {
    "point": Poset(np.ones((1, 1), dtype=bool)),
    "antichain2": Poset(np.eye(2, dtype=bool)),
    "chain2": Poset.from_covers(2, [(0, 1)]),
    "antichain3": Poset(np.eye(3, dtype=bool)),
    "chain3": Poset.from_covers(3, [(0, 1), (1, 2)]),
    "vee": Poset.from_covers(3, [(0, 1), (0, 2)]),
    "wedge": Poset.from_covers(3, [(0, 2), (1, 2)]),
    "chain2-plus-point": Poset.from_covers(3, [(0, 1)]),
}


# -- the seven-element quantale --------------------------------------------------


def test_m5_quantale_table_is_the_recorded_one():
    Q = m5_quantale()
    assert list(Q.carrier.names) == ["bot", "u", "d", "a", "b", "c", "top"]
    assert Q.mult.tolist() == [
        [0, 0, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4, 5, 6],
        [0, 2, 6, 6, 6, 6, 6],
        [0, 3, 6, 6, 6, 2, 6],
        [0, 4, 6, 2, 6, 6, 6],
        [0, 5, 6, 6, 2, 6, 6],
        [0, 6, 6, 6, 6, 6, 6],
    ]


def test_m5_quantale_named_products():
    Q = m5_quantale()
    name = {n: i for i, n in enumerate(Q.carrier.names)}
    u, d, a, b, c = name["u"], name["d"], name["a"], name["b"], name["c"]
    assert Q.unit() == u
    assert Q.multiply(a, c) == d
    assert Q.multiply(b, a) == d
    assert Q.multiply(c, b) == d
    assert Q.multiply(d, d) == name["top"]
    assert Q.multiply(d, a) == name["top"]


def test_m5_quantale_residual_adjunction_all_triples():
    Q = m5_quantale()
    L = Q.carrier
    for x in range(L.n):
        for y in range(L.n):
            under, over = q_residuals(Q, x, y)
            for z in range(L.n):
                assert bool(L.leq[Q.mult[x, z], y]) == bool(L.leq[z, under])
                assert bool(L.leq[Q.mult[z, x], y]) == bool(L.leq[z, over])


def test_m5_quantale_cyclic_and_dualizing_members():
    Q = m5_quantale()
    d = 2
    assert q_cyclic(Q) == [0, 1, 3, 4, 5, 6]
    assert q_dualizing(Q) == [d]
    # d is dualizing without being cyclic
    assert d not in q_cyclic(Q)
    # d \ d = u = d / d
    assert q_residuals(Q, d, d) == (1, 1)


def test_dualizing_member_divided_by_itself_is_a_unit():
    Q = m5_quantale()
    n = Q.carrier.n
    for d in q_dualizing(Q):
        u0, _ = q_residuals(Q, d, d)
        assert Q.mult[u0].tolist() == list(range(n))
        assert Q.mult[:, u0].tolist() == list(range(n))


def test_quantale_validation_rejects_bad_tables():
    L = make_chain(3)
    with pytest.raises(ValueError, match="associative"):
        FiniteQuantale(L, [[0, 0, 0], [0, 2, 2], [0, 2, 1]])
    with pytest.raises(ValueError, match="annihilate"):
        FiniteQuantale(make_chain(2), [[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="distribute"):
        FiniteQuantale(L, [[0, 0, 0], [0, 2, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="3x3"):
        FiniteQuantale(L, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="out of range"):
        FiniteQuantale(L, [[0, 0, 0], [0, 0, 0], [0, 0, 5]])


def test_zero_multiplication_is_a_quantale_without_unit():
    L = make_chain(2)
    Q = FiniteQuantale(L, [[0, 0], [0, 0]])
    assert Q.unit() is None
    assert q_cyclic(Q) == [0, 1]


def test_quantale_serialization_roundtrip():
    Q = m5_quantale()
    back = parse_quantale(serialize_quantale(Q))
    assert back.carrier.same_structure(Q.carrier)
    assert (back.mult == Q.mult).all()
    with pytest.raises(ValueError, match="exactly the keys"):
        parse_quantale('{"mult": [[0]]}')


def test_endomap_composition_forms_a_quantale_matching_the_homset_scans():
    """Q(L) compiled into a FiniteQuantale, whose constructor checks
    associativity and both distributive laws.  Its residuals are maxima over
    the carrier, with no adjoint and no sup-interior, so they are an
    independent oracle for the residual kernels and the cyclic/dualizing
    searches.  Every corpus homset with at most 108 members, which keeps the
    scalar loops to a few seconds."""
    checked = 0
    for name, L, _ in corpus():
        H = enumerate_homset(L)
        if H.m > 108:
            continue
        members = np.arange(H.m)
        Q = FiniteQuantale(Lattice(order_on_J(H)), H.compose_indices(members, members))
        ld, rd = H.ldiv_indices(members), H.rdiv_indices(members)  # [h, g]
        for g in range(H.m):
            for h in range(H.m):
                assert q_residuals(Q, g, h) == (ld[h, g], rd[h, g]), (name, g, h)
        assert Q.unit() == H.identity_index, name
        assert q_cyclic(Q) == find_cyclic(H), name
        assert q_dualizing(Q) == find_dualizing(H), name
        checked += 1
    assert checked == 16


# -- irreducible members of the endomap quantale ----------------------------------


def irreducibles_by_pair_scan(H):
    """Oracle from the definition: x is join-irreducible when x = a v b forces
    x in {a, b}; dually with meets computed as joins of common lower bounds."""
    L = H.lattice
    leq = order_on_J(H)
    tables = H.tables.astype(np.int64)
    join_idx = np.empty((H.m, H.m), dtype=np.int64)
    for a in range(H.m):
        join_idx[a] = H.index_rows(L.join[tables[a][None, :], tables])
    meet_idx = np.empty((H.m, H.m), dtype=np.int64)
    for a in range(H.m):
        for b in range(H.m):
            below = np.flatnonzero(leq[:, a] & leq[:, b])
            sub = leq[np.ix_(below, below)]
            meet_idx[a, b] = below[np.flatnonzero(sub.all(axis=0))[0]]
    bot = int(np.flatnonzero(leq.sum(axis=1) == H.m)[0])
    top = int(np.flatnonzero(leq.sum(axis=0) == H.m)[0])
    A, B = np.meshgrid(np.arange(H.m), np.arange(H.m), indexing="ij")
    join_red = set(np.unique(join_idx[(join_idx != A) & (join_idx != B)]))
    meet_red = set(np.unique(meet_idx[(meet_idx != A) & (meet_idx != B)]))
    j = sorted(set(range(H.m)) - join_red - {bot})
    m = sorted(set(range(H.m)) - meet_red - {top})
    return j, m


def irreducibles_by_difference_count(H):
    """Oracle from the neighbour characterization: x is join-irreducible when
    some y < x leaves only {x} of the principal downset uncovered, dually for
    meet-irreducible."""
    leq = order_on_J(H)
    A = leq.astype(np.float32)
    strict = leq & ~np.eye(H.m, dtype=bool)
    up_diff = A @ (1.0 - A).T          # |up(x) \ up(y)|
    down_diff = A.T @ (1.0 - A)        # |down(x) \ down(y)|
    m_irr = [x for x in range(H.m)
             if strict[x].any() and (strict[x] & (up_diff[x] == 1.0)).any()]
    j_irr = [x for x in range(H.m)
             if strict[:, x].any() and (strict[:, x] & (down_diff[x] == 1.0)).any()]
    return j_irr, m_irr


@pytest.mark.parametrize("name", ["chain2", "chain3", "boolean2", "m3", "n5"])
def test_irreducibles_match_definition_scan(name):
    H = HOMSETS[name]
    rep = homset_irreducibles(H)
    j, m = irreducibles_by_pair_scan(H)
    assert list(rep.join_irreducible_indices) == j
    assert list(rep.meet_irreducible_indices) == m


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_irreducibles_match_difference_count_oracle(name):
    H = HOMSETS[name]
    rep = homset_irreducibles(H)
    j, m = irreducibles_by_difference_count(H)
    assert list(rep.join_irreducible_indices) == sorted(j)
    assert list(rep.meet_irreducible_indices) == sorted(m)


def test_chain2_irreducibles_are_identity_and_bottom():
    H = HOMSETS["chain2"]
    rep = homset_irreducibles(H)
    assert rep.join_irreducible_indices == (H.identity_index,)
    # the sole meet-irreducible is the bottom map, not the identity
    assert rep.meet_irreducible_indices == (H.bottom_index,)


FROZEN_IRREDUCIBLE_COUNTS = {
    "chain2": (1, 1),
    "chain3": (4, 4),
    "chain4": (9, 9),
    "boolean2": (4, 4),
    "boolean3": (9, 9),
    "m3": (15, 9),
    "n5": (10, 9),
    "m5": (745, 25),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_irreducible_counts_and_tensor_structure(name):
    H = HOMSETS[name]
    rep = homset_irreducibles(H)
    nj, nm = FROZEN_IRREDUCIBLE_COUNTS[name]
    assert len(rep.join_irreducible_indices) == nj
    assert len(rep.meet_irreducible_indices) == nm
    assert rep.product_count == len(join_irreducibles(H.lattice)) * len(
        meet_irreducibles(H.lattice)
    )
    assert rep.meet_equals_tensors
    assert rep.e_within_join_irreducibles
    assert rep.tensors_pairwise_distinct
    assert rep.e_pairwise_distinct
    if is_distributive(H.lattice):
        assert nj == rep.product_count == nm
    else:
        assert nj > rep.product_count == nm


def test_irreducible_scan_respects_cap():
    with pytest.raises(CapExceeded):
        homset_irreducibles(HOMSETS["m5"], cap=1000)


def test_cached_irreducible_report_still_respects_a_smaller_cap():
    H = enumerate_homset(make_n5())
    first = homset_irreducibles(H, cap=2000)
    assert "irreducibles" in H._cache
    with pytest.raises(CapExceeded):
        homset_irreducibles(H, cap=H.m - 1)
    assert homset_irreducibles(H, cap=H.m) is first


# -- autoduality -----------------------------------------------------------------


def test_order_isomorphism_search():
    c3 = Poset.from_covers(3, [(0, 1), (1, 2)]).leq
    found = find_order_isomorphism(c3, c3.T.copy())
    assert found == (2, 1, 0)
    vee = Poset.from_covers(3, [(0, 1), (0, 2)]).leq
    wedge = Poset.from_covers(3, [(0, 2), (1, 2)]).leq
    assert find_order_isomorphism(vee, wedge) is None
    assert find_order_isomorphism(vee, wedge.T.copy()) is not None
    assert find_order_isomorphism(vee, c3) is None
    assert find_order_isomorphism(c3, np.eye(3, dtype=bool)) is None
    n5 = make_n5()
    assert find_order_isomorphism(n5.leq, n5.leq.T.copy()) is not None


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_autodual_verdicts(name):
    H = HOMSETS[name]
    rep = autodual_report(H)
    if is_distributive(H.lattice):
        assert rep.verdict == "autodual"
        w = np.array(rep.witness)
        leq = order_on_J(H)
        assert sorted(rep.witness) == list(range(H.m))
        assert (leq[np.ix_(w, w)] == leq.T).all()
    else:
        assert rep.verdict == "not-autodual"
        assert rep.join_irreducible_count > rep.meet_irreducible_count


def test_autodual_witness_is_the_star_permutation_on_distributive_members():
    H = HOMSETS["boolean2"]
    rep = autodual_report(H)
    assert rep.witness == tuple(int(v) for v in H.star_indices)


def test_autodual_cap_raises():
    with pytest.raises(CapExceeded, match="cap"):
        autodual_report(HOMSETS["m5"], cap=100)


def test_autodual_members_are_distributive_on_this_corpus():
    for name, H in HOMSETS.items():
        rep = autodual_report(H)
        if rep.verdict == "autodual":
            assert is_distributive(H.lattice), name


# -- weakening relations -----------------------------------------------------------


def all_weakening_pair_sets(P):
    """Oracle: filter every subset of P x P for the closure property."""
    pairs = list(itertools.product(range(P.n), repeat=2))
    good = []
    for bits in range(1 << len(pairs)):
        chosen = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        ok = all(
            (y2, x2) in chosen
            for (y, x) in chosen
            for y2 in range(P.n)
            for x2 in range(P.n)
            if P.leq[y2, y] and P.leq[x, x2]
        )
        if ok:
            good.append(frozenset(chosen))
    return good


@pytest.mark.parametrize("name", sorted(POSETS))
def test_weakening_relations_biject_with_downset_endomaps(name):
    P = POSETS[name]
    D = downset_lattice(P)
    H = enumerate_homset(D)
    oracle = set(all_weakening_pair_sets(P))
    seen = set()
    for i in range(H.m):
        f = LatticeMap(D, D, H.tables[i])
        R = wk_from_supmap(P, f)
        assert R.pairs in oracle
        assert supmap_from_wk(R).table == f.table
        seen.add(R.pairs)
    assert seen == oracle
    assert len(seen) == H.m


@pytest.mark.parametrize("name", sorted(POSETS))
def test_weakening_relation_order_matches_map_order(name):
    P = POSETS[name]
    D = downset_lattice(P)
    H = enumerate_homset(D)
    leq = order_on_J(H)
    rels = [wk_from_supmap(P, LatticeMap(D, D, H.tables[i])) for i in range(H.m)]
    for i in range(H.m):
        for j in range(H.m):
            assert bool(leq[i, j]) == (rels[i].pairs <= rels[j].pairs)


def test_identity_and_complement_relations():
    P = POSETS["chain2-plus-point"]
    D = downset_lattice(P)
    below = frozenset(
        (y, x) for y in range(P.n) for x in range(P.n) if P.leq[y, x]
    )
    not_above = frozenset(
        (y, x) for y in range(P.n) for x in range(P.n) if not P.leq[x, y]
    )
    assert wk_from_supmap(P, identity_map(D)).pairs == below
    assert wk_from_supmap(P, raney_down(identity_map(D))).pairs == not_above


@pytest.mark.parametrize("name", sorted(POSETS))
def test_weakening_composition_tracks_map_composition(name):
    P = POSETS[name]
    D = downset_lattice(P)
    H = enumerate_homset(D)
    maps = [LatticeMap(D, D, H.tables[i]) for i in range(H.m)]
    rng = np.random.default_rng(7)
    k = min(H.m, 9)
    pick = rng.choice(H.m, size=k, replace=False)
    for i in pick:
        for j in pick:
            left = wk_compose(wk_from_supmap(P, maps[i]), wk_from_supmap(P, maps[j]))
            assert left == wk_from_supmap(P, maps[i].compose(maps[j]))
    ident = wk_from_supmap(P, identity_map(D))
    some = wk_from_supmap(P, maps[int(pick[0])])
    assert wk_compose(some, ident) == some
    assert wk_compose(ident, some) == some


def test_weakening_relation_rejects_non_closed_pairs():
    P = POSETS["chain2"]
    with pytest.raises(ValueError, match="not down-closed"):
        WeakeningRelation(P, [(1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        WeakeningRelation(P, [(0, 5)])
    # the full relation is fine
    WeakeningRelation(P, [(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.mark.parametrize("name", ["chain2", "vee", "wedge", "chain2-plus-point"])
def test_weakening_relation_accepts_exactly_the_closed_pair_sets(name):
    P = POSETS[name]
    closed = set(all_weakening_pair_sets(P))
    cells = list(itertools.product(range(P.n), repeat=2))
    for bits in range(1 << len(cells)):
        chosen = frozenset(cells[k] for k in range(len(cells)) if bits >> k & 1)
        if chosen in closed:
            matrix = WeakeningRelation(P, chosen).matrix
            assert set(map(tuple, np.argwhere(matrix).tolist())) == chosen
        else:
            with pytest.raises(ValueError, match="not down-closed"):
                WeakeningRelation(P, chosen)


def test_weakening_relation_serializes_with_poset_hash():
    P = POSETS["vee"]
    R = wk_from_supmap(P, identity_map(downset_lattice(P)))
    doc = R.to_doc()
    assert doc["poset_hash"] == poset_hash(P)
    assert doc["pairs"] == sorted(R.pairs)


def test_poset_hash_is_the_lattice_hash_id():
    for name, L, _ in corpus():
        assert poset_hash(L.poset) == L.hash_id, name


@pytest.mark.parametrize("name", sorted(POSETS))
def test_automorphism_relations_give_dualizing_maps(name):
    P = POSETS[name]
    D = downset_lattice(P)
    H = enumerate_homset(D)
    for g in P.automorphisms():
        R = wk_from_automorphism(P, g)
        assert R.pairs == frozenset(
            (y, x) for y in range(P.n) for x in range(P.n) if not P.leq[x, g[y]]
        )
        f = supmap_from_wk(R)
        assert is_dualizing(H, H.index_of(f))
        assert star(f).table == downset_automorphism(P, g).table


def test_atom_swap_relation_on_the_two_point_antichain():
    P = POSETS["antichain2"]
    D = downset_lattice(P)
    f = supmap_from_wk(wk_from_automorphism(P, (1, 0)))
    assert f.table == (0, 1, 2, 3)
    assert star(f).table == (0, 2, 1, 3)


def test_automorphism_relation_rejects_non_automorphisms():
    for build in (wk_from_automorphism, downset_automorphism):
        with pytest.raises(NotAutomorphism, match="permutation"):
            build(POSETS["chain2"], (0, 0))
        with pytest.raises(NotAutomorphism, match="permutation"):
            build(POSETS["antichain2"], (0, 0))
        with pytest.raises(NotAutomorphism, match="order not preserved at pair \\(0, 1\\)"):
            build(POSETS["chain2"], (1, 0))


# -- the batched weakening kernels against the per-member loops they replaced --------


KERNEL_POSETS = {**POSETS, "vee-plus-point": Poset.from_covers(4, [(0, 1), (0, 2)])}


def wk_pairs_loop(P, table):
    """Oracle: y R x when the image of down x contains y, one x at a time."""
    masks = P.downset_masks()
    pairs = set()
    for x in range(P.n):
        principal = sum(1 << j for j in range(P.n) if P.leq[j, x])
        image = masks[table[masks.index(principal)]]
        pairs.update((y, x) for y in range(P.n) if image >> y & 1)
    return frozenset(pairs)


def supmap_table_loop(P, pairs):
    """Oracle: each downset goes to the union of its members' related sets."""
    masks = P.downset_masks()
    index_of = {m: i for i, m in enumerate(masks)}
    related = [0] * P.n
    for y, x in pairs:
        related[x] |= 1 << y
    table = []
    for m in masks:
        out = 0
        for x in range(P.n):
            if m >> x & 1:
                out |= related[x]
        table.append(index_of[out])
    return table


def compose_loop(P, R, S):
    """Oracle: y (R;S) x when some z has y R z and z S x, on frozensets."""
    return frozenset(
        (y, x)
        for y in range(P.n)
        for x in range(P.n)
        if any((y, z) in R and (z, x) in S for z in range(P.n))
    )


@pytest.mark.parametrize("name", sorted(KERNEL_POSETS))
def test_weakening_kernels_match_the_per_member_loops(name):
    P = KERNEL_POSETS[name]
    D = downset_lattice(P)
    H = enumerate_homset(D)
    rels = wk_tables(P, H.tables)
    assert rels.shape == (H.m, P.n, P.n)
    pairs = [wk_pairs_loop(P, t) for t in H.tables.tolist()]
    assert [frozenset(map(tuple, np.argwhere(r).tolist())) for r in rels] == pairs
    assert supmap_tables(P, rels).tolist() == [supmap_table_loop(P, p) for p in pairs]
    some = np.linspace(0, H.m - 1, min(H.m, 24)).astype(int)
    for i in some:
        R = wk_from_supmap(P, H.map_at(int(i)), D)
        assert R.pairs == pairs[i]
        assert supmap_from_wk(R, D).table == tuple(H.tables[i].tolist())
        for j in some:
            S = WeakeningRelation(P, pairs[j])
            assert wk_compose(R, S).pairs == compose_loop(P, pairs[i], pairs[j])


def test_weakening_kernels_refuse_a_poset_too_wide_for_the_downset_index():
    # the index spans all 2^n subsets of P, as large as its downset lattice may be
    P = Poset.from_covers(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(SizeGuardExceeded, match="downset index"):
        wk_tables(P, np.zeros((1, 14), dtype=np.int16))
    with pytest.raises(SizeGuardExceeded, match="downset index"):
        supmap_tables(P, np.zeros((1, 13, 13), dtype=bool))


@pytest.mark.parametrize("name", sorted(KERNEL_POSETS))
def test_downset_automorphism_matches_the_forward_image_loop(name):
    P = KERNEL_POSETS[name]
    masks = P.downset_masks()
    for g in P.automorphisms():
        images = [sum(1 << g[i] for i in range(P.n) if m >> i & 1) for m in masks]
        assert downset_automorphism(P, g).table == tuple(masks.index(m) for m in images)


# -- natural families ---------------------------------------------------------------


def naturality_by_map_composition(H, fam):
    """Oracle: check both equations by composing actual maps."""
    L = H.lattice
    members = [LatticeMap(L, L, t) for t in H.tables]
    psi = {(y, x): members[fam[y, x]] for y in range(L.n) for x in range(L.n)}
    for f in members:
        for y in range(L.n):
            for x in range(L.n):
                if psi[f.table[y], x] != f.compose(psi[y, x]):
                    return False
    for g in members:
        adj = H.rho_tables[H.index_of(g)]
        for y in range(L.n):
            for x in range(L.n):
                if psi[y, adj[x]] != psi[y, x].compose(g):
                    return False
    return True


@pytest.mark.parametrize("name", ["chain2", "chain3", "boolean2", "m3"])
def test_exactly_two_natural_families(name):
    H = HOMSETS[name]
    res = classify_natural(H)
    assert res.count == 2
    assert [f.label for f in res.natural] == ["trivial", "raney"]
    L = H.lattice
    trivial, raney = res.natural
    assert (trivial.table == H.bottom_index).all()
    for y in range(L.n):
        for x in range(L.n):
            assert raney.table[y, x] == H.index_of(e_map(L, L, y, x))
    for fam in res.natural:
        assert naturality_by_map_composition(H, fam.table)


def test_natural_families_on_the_five_atom_example():
    res = classify_natural(HOMSETS["m5"])
    assert res.count == 2
    assert sorted(f.label for f in res.natural) == ["raney", "trivial"]


def test_single_point_lattice_has_one_family():
    res = classify_natural(enumerate_homset(make_chain(1)))
    assert res.count == 1
    assert res.candidate_family_count == 1


def test_candidate_families_collapse_to_two():
    # every seed induces either the zero family or the e family
    for name in ("chain3", "boolean2", "m3"):
        assert classify_natural(HOMSETS[name]).candidate_family_count == 2


def candidate_families_by_maps(H):
    """Each seed's composites c_y o f0 o a_x built as LatticeMap objects,
    one (y, x) at a time: the distinct family tables with their seed
    counts, in the order of their first seed."""
    L = H.lattice
    n = L.n
    families: dict[bytes, list] = {}
    for s in range(H.m):
        f0 = H.tables[s]
        rows = np.empty((n * n, n), dtype=np.int16)
        for y in range(n):
            for x in range(n):
                comp = c_map(L, L, y).compose(LatticeMap(L, L, f0).compose(a_map(L, L, x)))
                rows[y * n + x] = comp.as_array()
        fam = H.index_rows(rows).reshape(n, n)
        key = fam.tobytes()
        if key in families:
            families[key][1] += 1
        else:
            families[key] = [fam, 1]
    return list(families.values())


def classify_natural_by_maps(H):
    """The scalar reference: the candidate families of
    `candidate_families_by_maps`, classified."""
    L = H.lattice
    n = L.n
    families = candidate_families_by_maps(H)
    e_table = np.empty((n, n), dtype=np.int64)
    for y in range(n):
        for x in range(n):
            e_table[y, x] = H.index_of(e_map(L, L, y, x))
    natural = []
    for fam, seeds in families:
        if not _family_is_natural(H, fam):
            continue
        if (fam == H.bottom_index).all():
            label = "trivial"
        elif (fam == e_table).all():
            label = "raney"
        else:
            label = "other"
        natural.append(NaturalFamily(label=label, table=fam, seed_count=seeds))
    natural.sort(key=lambda f: f.label != "trivial")
    return NaturalClassification(natural=tuple(natural), candidate_family_count=len(families))


# corpus members whose scalar classification stays fast; on m5 it takes
# seconds, and the families of m5 and boolean3 are checked by count and label
# above and by the corpus golden of the acceptance gate
SMALL_CORPUS = [(name, L) for name, L, _ in corpus() if enumerate_homset(L).m <= 108]


@pytest.mark.parametrize("name, L", SMALL_CORPUS, ids=[name for name, _ in SMALL_CORPUS])
def test_gathered_classification_matches_the_scalar_loop(name, L):
    H = enumerate_homset(L)
    got, want = classify_natural(H), classify_natural_by_maps(H)
    assert got.natural == want.natural
    assert [f.seed_count for f in got.natural] == [f.seed_count for f in want.natural]
    assert [f.table.dtype for f in got.natural] == [f.table.dtype for f in want.natural]
    assert got.candidate_family_count == want.candidate_family_count


def test_non_natural_family_is_rejected_by_the_oracle():
    H = HOMSETS["chain3"]
    L = H.lattice
    fam = np.full((L.n, L.n), H.top_index, dtype=np.int64)
    assert not naturality_by_map_composition(H, fam)


def _swapped_raney(H):
    """The Raney family e(y, x) with its entries at (top, bottom) and
    (top, top) swapped: e(top, bottom) is the greatest member, e(top, top)
    the least."""
    L = H.lattice
    fam = np.array([[H.index_of(e_map(L, L, y, x)) for x in range(L.n)] for y in range(L.n)])
    fam[L.top, L.bottom], fam[L.top, L.top] = fam[L.top, L.top], fam[L.top, L.bottom]
    return fam


@pytest.mark.parametrize("name, L", SMALL_CORPUS, ids=[name for name, _ in SMALL_CORPUS])
def test_composite_naturality_equals_the_map_composition_oracle(name, L):
    H = enumerate_homset(L)
    fams = [fam for fam, _ in candidate_families_by_maps(H)]
    fams.append(np.full((L.n, L.n), H.top_index, dtype=np.int64))
    if L.n > 1:
        fams.append(_swapped_raney(H))
    verdicts = [_family_is_natural(H, fam) for fam in fams]
    assert verdicts == [naturality_by_map_composition(H, fam) for fam in fams]
    if L.n > 1:
        assert verdicts[-2:] == [False, False]


def _family_is_natural_by_gathers(H, fam):
    """_family_is_natural before the J-key composites: the rows of f o psi
    and psi o g gathered and looked up whole, one (y, x) at a time."""
    n = H.lattice.n
    for y in range(n):
        for x in range(n):
            psi_tab = H.tables[fam[y, x]]
            left = H.tables[:, psi_tab.astype(np.int64)]
            if not (H.index_rows(left) == fam[H.tables[:, y].astype(np.int64), x]).all():
                return False
            right = psi_tab[H.tables.astype(np.int64)]
            if not (H.index_rows(right) == fam[y, H.rho_tables[:, x].astype(np.int64)]).all():
                return False
    return True


def classify_natural_by_gathers(H):
    """classify_natural before the J-key composites: all m * n^2 composites
    c_y o f0 o a_x as one row gather and one whole-row lookup."""
    L = H.lattice
    n = L.n
    vs = np.arange(n)
    c_tabs = e_tables(L, L, vs, L.bottom)
    a_tabs = e_tables(L, L, L.top, vs)
    comp = c_tabs[:, H.tables[:, a_tabs]]  # [y, seed, x, t]
    fams = H.index_rows(comp.transpose(1, 0, 2, 3).reshape(-1, n)).reshape(H.m, n * n)
    distinct, first, seeds = np.unique(fams, axis=0, return_index=True, return_counts=True)
    e_table = H.index_rows(e_tables(L, L, vs[:, None], vs[None, :]).reshape(-1, n)).reshape(n, n)
    natural = []
    for k in np.argsort(first):
        fam = distinct[k].reshape(n, n)
        if not _family_is_natural_by_gathers(H, fam):
            continue
        if (fam == H.bottom_index).all():
            label = "trivial"
        elif (fam == e_table).all():
            label = "raney"
        else:
            label = "other"
        natural.append(NaturalFamily(label=label, table=fam, seed_count=int(seeds[k])))
    natural.sort(key=lambda f: f.label != "trivial")
    return NaturalClassification(natural=tuple(natural), candidate_family_count=len(distinct))


@pytest.mark.parametrize("name", ["boolean3", "m5"])
def test_composite_classification_equals_the_gathered_one(name):
    H = HOMSETS[name]
    got, want = classify_natural(H), classify_natural_by_gathers(H)
    assert got.natural == want.natural
    assert [f.label for f in got.natural] == [f.label for f in want.natural] == ["trivial", "raney"]
    assert [f.seed_count for f in got.natural] == [f.seed_count for f in want.natural]
    assert [f.table.dtype for f in got.natural] == [f.table.dtype for f in want.natural]
    assert got.candidate_family_count == want.candidate_family_count


def test_row_groups_equal_np_unique_and_classify_natural_its_unique_form():
    """On every corpus homset: the lexsort grouping gives np.unique's rows,
    first indices, inverse and counts on the seeded rows f0 o a_x and on
    their families, and the
    classification keeps the families, their first-seed order, their seed
    counts and the candidate count of the np.unique form."""
    for name, L, _ in corpus():
        H = enumerate_homset(L)
        n = L.n
        a_idx = H.index_rows(e_tables(L, L, L.top, np.arange(n)))
        seeded = H.compose_indices(np.arange(H.m), a_idx)
        c_idx = H.index_rows(e_tables(L, L, np.arange(n), L.bottom))
        fams = H.compose_indices(c_idx, seeded.ravel()).reshape(n, H.m, n).transpose(1, 0, 2).reshape(H.m, -1)
        for rows in (seeded, fams):
            want = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
            got = _row_groups(rows)
            assert got[0].dtype == want[0].dtype, name
            for a, b in zip(got, want):
                assert (a == b.reshape(a.shape)).all(), name
        got, want = classify_natural(H), oracles.classify_natural_by_unique(H)
        assert got.candidate_family_count == want.candidate_family_count, name
        assert [(f.label, f.table.tolist(), f.table.dtype, f.seed_count) for f in got.natural] == \
            [(f.label, f.table.tolist(), f.table.dtype, f.seed_count) for f in want.natural], name


# -- abstract two-valued families -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_abstract_check_on_the_canonical_family(name):
    H = HOMSETS[name]
    v = abstract_raney_check(H)
    assert isinstance(v, AbstractRaneyVerdict)
    assert v.chain_image
    assert v.completely_distributive == is_distributive(H.lattice)
    assert v.identity_in_image == v.completely_distributive
    assert v.implication_holds


def abstract_raney_per_map(H, psi):
    """The verdict with the chain test on each value set and one LatticeMap
    and one extend_bimorphism per inf map."""
    L = H.lattice
    chain = True
    for y in range(L.n):
        for x in range(L.n):
            values = set(psi(y, x).table)
            chain &= all(L.leq[a, b] or L.leq[b, a] for a in values for b in values)
    ident = tuple(range(L.n))
    found = any(
        extend_bimorphism(psi, LatticeMap(L, L, t)).table == ident for t in enumerate_inf_maps(L)
    )
    return AbstractRaneyVerdict(chain, found, is_distributive(L))


def _family_along_an_inf_map(L):
    """c_y o a_g(x) for the middle inf map g: the identity is not reached."""
    inf = enumerate_inf_maps(L)
    g = LatticeMap(L, L, inf[len(inf) // 2])
    return family_map_after_a([c_map(L, L, y) for y in range(L.n)], g)


def _family_of_meets(L):
    """psi(y, x) = meet with y, for every x: off a chain, its image is not a
    chain, and along any inf map it extends to the identity."""
    return lambda y, x: LatticeMap(L, L, L.meet[y])


def _twisted_family(L):
    """The canonical family after the automorphism of boolean2 that swaps
    the atoms."""
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    return family_map_after_a([c_map(L, L, swap[y]) for y in range(L.n)], identity_map(L))


@pytest.mark.parametrize("name, family", [(name, e_family) for name in sorted(LATTICES)] + [
    ("boolean2", _twisted_family),
    ("boolean2", _family_along_an_inf_map),
    ("boolean3", _family_along_an_inf_map),
    ("chain3", _family_along_an_inf_map),
    ("m3", _family_along_an_inf_map),
    ("n5", _family_along_an_inf_map),
    ("boolean2", _family_of_meets),
    ("boolean3", _family_of_meets),
    ("chain4", _family_of_meets),
])
def test_abstract_check_matches_the_per_map_extension_loop(name, family):
    H = HOMSETS[name]
    psi = family(H.lattice)
    want = abstract_raney_per_map(H, psi)
    assert abstract_raney_check(H, psi) == want
    if family is _family_of_meets:
        assert want.identity_in_image and want.chain_image == (name == "chain4")
    if family is _family_along_an_inf_map:
        assert want.chain_image and not want.identity_in_image


def test_canonical_family_image_is_the_tight_subset():
    for name in ("chain3", "boolean2", "m3", "n5"):
        H = HOMSETS[name]
        L = H.lattice
        psi = e_family(L)
        image = {
            H.index_of(extend_bimorphism(psi, LatticeMap(L, L, t)))
            for t in enumerate_inf_maps(L)
        }
        assert image == {i for i in range(H.m) if H.tight_mask[i]}, name


def test_second_construction_gives_the_same_family():
    for name in ("chain3", "m3"):
        L = LATTICES[name]
        psi1 = e_family(L)
        psi2 = family_c_after_map(
            identity_map(L), [a_map(L, L, x) for x in range(L.n)]
        )
        for y in range(L.n):
            for x in range(L.n):
                assert psi1(y, x) == psi2(y, x)


def test_twisted_family_still_reaches_the_identity_on_a_distributive_lattice():
    H = HOMSETS["boolean2"]
    v = abstract_raney_check(H, _twisted_family(H.lattice))
    assert v.chain_image and v.identity_in_image and v.implication_holds


def test_family_constructors_validate_their_components():
    L = make_mk(3)
    with pytest.raises(MapError, match="meet-preserving"):
        family_map_after_a(
            [c_map(L, L, y) for y in range(L.n)], LatticeMap(L, L, [0, 1, 1, 1, 4])
        )
    with pytest.raises(MapError, match="preserve joins"):
        family_map_after_a(
            [c_map(L, L, 0 if y == L.top else y) for y in range(L.n)],
            identity_map(L),
        )
    with pytest.raises(MapError, match="send bottom"):
        family_map_after_a(
            [c_map(L, L, 1) for _ in range(L.n)], identity_map(L)
        )
    with pytest.raises(MapError, match="one homset member per"):
        family_map_after_a([c_map(L, L, 0)], identity_map(L))
    with pytest.raises(MapError, match="meets into joins"):
        family_c_after_map(identity_map(L), [c_map(L, L, x) for x in range(L.n)])
    with pytest.raises(MapError, match="send top"):
        family_c_after_map(identity_map(L), [a_map(L, L, 0) for _ in range(L.n)])
