"""Lattice core tests against independent brute-force order-theoretic oracles.

Every oracle here recomputes the property from the raw order relation with
plain loops, never through the package's own tables.
"""

import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supq import (
    Lattice,
    NoBoundedElement,
    NotALattice,
    NotAPartialOrder,
    Poset,
    SearchCapExceeded,
    SizeGuardExceeded,
    automorphisms,
    downset_lattice,
    dual,
    is_distributive,
    join_irreducibles,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    meet_irreducibles,
    order_automorphisms,
    parse_lattice,
    serialize_lattice,
)
from supq import lattice
from supq.verify import corpus as verify_corpus

from oracles import join_of, meet_of
from perfbench import workloads

# -- oracles -----------------------------------------------------------------


def floyd_closure(n, covers):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return leq


def lub_scan(leq, x, y):
    n = len(leq)
    ubs = [z for z in range(n) if leq[x][z] and leq[y][z]]
    least = [u for u in ubs if all(leq[u][v] for v in ubs)]
    assert len(least) <= 1
    return least[0] if least else None


def glb_scan(leq, x, y):
    n = len(leq)
    lbs = [z for z in range(n) if leq[z][x] and leq[z][y]]
    greatest = [u for u in lbs if all(leq[v][u] for v in lbs)]
    assert len(greatest) <= 1
    return greatest[0] if greatest else None


def isomorphic_scan(L1, L2):
    if L1.n != L2.n:
        return False
    leq1, leq2 = L1.leq.tolist(), L2.leq.tolist()
    return any(
        all(leq1[i][j] == leq2[p[i]][p[j]] for i in range(L1.n) for j in range(L1.n))
        for p in itertools.permutations(range(L1.n))
    )


def automorphisms_by_filter(leq):
    n = len(leq)
    out = []
    for perm in itertools.permutations(range(n)):
        if all(leq[i][j] == leq[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            out.append(perm)
    return sorted(out)


def join_irreducibles_scan(L):
    out = []
    for x in range(L.n):
        if x == L.bottom:
            continue
        proper = any(
            int(L.join[a, b]) == x and a != x and b != x
            for a in range(L.n)
            for b in range(L.n)
        )
        if not proper:
            out.append(x)
    return out


def meet_irreducibles_scan(L):
    out = []
    for x in range(L.n):
        if x == L.top:
            continue
        proper = any(
            int(L.meet[a, b]) == x and a != x and b != x
            for a in range(L.n)
            for b in range(L.n)
        )
        if not proper:
            out.append(x)
    return out


def is_distributive_scan(L):
    for x in range(L.n):
        for y in range(L.n):
            for z in range(L.n):
                if L.meet[x, L.join[y, z]] != L.join[L.meet[x, y], L.meet[x, z]]:
                    return False
    return True


def downsets_scan(P):
    """All down-closed subsets, recomputed from the definition."""
    out = []
    for bits in itertools.product([0, 1], repeat=P.n):
        s = {i for i in range(P.n) if bits[i]}
        if all(j in s for i in s for j in range(P.n) if P.leq[j, i]):
            out.append(frozenset(s))
    return set(out)


def assert_lattice_axioms(L):
    """Idempotence, commutativity, associativity, absorption, order agreement."""
    j, m, leq = L.join.astype(np.int64), L.meet.astype(np.int64), L.leq
    n = L.n
    idx = np.arange(n)
    assert (j[idx, idx] == idx).all() and (m[idx, idx] == idx).all()
    assert (j == j.T).all() and (m == m.T).all()
    assert (j[idx[:, None], m] == idx[:, None]).all()  # x v (x ^ y) = x
    assert (m[idx[:, None], j] == idx[:, None]).all()  # x ^ (x v y) = x
    assert ((j == idx[None, :]) == leq).all()  # x <= y iff x v y = y
    assert ((m == idx[:, None]) == leq).all()  # x <= y iff x ^ y = x
    assert (j[j, :][idx[:, None, None], idx[None, :, None], idx[None, None, :]]
            == j[idx[:, None, None], j[None, :, :]]).all()
    assert (m[m, :][idx[:, None, None], idx[None, :, None], idx[None, None, :]]
            == m[idx[:, None, None], m[None, :, :]]).all()
    assert bool(leq.all(axis=1)[L.bottom]) and bool(leq.all(axis=0)[L.top])


def corpus():
    return [
        make_chain(1),
        make_chain(2),
        make_chain(3),
        make_chain(5),
        make_boolean(1),
        make_boolean(2),
        make_boolean(3),
        make_mk(3),
        make_mk(5),
        make_n5(),
        downset_lattice(Poset.from_covers(3, [(0, 1), (0, 2)])),
    ]


# -- tables against oracles ---------------------------------------------------


def test_join_meet_tables_match_bruteforce_scan():
    for L in corpus():
        leq = L.leq.tolist()
        for x in range(L.n):
            for y in range(L.n):
                assert int(L.join[x, y]) == lub_scan(leq, x, y)
                assert int(L.meet[x, y]) == glb_scan(leq, x, y)


def test_lattice_axioms_hold_on_corpus():
    for L in corpus():
        assert_lattice_axioms(L)


def test_bottom_and_top():
    for L in corpus():
        for x in range(L.n):
            assert L.leq[L.bottom, x] and L.leq[x, L.top]
    assert make_chain(4).bottom == 0 and make_chain(4).top == 3
    L1 = make_chain(1)
    assert L1.bottom == L1.top == 0


def test_join_of_and_meet_of_fold():
    L = make_boolean(3)
    assert join_of(L, []) == L.bottom
    assert meet_of(L, []) == L.top
    assert join_of(L, [1, 2, 4]) == L.top
    assert meet_of(L, [3, 5]) == 1  # {0,1} ^ {0,2} = {0}
    assert join_of(L, [3, 5]) == 7


def test_covers_match_bruteforce():
    for L in corpus():
        leq = L.leq
        for i in range(L.n):
            for j in range(L.n):
                strict = bool(leq[i, j]) and i != j
                between = any(
                    leq[i, k] and leq[k, j] and k != i and k != j for k in range(L.n)
                )
                assert bool(L.covers[i, j]) == (strict and not between)
    assert int(make_boolean(3).covers.sum()) == 12
    assert int(make_chain(4).covers.sum()) == 3


def test_incomparable_join_pairs_match_bruteforce():
    for L in corpus():
        expected = {x: [] for x in range(L.n)}
        for a in range(L.n):
            for b in range(a + 1, L.n):
                if not L.leq[a, b] and not L.leq[b, a]:
                    expected[int(L.join[a, b])].append((a, b))
        assert L.incomparable_join_pairs == expected


def test_descending_order_is_a_top_down_linear_extension():
    for L in corpus():
        order = L.descending_order
        assert sorted(order) == list(range(L.n))
        pos = {x: k for k, x in enumerate(order)}
        for x in range(L.n):
            for y in range(L.n):
                if L.leq[x, y] and x != y:
                    assert pos[y] < pos[x]


def test_hash_id_separates_structures():
    assert make_chain(4).hash_id != make_boolean(2).hash_id
    assert make_chain(3).hash_id == make_mk(1).hash_id  # same order matrix
    assert make_chain(3).hash_id == parse_lattice(serialize_lattice(make_chain(3))).hash_id


# -- constructors -------------------------------------------------------------


def test_chain_is_a_total_order():
    for n in range(1, 7):
        L = make_chain(n)
        assert L.n == n
        for x in range(n):
            for y in range(n):
                assert bool(L.leq[x, y]) == (x <= y)


def test_boolean_lattice_structure():
    L = make_boolean(3)
    assert L.n == 8
    assert is_distributive(L)
    assert sorted(join_irreducibles(L)) == [1, 2, 4]
    assert sorted(meet_irreducibles(L)) == [3, 5, 6]
    assert L.names[0] == "{}" and L.names[7] == "{0,1,2}"
    B0 = make_boolean(0)
    assert B0.n == 1


def test_mk_family():
    assert make_mk(0).same_structure(make_chain(2))
    assert make_mk(1).same_structure(make_chain(3))
    M3 = make_mk(3)
    assert M3.n == 5 and not is_distributive(M3)
    assert sorted(join_irreducibles(M3)) == [1, 2, 3]
    assert sorted(meet_irreducibles(M3)) == [1, 2, 3]
    M5 = make_mk(5)
    assert M5.n == 7 and not is_distributive(M5)
    assert M5.names == ["bot", "a1", "a2", "a3", "a4", "a5", "top"]


def test_n5_pentagon():
    N5 = make_n5()
    assert N5.n == 5 and not is_distributive(N5)
    # bot < a < c < top and bot < b < top
    a, c, b = 1, 2, 3
    assert N5.leq[a, c] and not N5.leq[a, b] and not N5.leq[b, a]
    assert int(N5.join[a, b]) == N5.top and int(N5.meet[c, b]) == N5.bottom
    assert N5.names == ["bot", "a", "c", "b", "top"]


def test_dual_swaps_everything():
    for L in corpus():
        D = dual(L)
        assert (D.leq == L.leq.T).all()
        assert (D.join == L.meet).all() and (D.meet == L.join).all()
        assert D.bottom == L.top and D.top == L.bottom
        assert dual(D).same_structure(L)
        assert_lattice_axioms(D)
    assert sorted(meet_irreducibles(dual(make_boolean(3)))) == [1, 2, 4]


def test_size_guards():
    with pytest.raises(SizeGuardExceeded):
        make_chain(65)
    with pytest.raises(SizeGuardExceeded):
        make_boolean(7)
    with pytest.raises(SizeGuardExceeded):
        make_mk(63)
    with pytest.raises(SizeGuardExceeded):
        downset_lattice(Poset.from_covers(13, []))
    with pytest.raises(ValueError):
        make_chain(0)
    with pytest.raises(ValueError):
        make_boolean(-1)


# -- posets and downset lattices ----------------------------------------------


POSETS = {
    "empty-order-3": Poset.from_covers(3, []),
    "chain-3": Poset.from_covers(3, [(0, 1), (1, 2)]),
    "vee": Poset.from_covers(3, [(0, 1), (0, 2)]),
    "wedge": Poset.from_covers(3, [(0, 2), (1, 2)]),
    "two-plus-one": Poset.from_covers(3, [(0, 1)]),
}


def test_from_covers_matches_floyd_closure():
    cases = [
        (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        (3, []),
        (1, []),
    ]
    for n, covers in cases:
        P = Poset.from_covers(n, covers)
        assert P.leq.tolist() == floyd_closure(n, covers)


def test_poset_validation_errors():
    with pytest.raises(NotAPartialOrder, match="reflexive"):
        Poset(np.zeros((2, 2), dtype=bool))
    with pytest.raises(NotAPartialOrder, match="antisymmetric"):
        Poset(np.ones((2, 2), dtype=bool))
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # missing 0 <= 2
    with pytest.raises(NotAPartialOrder, match="transitive"):
        Poset(leq)
    with pytest.raises(NotAPartialOrder, match="loop"):
        Poset.from_covers(2, [(0, 0)])
    with pytest.raises(NotAPartialOrder, match="cycle"):
        Poset.from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_covers(2, [(0, 5)])
    with pytest.raises(ValueError, match="names"):
        Poset(np.eye(2, dtype=bool), names=["only-one"])
    with pytest.raises(ValueError, match="square"):
        Poset(np.ones((2, 3), dtype=bool))


def test_downsets_match_definition_scan():
    four = Poset.from_covers(4, [(0, 1), (0, 2)])
    cells = [Poset(np.kron(P.leq, P.leq.T)) for P in POSETS.values()]
    for P in [*POSETS.values(), four, *cells]:
        assert set(P.downsets()) == downsets_scan(P)
        masks = P.downset_masks()
        assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))
        assert masks[0] == 0 and masks[-1] == (1 << P.n) - 1


def test_downset_enumeration_is_bounded_by_its_output():
    # P x P^op of a 5-chain has 25 cells but only C(10, 5) downsets
    chain = Poset.from_covers(5, [(i, i + 1) for i in range(4)])
    assert len(Poset(np.kron(chain.leq, chain.leq.T)).downset_masks()) == 252
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="downsets"):
        Poset.from_covers(30, []).downset_masks()
    assert time.perf_counter() - start < 10
    # masks are Python ints: a chain wider than 64 bits has one downset per height
    masks = Poset.from_covers(70, [(i, i + 1) for i in range(69)]).downset_masks()
    assert masks == [(1 << k) - 1 for k in range(71)]


def test_downset_count_equals_the_number_listed():
    """On every corpus and midsize poset, on random posets of up to 5 points
    and on P x P^op of each, whose downsets are the weakening relations."""
    rng = np.random.default_rng(5)
    posets = [P for _, _, P in verify_corpus() + workloads.build("midsize", 0) if P is not None]
    for n in range(1, 6):
        for _ in range(12):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            posets.append(Poset.from_covers(n, [p for p in pairs if rng.random() < 0.5]))
    for P in posets:
        for Q in (P, Poset(np.kron(P.leq, P.leq.T), _validated=True)):
            assert Q.downset_count() == len(Q.downset_masks())


def test_downset_lattice_known_shapes():
    assert isomorphic_scan(downset_lattice(POSETS["empty-order-3"]), make_boolean(3))
    assert downset_lattice(POSETS["chain-3"]).same_structure(make_chain(4))
    V = downset_lattice(POSETS["vee"])
    assert V.n == 5 and is_distributive(V)
    assert V.names == ["{}", "{0}", "{0,1}", "{0,2}", "{0,1,2}"]
    W = downset_lattice(POSETS["wedge"])
    assert W.n == 5 and is_distributive(W)


def test_downset_lattice_is_distributive_with_irreducibles_matching_poset():
    for P in POSETS.values():
        D = downset_lattice(P)
        assert_lattice_axioms(D)
        assert is_distributive(D)
        # join-irreducibles are exactly the principal downsets, one per element
        assert len(join_irreducibles(D)) == P.n


# -- structure queries ---------------------------------------------------------


def test_irreducibles_match_definition_scan():
    for L in corpus():
        assert join_irreducibles(L) == join_irreducibles_scan(L)
        assert meet_irreducibles(L) == meet_irreducibles_scan(L)


def test_distributivity_matches_triple_scan():
    for L in corpus():
        assert is_distributive(L) == is_distributive_scan(L)
    assert not is_distributive(make_mk(3))
    assert not is_distributive(make_n5())
    assert is_distributive(make_boolean(3))
    assert is_distributive(make_chain(5))


def test_automorphisms_match_permutation_filter():
    for L in [make_chain(4), make_boolean(2), make_mk(3), make_mk(5), make_n5()]:
        assert automorphisms(L) == automorphisms_by_filter(L.leq.tolist())


def test_automorphism_counts():
    assert len(automorphisms(make_mk(5))) == 120
    assert len(automorphisms(make_boolean(3))) == 6
    assert len(automorphisms(make_boolean(2))) == 2
    assert len(automorphisms(make_n5())) == 1
    assert len(automorphisms(make_chain(5))) == 1
    assert len(Poset.from_covers(3, []).automorphisms()) == 6


def test_automorphisms_form_a_group():
    for L in [make_mk(5), make_boolean(3)]:
        auts = set(automorphisms(L))
        ident = tuple(range(L.n))
        assert ident in auts
        for g in auts:
            inv = tuple(g.index(i) for i in range(L.n))
            assert inv in auts
            for h in auts:
                assert tuple(g[h[i]] for i in range(L.n)) in auts


def test_automorphism_search_cap(monkeypatch):
    monkeypatch.setattr(lattice, "AUTOMORPHISM_NODE_CAP", 3)
    with pytest.raises(SearchCapExceeded):
        order_automorphisms(make_mk(5).leq)


def test_not_a_lattice_witnesses():
    with pytest.raises(NotALattice, match="1 and 2 have no least upper bound"):
        Lattice(Poset.from_covers(3, [(0, 1), (0, 2)]))
    # bowtie: two minimal below two maximal elements
    with pytest.raises(NotALattice):
        Lattice(Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))


# -- serialization -------------------------------------------------------------


def test_serialize_parse_round_trip():
    for L in corpus():
        back = parse_lattice(serialize_lattice(L))
        assert back.same_structure(L)
        assert back.names == L.names


def test_parse_leq_format():
    doc = {"leq": [[True, True], [False, True]], "elements": ["lo", "hi"]}
    L = parse_lattice(json.dumps(doc))
    assert L.same_structure(make_chain(2))
    assert L.names == ["lo", "hi"]
    assert parse_lattice(json.dumps({"leq": [[True]]})).n == 1


def test_parse_rejects_malformed_input():
    good = {"elements": ["a", "b"], "covers": [[0, 1]]}
    assert parse_lattice(json.dumps(good)).n == 2
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_lattice("{nope")
    with pytest.raises(ValueError, match="JSON object"):
        parse_lattice("[1, 2]")
    with pytest.raises(ValueError, match="unknown keys"):
        parse_lattice(json.dumps(dict(good, extra=1)))
    with pytest.raises(ValueError, match="exactly one"):
        parse_lattice(json.dumps(dict(good, leq=[[True]])))
    with pytest.raises(ValueError, match="exactly one"):
        parse_lattice(json.dumps({"elements": ["a"]}))
    with pytest.raises(ValueError, match="requires 'elements'"):
        parse_lattice(json.dumps({"covers": [[0, 1]]}))
    with pytest.raises(ValueError, match="list of strings"):
        parse_lattice(json.dumps({"elements": [0, 1], "covers": [[0, 1]]}))
    with pytest.raises(ValueError, match="pairs"):
        parse_lattice(json.dumps({"elements": ["a", "b"], "covers": [[0, 1, 2]]}))
    with pytest.raises(ValueError, match="booleans"):
        parse_lattice(json.dumps({"leq": [[1, 1], [0, 1]]}))
    with pytest.raises(ValueError, match="square"):
        parse_lattice(json.dumps({"leq": [[True, True], [False]]}))
    with pytest.raises(ValueError, match="names"):
        parse_lattice(json.dumps({"leq": [[True]], "elements": ["a", "b"]}))


def test_parse_error_types():
    with pytest.raises(NoBoundedElement):
        parse_lattice(json.dumps({"elements": [], "covers": []}))
    with pytest.raises(NoBoundedElement):
        parse_lattice(json.dumps({"leq": []}))
    with pytest.raises(NotALattice):
        parse_lattice(json.dumps({"elements": ["x", "y", "z"], "covers": [[0, 1], [0, 2]]}))
    with pytest.raises(NotAPartialOrder):
        parse_lattice(json.dumps({"elements": ["x", "y"], "covers": [[0, 1], [1, 0]]}))
    with pytest.raises(SizeGuardExceeded):
        parse_lattice(json.dumps({"elements": [str(i) for i in range(lattice.MAX_LATTICE_SIZE + 1)], "covers": []}))
    # an antichain order matrix fails on missing bounds, reported as a lub gap
    two_bools = [[True, False], [False, True]]
    with pytest.raises(NotALattice):
        parse_lattice(json.dumps({"leq": two_bools}))


# -- randomized properties ------------------------------------------------------


@st.composite
def cover_dags(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=10,
        )
    )
    return n, pairs


@settings(max_examples=80, deadline=None)
@given(cover_dags())
def test_from_covers_closure_matches_oracle(case):
    n, pairs = case
    P = Poset.from_covers(n, pairs)
    assert P.leq.tolist() == floyd_closure(n, pairs)
    assert P.dual().leq.tolist() == np.array(floyd_closure(n, pairs)).T.tolist()


@settings(max_examples=60, deadline=None)
@given(cover_dags())
def test_downset_lattice_of_random_poset(case):
    n, pairs = case
    P = Poset.from_covers(n, pairs)
    D = downset_lattice(P)
    want = downsets_scan(P)
    assert set(P.downsets()) == want
    assert D.n == len(want)
    assert_lattice_axioms(D)
    assert is_distributive(D)
    assert len(join_irreducibles(D)) == P.n
    assert len(meet_irreducibles(D)) == P.n


@settings(max_examples=60, deadline=None)
@given(cover_dags())
def test_lub_glb_scan_agrees_on_random_downset_lattices(case):
    n, pairs = case
    D = downset_lattice(Poset.from_covers(n, pairs))
    leq = D.leq.tolist()
    for x in range(min(D.n, 10)):
        for y in range(D.n - 1, max(D.n - 11, -1), -1):
            assert int(D.join[x, y]) == lub_scan(leq, x, y)
            assert int(D.meet[x, y]) == glb_scan(leq, x, y)
