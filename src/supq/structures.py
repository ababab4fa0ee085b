"""Abstract finite quantales, irreducible analysis, weakening relations,
and the classification of natural two-parameter families.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from supq.lattice import (
    MAX_DOWNSET_LATTICE_SIZE,
    CapExceeded,
    Lattice,
    Poset,
    SizeGuardExceeded,
    _automorphism,
    _load_json,
    cached,
    downset_lattice,
    find_order_isomorphism,
    join_irreducibles,
    make_mk,
    meet_irreducibles,
    parse_lattice,
    poset_hash,
    serialize_lattice,
)
from supq.maps import (
    LatticeMap,
    MapError,
    a_map,
    c_map,
    e_tables,
    identity_map,
    is_inf_preserving,
    is_sup_preserving,
    join_fold,
    leq_tables,
    pointwise_join,
    table_take,
    tensor_tables,
)
from supq.quantale import (
    MATRIX_CAP,
    TABLE_SCAN_CAP,
    EndoHomset,
    _row_groups,
    is_completely_distributive,
)


# -- abstract finite quantales ---------------------------------------------------


class FiniteQuantale:
    """A finite lattice with an associative multiplication that distributes
    over joins in each argument."""

    __slots__ = ("carrier", "mult")

    def __init__(self, carrier: Lattice, mult):
        mult = np.array(mult, dtype=np.int16)
        n = carrier.n
        if mult.shape != (n, n):
            raise ValueError(f"multiplication table must be {n}x{n}")
        if mult.min() < 0 or mult.max() >= n:
            raise ValueError("multiplication table value out of range")
        idx = np.arange(n)
        left = mult[mult, :][idx[:, None, None], idx[None, :, None], idx[None, None, :]]
        right = mult[idx[:, None, None], mult[None, :, :]]
        if not (left == right).all():
            x, y, z = np.argwhere(left != right)[0]
            raise ValueError(f"multiplication is not associative at ({x}, {y}, {z})")
        join = carrier.join.astype(np.int64)
        bot = carrier.bottom
        if not ((mult[:, bot] == bot).all() and (mult[bot, :] == bot).all()):
            raise ValueError("bottom does not annihilate")
        lhs = mult[idx[:, None, None], join[None, :, :]]
        rhs = join[mult[idx[:, None, None], idx[None, :, None]], mult[idx[:, None, None], idx[None, None, :]]]
        if not (lhs == rhs).all():
            raise ValueError("multiplication does not distribute over joins on the right")
        lhs = mult[join[:, :, None], idx[None, None, :]]
        rhs = join[mult[idx[:, None, None], idx[None, None, :]], mult[idx[None, :, None], idx[None, None, :]]]
        if not (lhs == rhs).all():
            raise ValueError("multiplication does not distribute over joins on the left")
        mult.flags.writeable = False
        self.carrier = carrier
        self.mult = mult

    def multiply(self, x: int, y: int) -> int:
        return int(self.mult[x, y])

    def unit(self):
        """The two-sided unit, or None."""
        n = self.carrier.n
        idx = np.arange(n)
        for u in range(n):
            if (self.mult[u] == idx).all() and (self.mult[:, u] == idx).all():
                return u
        return None

    def __repr__(self) -> str:
        return f"FiniteQuantale(n={self.carrier.n})"


def q_residuals(Q: FiniteQuantale, x: int, y: int) -> tuple[int, int]:
    """(x\\y, y/x): the largest z with x*z <= y, resp. z*x <= y."""
    L = Q.carrier
    under = L.join_of(z for z in range(L.n) if L.leq[Q.mult[x, z], y])
    over = L.join_of(z for z in range(L.n) if L.leq[Q.mult[z, x], y])
    return under, over


def q_cyclic(Q: FiniteQuantale) -> list[int]:
    """Elements c with c/x = x\\c for every x."""
    L = Q.carrier
    out = []
    for c in range(L.n):
        if all(len(set(q_residuals(Q, x, c))) == 1 for x in range(L.n)):
            out.append(c)
    return out


def q_dualizing(Q: FiniteQuantale) -> list[int]:
    """Elements d with (d/x)\\d = x = d/(x\\d) for every x."""
    L = Q.carrier
    out = []
    for d in range(L.n):
        ok = True
        for x in range(L.n):
            under, over = q_residuals(Q, x, d)
            if q_residuals(Q, over, d)[0] != x or q_residuals(Q, under, d)[1] != x:
                ok = False
                break
        if ok:
            out.append(d)
    return out


def m5_quantale() -> FiniteQuantale:
    """The seven-element quantale on the height-two lattice with five atoms
    named u, d, a, b, c, whose only dualizing element is the non-cyclic d."""
    carrier = make_mk(5, names=["bot", "u", "d", "a", "b", "c", "top"])
    mult = [
        [0, 0, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4, 5, 6],
        [0, 2, 6, 6, 6, 6, 6],
        [0, 3, 6, 6, 6, 2, 6],
        [0, 4, 6, 2, 6, 6, 6],
        [0, 5, 6, 6, 2, 6, 6],
        [0, 6, 6, 6, 6, 6, 6],
    ]
    return FiniteQuantale(carrier, mult)


def serialize_quantale(Q: FiniteQuantale) -> str:
    doc = {
        "carrier": json.loads(serialize_lattice(Q.carrier)),
        "mult": Q.mult.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_quantale(text: str) -> FiniteQuantale:
    doc = _load_json(text)
    if not isinstance(doc, dict) or set(doc) != {"carrier", "mult"}:
        raise ValueError("quantale file needs exactly the keys 'carrier' and 'mult'")
    carrier = parse_lattice(json.dumps(doc["carrier"]))
    mult = doc["mult"]
    if not (isinstance(mult, list) and all(
            isinstance(r, list) and all(type(v) is int for v in r) for r in mult)):
        raise ValueError("'mult' must be a list of lists of integers")
    if any(not 0 <= v < carrier.n for r in mult for v in r):
        raise ValueError("multiplication table value out of range")
    return FiniteQuantale(carrier, mult)


# -- irreducible members of the endomap quantale --------------------------------------


@dataclass(frozen=True)
class IrreducibleReport:
    join_irreducible_indices: tuple[int, ...]
    meet_irreducible_indices: tuple[int, ...]
    tensor_indices: tuple[int, ...]  # m (tensor) j for m meet-irr, j join-irr in L
    e_indices: tuple[int, ...]       # e_(j,m) for the same pairs
    product_count: int               # |J(L)| * |M(L)|
    meet_equals_tensors: bool
    e_within_join_irreducibles: bool
    tensors_pairwise_distinct: bool
    e_pairwise_distinct: bool
    lower_cover_edges: tuple = field(default=(), compare=False, repr=False)  # (f, g): g covered by f


def homset_irreducibles(H: EndoHomset, cap: int = TABLE_SCAN_CAP) -> IrreducibleReport:
    """Join- and meet-irreducible members of the endomap quantale, compared
    with the elementary tensors and the e maps; cached per homset after the cap check."""
    if H.m > cap:
        raise CapExceeded(f"homset has {H.m} members; irreducible scan capped at {cap}", H.m)
    return _irreducibles(H)


@cached("irreducibles")
def _irreducibles(H: EndoHomset) -> IrreducibleReport:
    """Covers from the tensors tau_k = m_k over j_k, over the K pairs of a meet-
    and a join-irreducible: f <= tau_k exactly when f(j_k) <= m_k, and they are
    meet-dense, as the order is compared on J and M is meet-dense in L.  So the
    lower covers of f are the maximal members of {f meet tau_k : f(j_k) not<=
    m_k}, each the interior of a pointwise meet found from its J-key, compared
    by their signatures {k : g(j_k) <= m_k}: f <= g exactly when sig(g) is
    within sig(f).  Upper covers are the lower-cover edges read backwards."""
    L = H.lattice
    jl, ml = join_irreducibles(L), meet_irreducibles(L)
    # every pair (m, j) of a meet- and a join-irreducible, m-major
    ms, js = np.array(ml, dtype=np.int64)[:, None], np.array(jl, dtype=np.int64)[None, :]
    tensors = [int(i) for i in H.index_rows(tensor_tables(L, L, ms, js).reshape(-1, L.n))]
    es = [int(i) for i in H.index_rows(e_tables(L, L, js, ms).reshape(-1, L.n))]
    J, radix, _, _ = H._keys()
    mk, jk = np.repeat(ms.ravel(), len(jl)), np.tile(js.ravel(), len(ml))  # pair k, m-major
    on_J, below = H.tables[:, J], L.leq[J][:, jk].T  # below[k, i] = J[i] <= j_k
    vals = np.where(below, table_take(L.meet, on_J[:, None, :], mk[:, None]), on_J[:, None, :])
    cand = H._interior_keys(vals.astype(np.int64) @ radix)  # [f, k] = f meet tau_k
    inside = table_take(L.leq, H.tables[:, jk], mk)  # [g, k] = g <= tau_k
    sig = np.packbits(np.pad(inside, ((0, 0), (0, -len(mk) % 64))), axis=1, bitorder="little")
    sig = np.ascontiguousarray(sig).view(np.uint64)  # [g, word]
    live, maximal = ~inside, ~inside  # maximal: f meet tau_k is a lower cover of f
    step = max(1, (1 << 18) // max(1, len(mk)) ** 2)  # rows per block of K x K cells
    for r in (slice(s, s + step) for s in range(0, H.m, step)):
        c = sig[cand[r]]  # [f, k, word] = sig(f meet tau_k)
        above = ~(c[:, None] & ~c[:, :, None]).any(axis=3)  # [f, a, b]: cand b >= cand a
        above &= live[r, None, :] & (cand[r, None, :] != cand[r, :, None])
        maximal[r] &= ~above.any(axis=2)
    lower = np.where(maximal, cand, -1)
    lower.sort(axis=1)
    first = lower >= 0  # the first of each distinct lower cover
    first[:, 1:] &= lower[:, 1:] != lower[:, :-1]
    f, g = np.nonzero(first)[0], lower[first]
    j_idx = tuple(int(i) for i in np.flatnonzero(np.bincount(f, minlength=H.m) == 1))
    m_idx = tuple(int(i) for i in np.flatnonzero(np.bincount(g, minlength=H.m) == 1))
    return IrreducibleReport(
        join_irreducible_indices=j_idx,
        meet_irreducible_indices=m_idx,
        tensor_indices=tuple(tensors),
        e_indices=tuple(es),
        product_count=len(jl) * len(ml),
        meet_equals_tensors=set(m_idx) == set(tensors),
        e_within_join_irreducibles=set(es) <= set(j_idx),
        tensors_pairwise_distinct=len(set(tensors)) == len(tensors),
        e_pairwise_distinct=len(set(es)) == len(es),
        lower_cover_edges=(f, g),
    )


# -- autoduality of the endomap quantale ------------------------------------------------


@dataclass(frozen=True)
class AutodualReport:
    verdict: str  # "autodual" | "not-autodual"
    reason: str
    witness: tuple[int, ...] | None = None
    join_irreducible_count: int | None = None
    meet_irreducible_count: int | None = None


def autodual_report(H: EndoHomset, cap: int = TABLE_SCAN_CAP) -> AutodualReport:
    """Is the endomap quantale order-isomorphic to its own opposite?  Raises
    CapExceeded for a homset of more than `cap` members."""
    if H.m > cap:
        raise CapExceeded(f"{H.m} maps exceed the search cap {cap}", H.m)
    report = homset_irreducibles(H, cap=cap)
    nj, nm = len(report.join_irreducible_indices), len(report.meet_irreducible_indices)
    counts = {"join_irreducible_count": nj, "meet_irreducible_count": nm}
    if nj != nm:
        return AutodualReport(
            "not-autodual", f"join-irreducible count {nj} differs from meet-irreducible count {nm}", **counts)
    if is_completely_distributive(H.lattice):
        # the star map is an order-reversing involution of the homset; the
        # autodual check tests the witness
        return AutodualReport("autodual", "star is an order-reversing bijection",
                              tuple(int(v) for v in H.star_indices), **counts)
    if H.m > MATRIX_CAP:
        raise CapExceeded(f"order matrix for {H.m} maps exceeds the {MATRIX_CAP} cap", H.m)
    on_J = H.tables[:, join_irreducibles(H.lattice)]
    leq_q = leq_tables(H.lattice, on_J, on_J)
    found = find_order_isomorphism(leq_q, leq_q.T.copy())
    if found is None:
        return AutodualReport("not-autodual", "no order-reversing bijection exists", **counts)
    return AutodualReport("autodual", "order-reversing bijection found by search", found, **counts)


# -- weakening relations -----------------------------------------------------------------


class WeakeningRelation:
    """A relation on a poset that is down-closed in the first coordinate and
    up-closed in the second, kept as its pairs (y, x) and as the (n, n) bool
    matrix with those entries set."""

    __slots__ = ("poset", "pairs", "matrix")

    def __init__(self, poset: Poset, pairs):
        pairs = frozenset((int(y), int(x)) for y, x in pairs)
        rel = np.zeros((poset.n, poset.n), dtype=bool)
        for y, x in pairs:
            if not (0 <= y < poset.n and 0 <= x < poset.n):
                raise ValueError(f"pair ({y}, {x}) out of range")
            rel[y, x] = True
        leq = poset.leq
        missing = np.argwhere((leq @ rel @ leq) & ~rel)
        if len(missing):
            y2, x2 = missing[0]
            y, x = np.argwhere(leq[y2][:, None] & rel & leq[:, x2])[0]
            raise ValueError(f"relation is not down-closed: ({y}, {x}) forces ({y2}, {x2})")
        rel.flags.writeable = False
        self.poset = poset
        self.pairs = pairs
        self.matrix = rel

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeakeningRelation)
            and self.poset.same_structure(other.poset)
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((poset_hash(self.poset), self.pairs))

    def __repr__(self) -> str:
        return f"WeakeningRelation({sorted(self.pairs)})"

    def to_doc(self) -> dict:
        return {"poset_hash": poset_hash(self.poset), "pairs": sorted(self.pairs)}


def _downsets(P: Poset):
    """P's downsets as 0/1 rows in downset-lattice order, and a function that
    gives the lattice index of each 0/1 row of an array over P (-1 for a set
    that is not down-closed).  The index spans all 2^n subsets, so it is
    capped like the downset lattice."""
    if (1 << P.n) > MAX_DOWNSET_LATTICE_SIZE:
        raise SizeGuardExceeded(f"downset index of a {P.n}-element poset exceeds cap")
    masks = np.array(P.downset_masks(), dtype=np.int64)
    weights = np.int64(1) << np.arange(P.n, dtype=np.int64)
    index_of = np.full(1 << P.n, -1, dtype=np.int64)
    index_of[masks] = np.arange(len(masks))
    rows = (masks[:, None] & weights) != 0
    return rows, lambda sets: index_of[sets @ weights]


def wk_tables(P: Poset, tables) -> np.ndarray:
    """The weakening relations of a batch of downset-lattice endomaps, shape
    (m, n, n): entry [i, y, x] says y lies in f_i(down x)."""
    rows, index = _downsets(P)
    principal = index(P.leq.T)  # row x of leq.T is down x
    return rows[np.asarray(tables)[:, principal]].transpose(0, 2, 1)


def supmap_tables(P: Poset, rels) -> np.ndarray:
    """The downset-lattice endomaps of a batch of weakening relations, shape
    (m, |D|): each downset goes to the union of the related columns of its
    members."""
    rows, index = _downsets(P)
    images = rows @ np.asarray(rels, dtype=bool).transpose(0, 2, 1)  # [i, downset, y]
    return index(images).astype(np.int16)


def wk_from_supmap(P: Poset, f: LatticeMap, D: Lattice | None = None) -> WeakeningRelation:
    """The relation (y, x) whenever y lies in the image of the principal
    downset of x.  D, when given, is the already built downset lattice of P."""
    D = downset_lattice(P) if D is None else D
    if not f.source.same_structure(D) or not f.target.same_structure(D):
        raise MapError("map is not an endomap of the downset lattice of the poset")
    return WeakeningRelation(P, np.argwhere(wk_tables(P, [f.table])[0]))


def supmap_from_wk(R: WeakeningRelation, D: Lattice | None = None) -> LatticeMap:
    """The join-preserving downset endomap sending D to the relational image
    of D.  D, when given, is the already built downset lattice of R's poset."""
    D = downset_lattice(R.poset) if D is None else D
    return LatticeMap(D, D, supmap_tables(R.poset, R.matrix[None])[0])


def wk_compose(R: WeakeningRelation, S: WeakeningRelation) -> WeakeningRelation:
    """Relational composition: y (R;S) x when some z has y R z and z S x."""
    if not R.poset.same_structure(S.poset):
        raise ValueError("weakening relations live on different posets")
    return WeakeningRelation(R.poset, np.argwhere(R.matrix @ S.matrix))


def wk_from_automorphism(P: Poset, g) -> WeakeningRelation:
    """The relation (y, x) whenever x is not below the automorphic image of y."""
    g = _automorphism(P, g)
    return WeakeningRelation(P, np.argwhere(~P.leq[:, g].T))  # [y, x]: not x <= g(y)


def downset_automorphism(P: Poset, g) -> LatticeMap:
    """The downset-lattice automorphism induced by forward images under g,
    which is the map of the relation y <= g(x)."""
    g = _automorphism(P, g)
    D = downset_lattice(P)
    return LatticeMap(D, D, supmap_tables(P, P.leq[:, g][None])[0])


# -- natural two-parameter families -------------------------------------------------------


@dataclass(frozen=True)
class NaturalFamily:
    label: str                # "trivial" | "raney" | "other"
    table: np.ndarray         # (n, n) array: [y, x] -> homset index of psi(y, x)
    seed_count: int           # seeds inducing this family

    def __eq__(self, other):
        return (
            isinstance(other, NaturalFamily)
            and self.label == other.label
            and (self.table == other.table).all()
        )


@dataclass(frozen=True)
class NaturalClassification:
    natural: tuple[NaturalFamily, ...]
    candidate_family_count: int

    @property
    def count(self) -> int:
        return len(self.natural)


def classify_natural(H: EndoHomset) -> NaturalClassification:
    """Seed every member f0, form psi(y, x) = c_y o f0 o a_x, and keep the
    distinct families satisfying both naturality equations against every
    member of the homset.  c_y, a_x and the seeds are members, so every
    composite is found by its J-key: the rows f0 o a_x, then c_y o r once per
    distinct row r.  Families keep the order of their first seed.  The
    result is not cached on the homset."""
    L = H.lattice
    n = L.n
    vs = np.arange(n)
    c_idx = H.index_rows(e_tables(L, L, vs, L.bottom))  # c_y = e(y, bottom)
    a_idx = H.index_rows(e_tables(L, L, L.top, vs))     # a_x = e(top, x)
    seeded = H.compose_indices(np.arange(H.m), a_idx)   # [seed, x] = f0 o a_x
    rows, _, row_of, _ = _row_groups(seeded)
    comp = H.compose_indices(c_idx, rows.ravel()).reshape(n, len(rows), n)  # [y, row, x]
    distinct, _, fam_of, _ = _row_groups(comp.transpose(1, 0, 2).reshape(len(rows), n * n))
    _, first, _, seeds = _row_groups(fam_of[row_of][:, None])  # every family has a seed
    e_table = H.compose_indices(c_idx, a_idx)

    natural = []
    for k in np.argsort(first):
        fam = distinct[k].reshape(n, n)
        if not _family_is_natural(H, fam):
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


def _family_is_natural(H: EndoHomset, fam: np.ndarray) -> bool:
    """psi(f(y), x) = f o psi(y, x) and psi(y, adj(g)(x)) = psi(y, x) o g for
    all members f, g, with every composite of members found by its J-key."""
    left = H.compose_indices(np.arange(H.m), fam.ravel()).reshape(H.m, *fam.shape)  # [f, y, x]
    if not (left == fam[H.tables]).all():
        return False
    right = H.compose_indices(fam.ravel()).reshape(*fam.shape, H.m)  # [y, x, g]
    return bool((right == fam[:, H.rho_tables.T]).all())


# -- abstract two-valued families ------------------------------------------------------------


def family_map_after_a(f_by_y, g: LatticeMap):
    """psi(y, x) = f(y) o a_{g(x)} for join-preserving f into the homset and a
    meet-preserving endomap g."""
    maps = list(f_by_y)
    L = g.source
    if len(maps) != L.n:
        raise MapError("family needs one homset member per lattice element")
    if not is_inf_preserving(g):
        raise MapError("second component must be meet-preserving")
    for y1 in range(L.n):
        for y2 in range(L.n):
            j = int(L.join[y1, y2])
            if pointwise_join(maps[y1], maps[y2]) != maps[j]:
                raise MapError(f"first component does not preserve joins at ({y1}, {y2})")
    if maps[L.bottom].table != (L.bottom,) * L.n:
        raise MapError("first component must send bottom to the bottom map")

    def psi(y: int, x: int) -> LatticeMap:
        return maps[y].compose(a_map(L, L, int(g.table[x])))

    return psi


def family_c_after_map(f: LatticeMap, g_by_x):
    """psi(y, x) = c_{f(y)} o g(x) for a join-preserving endomap f and a
    meet-to-join family g out of the order dual."""
    L = f.source
    maps = list(g_by_x)
    if len(maps) != L.n:
        raise MapError("family needs one homset member per lattice element")
    if not is_sup_preserving(f):
        raise MapError("first component must be join-preserving")
    for x1 in range(L.n):
        for x2 in range(L.n):
            m = int(L.meet[x1, x2])
            if pointwise_join(maps[x1], maps[x2]) != maps[m]:
                raise MapError(f"second component does not turn meets into joins at ({x1}, {x2})")
    if maps[L.top].table != (L.bottom,) * L.n:
        raise MapError("second component must send top to the bottom map")

    def psi(y: int, x: int) -> LatticeMap:
        return c_map(L, L, int(f.table[y])).compose(maps[x])

    return psi


def e_family(L: Lattice):
    """The canonical family psi(y, x) = c_y o a_x."""
    return family_map_after_a([c_map(L, L, y) for y in range(L.n)], identity_map(L))


@dataclass(frozen=True)
class AbstractRaneyVerdict:
    chain_image: bool
    identity_in_image: bool
    completely_distributive: bool

    @property
    def implication_holds(self) -> bool:
        return self.completely_distributive or not (self.chain_image and self.identity_in_image)


def abstract_raney_check(H: EndoHomset, family=None) -> AbstractRaneyVerdict:
    """Check the finite-chain-image hypothesis for a two-parameter family and
    whether the identity arises as an extension over some meet-preserving map.
    The canonical family c_y o a_x is e(y, x); the meet-preserving maps are
    the right adjoints of the members."""
    L = H.lattice
    vs = np.arange(L.n)
    T = (e_tables(L, L, vs[:, None], vs[None]) if family is None  # [y, x, t]
         else np.array([[family(y, x).table for x in vs] for y in vs], dtype=np.int16))
    comparable = L.leq | L.leq.T
    chain = bool(comparable[T[..., :, None], T[..., None, :]].all())
    # the extension of psi along each inf map G: the join over x of psi(G(x), x)
    ext = join_fold(L, T[H.rho_tables.T, vs[:, None]])  # folds [x, G, t] over x
    found = bool((ext == np.arange(L.n)).all(axis=1).any())
    return AbstractRaneyVerdict(
        chain_image=chain,
        identity_in_image=found,
        completely_distributive=is_completely_distributive(L),
    )
