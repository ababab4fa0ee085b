"""The quantale of sup-preserving endomaps of a finite lattice.

The multiplication is composition, the join is pointwise, and the meet is
the sup-interior of the pointwise meet.  An EndoHomset holds every member
as one row of an int16 table so residuals, transforms and the searches for
cyclic and dualizing elements run as batched numpy passes.
"""
from __future__ import annotations

import weakref

import numpy as np

from supq.lattice import (
    CapExceeded,
    Lattice,
    LatticeError,
    NotAutomorphism,
    _automorphism,
    _freeze,
    cached,
    join_irreducibles,
)
from supq.maps import (
    LatticeMap,
    MapError,
    _as_rows,
    _interior_steps,
    a_map,
    c_map,
    e_map,
    e_tables,
    join_fold,
    left_adjoint_tables,
    pointwise_join,
    pointwise_meet,
    right_adjoint,
    right_adjoint_tables,
    sup_interior,
    sup_interior_tables,
    table_take,
    tensor_over,
)

DEFAULT_HOMSET_CAP = 100_000  # members of an enumerated homset
MATRIX_CAP = 4096  # members for raney-adjunction, tight-subset, the tight unit and the autodual search's
                   # order; the first two do no m^2 work, and keep the cap only to keep their verdicts
TABLE_SCAN_CAP = 2000  # members of a homset for the table scans and the autodual irreducible scan
SLOT_CAP = 8**6  # slots n^|J| of the dense member table (mk 6, the largest timed); larger key spaces are searched


class NotDualizing(LatticeError):
    """The element is not dualizing, so no automorphism corresponds to it."""


class NotCompletelyDistributive(LatticeError):
    """The construction needs a completely distributive lattice."""


# -- transforms on raw tables --------------------------------------------------


def raney_down_tables(L: Lattice, tables: np.ndarray) -> np.ndarray:
    """Rowwise transform g -> (x -> join of g(t) over t not above x), each
    join folded by `join_fold` over those columns t of g."""
    g = np.ascontiguousarray(_as_rows(tables).T)  # [t, row]
    out = np.stack([join_fold(L, g[~L.leq[x]]) for x in range(L.n)])
    return np.ascontiguousarray(out.T, dtype=np.int16)


def raney_up_tables(L: Lattice, tables: np.ndarray) -> np.ndarray:
    """Rowwise transform f -> (x -> meet of f(t) over t not below x)."""
    return raney_down_tables(L.op, tables)


def _endo(f: LatticeMap) -> Lattice:
    if not f.source.same_structure(f.target):
        raise MapError("operation needs an endomap")
    return f.source


def raney_down(g: LatticeMap) -> LatticeMap:
    """x -> join of g(t) over t not above x; join-preserving for any g."""
    L = _endo(g)
    return LatticeMap(L, L, raney_down_tables(L, g.as_array())[0])


def raney_up(f: LatticeMap) -> LatticeMap:
    """x -> meet of f(t) over t not below x; meet-preserving for any f."""
    L = _endo(f)
    return LatticeMap(L, L, raney_up_tables(L, f.as_array())[0])


def tight_interior(f: LatticeMap) -> LatticeMap:
    return raney_down(raney_up(f))


def is_tight(f: LatticeMap) -> bool:
    """A map is tight when the down-transform of its up-transform returns it."""
    return tight_interior(f) == f


def star(f: LatticeMap) -> LatticeMap:
    """Left adjoint of the up-transform; equals the down-transform of the
    right adjoint."""
    return raney_down(right_adjoint(f))


@cached("cd")
def is_completely_distributive(L: Lattice) -> bool:
    """Holds exactly when the identity map is tight, down(up(id)) = id, on
    one row, computed once per lattice; cd-raney compares it with the tight
    mask of the homset."""
    ident = np.arange(L.n, dtype=np.int16)
    return bool((raney_down_tables(L, raney_up_tables(L, ident)) == ident).all())


# -- the quantale operations ----------------------------------------------------


def q_join(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    return pointwise_join(f, g)


def q_meet(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    """Meet in the quantale: sup-interior of the pointwise meet."""
    return sup_interior(pointwise_meet(f, g))


def right_residual(h: LatticeMap, f: LatticeMap) -> LatticeMap:
    """Largest g with g o f <= h: the quantale meet of h(x) tensor f(x)."""
    L = _endo(h)
    return LatticeMap(L, L, rdiv_tables(L, h.as_array(), f.as_array())[0])


def left_residual(g: LatticeMap, h: LatticeMap) -> LatticeMap:
    """Largest f with g o f <= h: sup-interior of (right adjoint of g) o h."""
    L = _endo(h)
    return LatticeMap(L, L, ldiv_tables(L, right_adjoint(g).as_array(), h.as_array())[0])


# -- pointwise characterizations --------------------------------------------------


def relation_dual_profile(f: LatticeMap, y: int, x: int) -> tuple[bool, ...]:
    """Six equivalent readings of "y is below the up-transform of f at x"."""
    L = _endo(f)
    up_f = raney_up(f)
    st = star(f)
    c1 = all(L.leq[t, x] or L.leq[y, f.table[t]] for t in range(L.n))
    c2 = e_map(L, L, y, x).leq(f)
    c3 = all(
        L.leq[v, up_f.table[t]]
        for t, v in enumerate(
            [L.top if t == L.top else (y if L.leq[x, t] else L.bottom) for t in range(L.n)]
        )
    )
    c4 = bool(L.leq[y, up_f.table[x]])
    c5 = bool(L.leq[st.table[y], x])
    c6 = st.leq(tensor_over(L, L, x, y))
    return (c1, c2, c3, c4, c5, c6)


def adjunction_formulas(f: LatticeMap) -> dict[str, bool]:
    """Closed-form order comparisons against the one-step generator maps."""
    L = _endo(f)
    up_f = raney_up(f)
    st = star(f)
    rho = right_adjoint(f)
    out = {
        "c_below_f": all(
            c_map(L, L, y).leq(f) == bool(L.leq[y, up_f.table[L.bottom]]) for y in range(L.n)
        ),
        "f_below_c": all(
            f.leq(c_map(L, L, y)) == bool(L.leq[f.table[L.top], y]) for y in range(L.n)
        ),
        "a_below_f": all(
            a_map(L, L, x).leq(f) == bool(L.leq[st.table[L.top], x]) for x in range(L.n)
        ),
        "f_below_a": all(
            f.leq(a_map(L, L, x)) == bool(L.leq[x, rho.table[L.bottom]]) for x in range(L.n)
        ),
    }
    return out


def division_formulas(f: LatticeMap, y: int, x: int) -> dict[str, LatticeMap]:
    """Closed forms for residuals of f by generator maps.

    Each closed form is checked against the generic residual and a mismatch
    raises AssertionError.
    """
    L = _endo(f)
    up_f = raney_up(f)
    st = star(f)
    bot, top = L.bottom, L.top
    e = e_map(L, L, y, x)
    t = tensor_over(L, L, y, x)
    closed = {
        "f_over_a": c_map(L, L, up_f.table[x]),
        "c_under_f": a_map(L, L, st.table[y]),
        "f_over_c": tensor_over(L, L, up_f.table[bot], y),
        "a_under_f": tensor_over(L, L, x, st.table[top]),
        "f_over_e": tensor_over(L, L, up_f.table[x], y),
        "e_under_f": tensor_over(L, L, x, st.table[y]),
        "f_over_tensor": q_meet(
            c_map(L, L, up_f.table[x]), tensor_over(L, L, up_f.table[bot], y)
        ),
        "tensor_under_f": q_meet(
            a_map(L, L, st.table[y]), tensor_over(L, L, x, st.table[top])
        ),
    }
    generic = {
        "f_over_a": right_residual(f, a_map(L, L, x)),
        "c_under_f": left_residual(c_map(L, L, y), f),
        "f_over_c": right_residual(f, c_map(L, L, y)),
        "a_under_f": left_residual(a_map(L, L, x), f),
        "f_over_e": right_residual(f, e),
        "e_under_f": left_residual(e, f),
        "f_over_tensor": right_residual(f, t),
        "tensor_under_f": left_residual(t, f),
    }
    for name, lhs in closed.items():
        if lhs != generic[name]:
            raise AssertionError(f"division formula {name} failed at (y={y}, x={x})")
    if up_f.table[bot] == bot:
        reduced = c_map(L, L, up_f.table[x]).compose(a_map(L, L, y))
        if reduced != generic["f_over_tensor"]:
            raise AssertionError(f"reduced tensor division failed at (y={y}, x={x})")
    if st.table[top] == top:
        reduced = c_map(L, L, x).compose(a_map(L, L, st.table[y]))
        if reduced != generic["tensor_under_f"]:
            raise AssertionError(f"reduced tensor co-division failed at (y={y}, x={x})")
    return closed


# -- batched residuals ----------------------------------------------------------------


def tensor_meet_tables(L: Lattice, h_tabs: np.ndarray, f_tabs: np.ndarray) -> np.ndarray:
    """Rowwise pointwise meet over x of the tensors h(x) over f(x): the map
    k with k(bottom) = bottom and k(t) = meet of {h(x) : t <= f(x)}.  A
    one-row side broadcasts against the other.

    Runs element-major, like sup_interior_tables: one scatter per x sets
    M[v] to the meet of {h(x) : f(x) = v}, then the cover edges from the top
    down give each M[t] the meet over every v >= t."""
    h, f = _as_rows(h_tabs).T, _as_rows(f_tabs).T  # [x, row], one row or all
    n = L.n
    rows = max(h.shape[1], f.shape[1])
    M = np.full((n, rows), L.top, dtype=np.int16)  # [v, row]
    flat, cols = M.reshape(-1), np.arange(rows)
    for x in range(n):
        at = f[x].astype(np.intp) * rows + cols
        flat[at] = table_take(L.meet, flat.take(at), h[x])
    for t, p in _interior_steps(L)[0]:
        M[t] = table_take(L.meet, M[t], M[p])
    M[L.bottom] = L.bottom
    return np.ascontiguousarray(M.T, dtype=np.int16)


def rdiv_tables(L: Lattice, h_tabs: np.ndarray, f_tabs: np.ndarray) -> np.ndarray:
    """Rowwise h / f, the largest g with g o f <= h: the sup-interior of the
    meet of tensors.  A one-row side broadcasts against the other."""
    return sup_interior_tables(L, L, tensor_meet_tables(L, h_tabs, f_tabs))


def ldiv_tables(L: Lattice, rho_tabs: np.ndarray, h_tabs: np.ndarray) -> np.ndarray:
    """Rowwise g \\ h, the largest f with g o f <= h, given the right adjoint
    rows of the divisors g: the sup-interior of rho_g o h.  A one-row side
    broadcasts against the other."""
    rho, h = _as_rows(rho_tabs), _as_rows(h_tabs)
    # C[x, row] = rho_row(h_row(x)): gathered element-major, so the kernel's
    # transpose of C.T is C itself and its input step one contiguous copy
    C = rho[np.arange(len(rho)), np.ascontiguousarray(h.T)]
    return sup_interior_tables(L, L, C.T)


# -- homset enumeration ------------------------------------------------------------


def assignments_on_J(L: Lattice, order: list[int], joins: bool = True, work_cap: int | None = None):
    """Every assignment of values to the join-irreducibles `order`, one column
    each, with f(c) <= f(a) v f(b) for c <= a v b; with joins off, only the
    triples a = b, monotonicity on J.  One column at a time, dropping a
    partial row once it breaks a triple; the rows come out in lexicographic
    order.  Past `work_cap` candidate rows, CapExceeded."""
    part = np.zeros((1, 0), dtype=np.int16)
    span = np.arange(L.n)[None]
    for k in range(len(order)):
        # at[p] = f(order[p]) on each partial row, and the new f(order[k])
        # spans L: test the triples that involve k
        at = [part[:, p, None] for p in range(k)] + [span]
        allowed = np.ones((len(part), L.n), dtype=bool)
        triples = [(a, k, c) for a in range(k + 1) for c in range(k) if joins or a == k]
        triples += [(a, b, k) for a in range(k) for b in range(a, k) if joins or a == b]
        for a, b, c in triples:
            ja, jb, jc = order[a], order[b], order[c]
            if L.leq[jc, L.join[ja, jb]] and (a == b or not (L.leq[jc, ja] or L.leq[jc, jb])):
                allowed &= L.leq[at[c], L.join[at[a], at[b]]]
        rows, vals = np.nonzero(allowed)
        if work_cap is not None and len(rows) > work_cap:
            raise CapExceeded(f"homset enumeration grew past {work_cap} candidate assignments", 0)
        part = np.concatenate([part[rows], vals[:, None].astype(np.int16)], axis=1)
    return part


def extend_from_J(L: Lattice, J, vals: np.ndarray) -> np.ndarray:
    """The least monotone maps with the values vals[k] at J[k], element-major:
    [x, row] is the join of vals[k, row] over the k with J[k] <= x.  Values
    monotone on J are kept there; a join-preserving map extends its own."""
    below = L.leq[np.asarray(J, dtype=np.intp)]  # [k, x] = J[k] <= x
    return np.stack([join_fold(L, vals[below[:, x]]) for x in range(L.n)])


def enumerate_homset(L: Lattice, cap: int = DEFAULT_HOMSET_CAP) -> "EndoHomset":
    """All join-preserving endomaps of L, capped at `cap` members: their values
    on J from `assignments_on_J`, in the order of the down-sets, extended by
    `extend_from_J`, then the full join check.  The assignments are monotone
    on J, so no two extend to the same row: the rows are sorted
    lexicographically, the order of np.unique(axis=0), and a repeated row
    raises ValueError.  Past max(1000000, 16 * cap) candidate assignments,
    CapExceeded."""
    order = sorted(join_irreducibles(L), key=lambda j: int(L.leq[:, j].sum()))
    part = assignments_on_J(L, order, work_cap=max(1_000_000, 16 * cap))
    pair_items = [(x, pairs) for x, pairs in L.incomparable_join_pairs.items() if pairs]
    chunks = []
    total = 0
    for start in range(0, len(part), 1 << 16):
        ext = extend_from_J(L, order, np.ascontiguousarray(part[start : start + (1 << 16)].T))
        ok = np.ones(ext.shape[1], dtype=bool)
        for x, pairs in pair_items:
            for a, b in pairs:
                ok &= ext[x] == join_fold(L, ext[[a, b]])
        chunks.append(ext.T[ok].astype(np.int16, copy=False))
        total += len(chunks[-1])
        if total > 4 * cap:
            raise CapExceeded(f"homset has more than {cap} maps", total)
    tables, _, _, counts = _row_groups(np.concatenate(chunks))
    if (counts > 1).any():
        raise ValueError(f"two assignments on J extend to the row {tables[np.argmax(counts > 1)].tolist()}")
    if len(tables) > cap:
        raise CapExceeded(f"homset has more than {cap} maps", len(tables))
    return EndoHomset(L, tables)


def enumerate_inf_maps(L: Lattice, cap: int = DEFAULT_HOMSET_CAP) -> np.ndarray:
    """Tables of all meet-preserving endomaps (the homset of L.op)."""
    return enumerate_homset(L.op, cap).tables


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.unique(rows, axis=0) with return_index, return_inverse and return_counts, read off
    adjacent rows of one np.lexsort (stable, first column most significant)."""
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    new = np.r_[True, (s[1:] != s[:-1]).any(axis=1)]
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return s[new], order[new], group, np.diff(np.flatnonzero(np.r_[new, True]))


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by a sort: on integer keys np.unique hashes, several times slower."""
    a = np.sort(a, axis=None)
    return a[np.r_[True, a[1:] != a[:-1]]] if a.size else a


def _checked(idx: np.ndarray, hit: np.ndarray, strict: bool) -> np.ndarray:
    """idx where hit holds; elsewhere KeyError when strict, else -1."""
    if strict:
        if not hit.all():
            raise KeyError("row is not a join-preserving member of the homset")
        return idx
    return np.where(hit, idx, -1)


class EndoHomset:
    """The table of every join-preserving endomap of a lattice, lex-sorted as
    `enumerate_homset` builds it.  Derived tables and search results are
    computed once into `_cache` by `lattice.cached`: the lookup under "keys",
    the composite weights under "comp_w", the
    distinguished members under "id_idx", "bot_idx" and "top_idx", the
    transforms under "rho", "up_t", "tight_t", "tight_mask" and "star_idx",
    the opposite homset under "op", the sup-interior memo under "interior",
    `find_cyclic` under "cyclic", `find_dualizing` under "dualizing",
    `tight_has_unit` under "tight_unit" and `homset_irreducibles` under
    "irreducibles".

    Member lookup.  A join-preserving f is fixed by its values on the
    join-irreducibles J = (j_0, j_1, ...), since f(x) is the join of f(j)
    over the j <= x.  So every member is found by its J-key, the sum of
    n^k * f(j_k).  Building the keys checks once that every member is
    join-preserving and that no two share their J-key (ValueError
    otherwise); composites of members are join-preserving, so
    `compose_indices` needs only their J-keys: g o f has the product
    tables[g] @ W[:, f].
    `index_rows` takes any rows, join-preserving or not, so it also
    compares the rest of the row with the member its key finds.  While
    n^|J| <= SLOT_CAP (boolean 4 with 16^4 keys, mk 6 with 8^6, the cap) a
    key is looked up in a dense array of n^|J| slots that hold the member
    index or -1, and W is float64 so the product runs in BLAS, exact as
    every key is below 2^53.  Above the cap (the 8-chain has 8^7 keys, mk 7
    9^7, the 9-chain 9^8 for 12,870 maps) the keys are kept sorted and
    binary-searched, and W is int64, exact while n^|J| < 2^63; a larger
    key space raises CapExceeded."""

    def __init__(self, L: Lattice, tables: np.ndarray):
        self.lattice = L
        self.tables = _freeze(np.array(tables, dtype=np.int16))
        self.m = len(tables)
        self._cache: dict = {}

    # -- lookup ---------------------------------------------------------

    @cached("keys")
    def _keys(self):
        """(J, radix, slot, (sorted keys, order)): the join-irreducibles, the
        radix n^k of column J[k], the slot table of the J-keys while
        n^|J| <= SLOT_CAP (None above it) and the members' J-keys in
        increasing order with the member of each, once every member is seen
        to preserve the empty and binary joins and no two share their
        J-values."""
        L, t = self.lattice, self.tables
        J = np.array(join_irreducibles(L), dtype=np.intp)
        size = L.n ** len(J)
        if size >= 2**63:
            raise CapExceeded(f"J-key space of {size} keys exceeds the int64 range", size)
        ok = t[:, L.bottom] == L.bottom
        for a in range(L.n - 1):
            ok &= (t[:, L.join[a, a + 1:]] == table_take(L.join, t[:, [a]], t[:, a + 1:])).all(axis=1)
        if not ok.all():
            raise ValueError(f"member {int(np.argmin(ok))} is not join-preserving")
        radix = np.int64(L.n) ** np.arange(len(J), dtype=np.int64)
        keys = t[:, J].astype(np.int64) @ radix
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        clash = np.flatnonzero(keys[1:] == keys[:-1])
        if clash.size:
            p = int(clash[0])
            raise ValueError(f"members {order[p]} and {order[p + 1]} agree on the join-irreducibles")
        slot = None
        if size <= SLOT_CAP:
            slot = np.full(size, -1, dtype=np.intp)
            slot[keys] = order
        return J, radix, slot, (keys, order)

    def index_rows(self, rows: np.ndarray, strict: bool = True) -> np.ndarray:
        """Index of each row, a table of values of the lattice, in the homset
        table; -1 for absent rows when strict is off."""
        rows = _as_rows(rows)
        # the key fixes the J-values of a row of lattice values, so the one
        # member with them, if any, is the row when the whole row agrees; a
        # key that no member has gives -1, whose row tables[-1] differs
        idx = self._index_keys(self._j_keys(rows), strict=False)
        return _checked(idx, (self.tables[idx] == rows).all(axis=1), strict)

    def _j_keys(self, rows: np.ndarray) -> np.ndarray:
        """The J-key of each row of lattice values, for rows of shape (..., n)."""
        J, radix, _, _ = self._keys()
        return rows[..., J].astype(np.int64) @ radix

    def _index_keys(self, q: np.ndarray, strict: bool = True) -> np.ndarray:
        """Index of the member with each J-key in q, an array of any shape,
        where q holds the keys of join-preserving maps."""
        _, _, slot, (keys, order) = self._keys()
        if slot is not None:
            idx = slot[q]
            return _checked(idx, idx >= 0, strict)
        pos = np.minimum(np.searchsorted(keys, q), self.m - 1)
        return _checked(order[pos], keys[pos] == q, strict)

    @cached("comp_w")
    def _composite_weights(self) -> np.ndarray:
        """W[v, f] = sum of radix[k] over the k with f(J[k]) = v, so that
        the key of g o f, the sum of radix[k] * g(f(J[k])), is
        tables[g] @ W[:, f].  float64 on the slot table, which runs the
        product in BLAS, exact as its keys lie below 2^53; int64 above it,
        exact as the keys lie below n^|J| < 2^63."""
        J, radix, slot, _ = self._keys()
        W = np.zeros((self.lattice.n, self.m), dtype=np.int64 if slot is None else np.float64)
        members = np.arange(self.m)
        for k, x in enumerate(J):
            W[self.tables[:, x], members] += radix[k]
        return _freeze(W)

    def compose_indices(self, gs, fs=None) -> np.ndarray:
        """Index of g o f for every member g in gs and f in fs, shape
        (len(gs), len(fs)); fs None stands for every member, in order, and
        reads W itself rather than a copy of its columns.  A composite that
        is not a member raises KeyError, as in index_rows."""
        W = self._composite_weights()
        w = W if fs is None else W[:, np.atleast_1d(fs)]
        q = self.tables[np.atleast_1d(gs)].astype(W.dtype) @ w
        return self._index_keys(q.astype(np.int64, copy=False))

    def index_of(self, f: LatticeMap) -> int:
        return int(self.index_rows(f.as_array())[0])

    def map_at(self, i: int) -> LatticeMap:
        return LatticeMap(self.lattice, self.lattice, self.tables[i])

    # -- distinguished members -------------------------------------------

    @property
    @cached("id_idx")
    def identity_index(self) -> int:
        return int(self.index_rows(np.arange(self.lattice.n, dtype=np.int16))[0])

    @property
    @cached("bot_idx")
    def bottom_index(self) -> int:
        L = self.lattice
        return int(self.index_rows(np.full(L.n, L.bottom, dtype=np.int16))[0])

    @property
    @cached("top_idx")
    def top_index(self) -> int:
        """The greatest member, c_top = e(top, bottom)."""
        L = self.lattice
        return int(self.index_rows(e_tables(L, L, L.top, L.bottom))[0])

    # -- cached batch transforms ------------------------------------------

    @property
    @cached("rho")
    def rho_tables(self) -> np.ndarray:
        return right_adjoint_tables(self.lattice, self.lattice, self.tables)

    @property
    @cached("up_t")
    def up_transform_tables(self) -> np.ndarray:
        return raney_up_tables(self.lattice, self.tables)

    @property
    @cached("tight_t")
    def tight_interior_tables(self) -> np.ndarray:
        return raney_down_tables(self.lattice, self.up_transform_tables)

    @property
    @cached("tight_mask")
    def tight_mask(self) -> np.ndarray:
        return _freeze((self.tight_interior_tables == self.tables).all(axis=1))

    def tight_indices(self) -> np.ndarray:
        return np.flatnonzero(self.tight_mask)

    @property
    @cached("star_idx")
    def star_indices(self) -> np.ndarray:
        """Index of the star of each member (down-transform of its adjoint)."""
        return _freeze(self.index_rows(raney_down_tables(self.lattice, self.rho_tables)))

    # -- residuals by index -------------------------------------------------------

    @property
    def op(self) -> "EndoHomset":
        """The homset of L.op whose member i is rho of member i: a right
        adjoint preserves meets, the joins of L.op.  g o f <= h exactly when
        rho_f o rho_g >= rho_h, so rho(h / f) = rho_f \\ rho_h there, and h / f
        is its left residual, index for index.  Its right adjoints are the
        left adjoints of the rho, the members themselves, and its opposite is
        this homset, as L.op.op is L.  That link is weak: a cycle would keep
        both homsets and their memos alive until the cyclic collector runs."""
        got = self._cache.get("op")
        H = got() if isinstance(got, weakref.ref) else got
        if H is None:
            H = EndoHomset(self.lattice.op, self.rho_tables)
            H._cache["rho"], H._cache["op"] = self.tables, weakref.ref(self)
            self._cache["op"] = H
        return H

    @cached("interior")
    def _interior_memo(self) -> np.ndarray:
        """memo[q] = index of the sup-interior of the monotone maps with
        J-key q, or -1 until it is first asked for; on the slot table only."""
        return np.full(self.lattice.n ** len(self._keys()[0]), -1, dtype=np.int32)

    def _key_rows(self, keys: np.ndarray) -> np.ndarray:
        """The least monotone map with the values of each J-key on J: it
        agrees on J with every monotone row of that key."""
        L = self.lattice
        J, radix, _, _ = self._keys()
        vals = keys // radix[:, None] % L.n  # [k, row] = the value at J[k]
        return np.ascontiguousarray(extend_from_J(L, J, vals).T, dtype=np.int16)

    def _interior_keys(self, q: np.ndarray) -> np.ndarray:
        """Index of the sup-interior of the monotone maps with each J-key in
        q, an array of any shape: on the slot table through the memo, once
        per key and homset, and above it once per distinct key and call.  A
        member lies below a monotone k exactly when it does on J, as f(x) is
        the join of f(j) over the j <= x, so int(k), the join of the members
        below k, depends only on the J-key of k."""
        L = self.lattice
        if self._keys()[2] is not None:
            memo = self._interior_memo()
            idx = memo[q]
            new = _distinct(q[idx < 0])
            if new.size:
                memo[new] = self.index_rows(sup_interior_tables(L, L, self._key_rows(new)))
                idx = memo[q]
            return idx
        new, inv = np.unique(q, return_inverse=True)
        got = self.index_rows(sup_interior_tables(L, L, self._key_rows(new)))
        return got[inv.reshape(-1)].reshape(q.shape)

    def ldiv_index(self, gs, hs, outer: bool = True) -> np.ndarray:
        """Index of g \\ h, the sup-interior of rho_g o h, for every member g
        in gs and h in hs, shape (len(gs), len(hs)); with outer off, for each
        pair (gs[k], hs[k]).  rho_g o h is monotone, and its key is that of
        the composite in compose_indices, rho_tables[g] @ W[:, h]."""
        gs, hs = np.atleast_1d(gs), np.atleast_1d(hs)
        W = self._composite_weights()
        r, w = self.rho_tables[gs].astype(W.dtype), W[:, hs]
        q = r @ w if outer else np.einsum("kv,vk->k", r, w)
        return self._interior_keys(q.astype(np.int64, copy=False))

    def ldiv_indices(self, i) -> np.ndarray:
        """Index of g\\h for every divisor g: one row for h = member i, or
        shape (len(i), m) for an array i of members."""
        idx = self.ldiv_index(np.arange(self.m), i).T
        return idx if np.ndim(i) else idx[0]

    def rdiv_indices(self, i) -> np.ndarray:
        """Index of h/g for every divisor g: one row for h = member i, or
        shape (len(i), m) for an array i of members."""
        idx = self.op.ldiv_index(np.arange(self.m), i).T
        return idx if np.ndim(i) else idx[0]


# -- cyclic and dualizing elements ---------------------------------------------------


def is_cyclic(H: EndoHomset, i: int) -> bool:
    """Both residuals by every divisor agree."""
    return bool((H.ldiv_indices(i) == H.rdiv_indices(i)).all())


def is_dualizing(H: EndoHomset, i: int) -> bool:
    """Dividing into the element twice recovers every divisor."""
    ld = H.ldiv_indices(i)
    rd = H.rdiv_indices(i)
    idx = np.arange(H.m)
    return bool((rd[ld] == idx).all() and (ld[rd] == idx).all())


def _generator_indices(H: EndoHomset) -> list[int]:
    """The distinct members c_v = e(v, bottom) and a_v = e(top, v), sorted."""
    L = H.lattice
    vs = np.arange(L.n)
    gens = np.concatenate([e_tables(L, L, vs, L.bottom), e_tables(L, L, L.top, vs)])
    return [int(i) for i in _distinct(H.index_rows(gens))]


@cached("cyclic")
def find_cyclic(H: EndoHomset) -> list[int]:
    """All cyclic members, by generator prefilter plus a full confirming scan;
    h / g is the left residual g \\ h of the opposite homset."""
    alive = np.arange(H.m)
    for gi in _generator_indices(H):
        alive = alive[H.op.ldiv_index(gi, alive)[0] == H.ldiv_index(gi, alive)[0]]
        if not alive.size:
            return []
    return [int(i) for i in alive if is_cyclic(H, int(i))]


@cached("dualizing")
def find_dualizing(H: EndoHomset) -> list[int]:
    """All dualizing members, by generator prefilter plus a confirming scan."""
    alive = np.arange(H.m)
    for gi in _generator_indices(H):
        # h / (g \ h) must be g again
        alive = alive[H.op.ldiv_index(H.ldiv_index(gi, alive)[0], alive, outer=False) == gi]
        if not alive.size:
            return []
        # (h / g) \ h must be g again
        alive = alive[H.ldiv_index(H.op.ldiv_index(gi, alive)[0], alive, outer=False) == gi]
        if not alive.size:
            return []
    return [int(i) for i in alive if is_dualizing(H, int(i))]


def is_girard(H: EndoHomset) -> bool:
    """Some member is both cyclic and dualizing."""
    dual_set = set(find_dualizing(H))
    if not dual_set:
        return False
    return any(i in dual_set for i in find_cyclic(H))


# -- the correspondence with automorphisms ---------------------------------------------


def dualizing_to_automorphism(H: EndoHomset, i: int) -> tuple[int, ...]:
    """The star of a dualizing member is a lattice automorphism."""
    if not is_dualizing(H, i):
        raise NotDualizing(f"member {i} is not dualizing")
    perm = tuple(int(v) for v in H.tables[H.star_indices[i]])
    L = H.lattice
    if sorted(perm) != list(range(L.n)):
        raise NotDualizing("star of the member is not a bijection")
    return perm


def automorphism_to_dualizing(H: EndoHomset, perm) -> int:
    """Residual of the down-transform of the identity by the automorphism.
    The identity is its own right adjoint, so its down-transform is its star."""
    L = H.lattice
    perm = _automorphism(L, perm)
    if not is_completely_distributive(L):
        raise NotCompletelyDistributive(
            "the dualizing correspondence needs a completely distributive lattice"
        )
    o = H.star_indices[H.identity_index]
    return int(H.op.ldiv_index(H.index_rows(perm)[0], o)[0, 0])  # o / perm


# -- tight members under composition ---------------------------------------------------


@cached("tight_unit")
def tight_has_unit(H: EndoHomset):
    """Index of a two-sided unit for composition among the tight members,
    or None.  A unit u has u o t = t, so it fixes every value a tight t
    takes; only the tight members that do are compared in full."""
    tight = H.tight_indices()
    sub = H.tables[tight]
    vals = _distinct(sub)
    for u in tight[(sub[:, vals] == vals).all(axis=1)]:
        tab_u = H.tables[u]
        # u o t and t o u for each tight t
        if (tab_u[sub] == sub).all() and (sub[:, tab_u] == sub).all():
            return int(u)
    return None


def conucleus_gap(H: EndoHomset):
    """First pair (i, j) with tight_interior(f_i o f_j) different from
    tight_interior(f_i) o tight_interior(f_j), or None.

    The composite of the interiors always sits below the interior of the
    composite; the gap is the failure of the opposite inclusion, which is
    what the interior would need to restrict composition."""
    t_idx = H.index_rows(H.tight_interior_tables)
    if (t_idx == np.arange(H.m)).all():
        return None
    L = H.lattice
    for i in range(H.m):
        lhs = H.compose_indices(t_idx[i], t_idx)[0]   # T(f_i) o T(f_j) for all j
        rhs = t_idx[H.compose_indices(i)[0]]          # T(f_i o f_j) for all j
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            j = int(bad[0])
            if not L.leq[H.tables[lhs[j]], H.tables[rhs[j]]].all():
                raise AssertionError("interior composite escaped the lax inclusion")
            return (i, j)
    return None
