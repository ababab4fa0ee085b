"""Monotone, sup-preserving and inf-preserving maps between finite lattices.

Maps are stored as value tables indexed by source element.  The heavy
routines also come in batched table form (one numpy row per map) so the
exhaustive verifier can process whole homsets at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from supq.lattice import Lattice, cached


class MapError(ValueError):
    """A map violates a precondition (mismatched lattices, wrong shape...)."""


class LatticeMap:
    """A function between two finite lattices, given by its value table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: Lattice, target: Lattice, table):
        table = tuple(int(t) for t in table)
        if len(table) != source.n:
            raise MapError(f"table has {len(table)} entries for a {source.n}-element source")
        if any(t < 0 or t >= target.n for t in table):
            raise MapError("table value out of range")
        self.source = source
        self.target = target
        self.table = table

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeMap)
            and self.table == other.table
            and self.source.same_structure(other.source)
            and self.target.same_structure(other.target)
        )

    def __hash__(self) -> int:
        return hash((self.source.hash_id, self.target.hash_id, self.table))

    def __repr__(self) -> str:
        return f"LatticeMap{self.table}"

    def as_array(self) -> np.ndarray:
        return np.array(self.table, dtype=np.int16)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        if not other.target.same_structure(self.source):
            raise MapError("composition needs matching middle lattice")
        return LatticeMap(other.source, self.target, tuple(self.table[t] for t in other.table))

    def leq(self, other: "LatticeMap") -> bool:
        """Pointwise order in the target lattice."""
        if not _same_homset(self, other):
            raise MapError("maps live in different homsets")
        t = self.target.leq
        return all(t[a, b] for a, b in zip(self.table, other.table))


def _same_homset(f: LatticeMap, g: LatticeMap) -> bool:
    return f.source.same_structure(g.source) and f.target.same_structure(g.target)


def monotone_witness(f: LatticeMap):
    """A pair (x, y) with x <= y but f(x) not<= f(y), or None."""
    s, t = f.source.leq, f.target.leq
    for x in range(f.source.n):
        for y in range(f.source.n):
            if s[x, y] and not t[f.table[x], f.table[y]]:
                return (x, y)
    return None


def sup_witness(f: LatticeMap):
    """Why f fails to preserve finite joins: 'bottom' or a pair (x, y)."""
    if f.table[f.source.bottom] != f.target.bottom:
        return "bottom"
    sj, tj = f.source.join, f.target.join
    for x in range(f.source.n):
        for y in range(x + 1, f.source.n):
            if f.table[sj[x, y]] != tj[f.table[x], f.table[y]]:
                return (x, y)
    return None


def inf_witness(f: LatticeMap):
    """Why f fails to preserve finite meets: 'top' or a pair (x, y)."""
    w = sup_witness(LatticeMap(f.source.op, f.target.op, f.table))
    return "top" if w == "bottom" else w


def is_monotone(f: LatticeMap) -> bool:
    return monotone_witness(f) is None


def is_sup_preserving(f: LatticeMap) -> bool:
    return sup_witness(f) is None


def is_inf_preserving(f: LatticeMap) -> bool:
    return inf_witness(f) is None


def monotone_map(source: Lattice, target: Lattice, table) -> LatticeMap:
    f = LatticeMap(source, target, table)
    w = monotone_witness(f)
    if w is not None:
        raise MapError(f"map is not monotone at pair {w}")
    return f


def sup_map(source: Lattice, target: Lattice, table) -> LatticeMap:
    f = LatticeMap(source, target, table)
    w = sup_witness(f)
    if w is not None:
        raise MapError(f"map does not preserve joins, witness {w}")
    return f


def inf_map(source: Lattice, target: Lattice, table) -> LatticeMap:
    f = LatticeMap(source, target, table)
    w = inf_witness(f)
    if w is not None:
        raise MapError(f"map does not preserve meets, witness {w}")
    return f


def identity_map(L: Lattice) -> LatticeMap:
    return LatticeMap(L, L, range(L.n))


def bottom_map(source: Lattice, target: Lattice) -> LatticeMap:
    return LatticeMap(source, target, [target.bottom] * source.n)


def top_q_map(source: Lattice, target: Lattice) -> LatticeMap:
    """Greatest sup-preserving map: bottom to bottom, everything else to top."""
    return LatticeMap(
        source, target,
        [target.bottom if x == source.bottom else target.top for x in range(source.n)],
    )


# -- generator maps ----------------------------------------------------------


def e_tables(source: Lattice, target: Lattice, ys, xs) -> np.ndarray:
    """Tables of the maps e(y, x), which send t to y when t not<= x and to
    bottom otherwise.  ys and xs broadcast against each other; the result
    has their broadcast shape plus one axis over the source."""
    ys, xs = np.broadcast_arrays(np.asarray(ys), np.asarray(xs))
    below = source.leq.T[xs]  # [..., t] = t <= x
    return np.where(below, target.bottom, ys[..., None]).astype(np.int16)


def tensor_tables(source: Lattice, target: Lattice, ys, xs) -> np.ndarray:
    """Tables of the tensors y over x, which send t to top when t not<= x,
    to y when bottom < t <= x, and bottom to bottom.  ys and xs broadcast
    as in e_tables."""
    ys, xs = np.broadcast_arrays(np.asarray(ys), np.asarray(xs))
    below = source.leq.T[xs]  # [..., t] = t <= x
    out = np.where(below, ys[..., None], target.top).astype(np.int16)
    out[..., source.bottom] = target.bottom
    return out


def e_map(source: Lattice, target: Lattice, y: int, x: int) -> LatticeMap:
    """Sends t to y when t not<= x, else to bottom."""
    return LatticeMap(source, target, e_tables(source, target, y, x))


def c_map(source: Lattice, target: Lattice, y: int) -> LatticeMap:
    """Sends bottom to bottom and every other element to y: e(y, bottom)."""
    return e_map(source, target, y, source.bottom)


def a_map(source: Lattice, target: Lattice, x: int) -> LatticeMap:
    """Sends t to top when t not<= x, else to bottom: e(top, x)."""
    return e_map(source, target, target.top, x)


def tensor_over(source: Lattice, target: Lattice, y: int, x: int) -> LatticeMap:
    """The sup-preserving map sending t to top when t not<= x, to y when
    bottom < t <= x, and to bottom at t = bottom."""
    return LatticeMap(source, target, tensor_tables(source, target, y, x))


def gamma_map(source: Lattice, target: Lattice, y: int) -> LatticeMap:
    """Inf-preserving: sends top to top and every other element to y."""
    return LatticeMap(source, target, e_tables(source.op, target.op, y, source.top))


def alpha_map(source: Lattice, target: Lattice, x: int) -> LatticeMap:
    """Inf-preserving: sends t to top when x <= t, else to bottom."""
    return LatticeMap(source, target, e_tables(source.op, target.op, target.bottom, x))


def tensor_under(source: Lattice, target: Lattice, y: int, x: int) -> LatticeMap:
    """The inf-preserving map sending top to top, t to y when x <= t < top,
    and everything else to bottom."""
    return LatticeMap(source, target, tensor_tables(source.op, target.op, y, x))


# -- pointwise lattice of maps ----------------------------------------------


def pointwise_join(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    if not _same_homset(f, g):
        raise MapError("maps live in different homsets")
    jt = f.target.join
    return LatticeMap(f.source, f.target, tuple(jt[a, b] for a, b in zip(f.table, g.table)))


def pointwise_meet(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    if not _same_homset(f, g):
        raise MapError("maps live in different homsets")
    mt = f.target.meet
    return LatticeMap(f.source, f.target, tuple(mt[a, b] for a, b in zip(f.table, g.table)))


def leq_tables(L: Lattice, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, j] holds when row A[i] <= row B[j] pointwise in L; rows are value
    tables of maps into L, or the same columns of such tables."""
    A, B = _as_rows(A), _as_rows(B)
    out = np.ones((len(A), len(B)), dtype=bool)
    for t in range(A.shape[1]):
        # whole rows of the small (n, len B) table [v, j] = v <= B[j, t]
        out &= L.leq[:, B[:, t]][A[:, t]]
    return out


# -- joins of families and adjoints -------------------------------------------


def _flat_index_dtype(n: int):
    """The dtype of element vectors whose flat index a*n + b into an n x n
    table is formed in place: int16 while n*n <= 2^15, else int32."""
    return np.int16 if n * n <= 1 << 15 else np.int32


def table_take(T: np.ndarray, a, b) -> np.ndarray:
    """T[a, b] for an n x n table T and element arrays a, b of broadcasting
    shapes, by one `take` at a*n + b in the dtype of _flat_index_dtype(n)."""
    dt = _flat_index_dtype(len(T))
    return T.ravel().take(np.asarray(a, dtype=dt) * dt(len(T)) + np.asarray(b, dtype=dt))


def join_fold(L: Lattice, vecs: np.ndarray) -> np.ndarray:
    """The join in L over the first axis of `vecs`, a stack of element
    vectors, or bottom for an empty stack: the one kernel that reads joins of
    families off L.join, one `take` on the raveled table per vector at
    a*n + b, in the dtype of _flat_index_dtype(n)."""
    n, dt = L.n, _flat_index_dtype(L.n)
    if not len(vecs):
        return np.full(vecs.shape[1:], L.bottom, dtype=dt)
    jt = L.join.ravel().astype(dt, copy=False)
    acc = vecs[0].astype(dt)
    for v in vecs[1:]:
        acc = jt.take(acc * dt(n) + v)
    return acc


def _as_rows(tables) -> np.ndarray:
    arr = np.asarray(tables, dtype=np.int16)
    return arr[None, :] if arr.ndim == 1 else arr


def right_adjoint_tables(source: Lattice, target: Lattice, tables: np.ndarray) -> np.ndarray:
    """Rowwise right adjoint of join-preserving tables from source to target:
    each row becomes the table of y -> join of {x : f(x) <= y} on target,
    folded by `join_fold` over every x, as bottom where f(x) not<= y."""
    f = np.ascontiguousarray(_as_rows(tables).T, dtype=np.intp)  # [x, row]
    xs = np.arange(source.n, dtype=np.int16)[:, None]
    out = [join_fold(source, np.where(target.leq[:, y].take(f), xs, source.bottom)) for y in range(target.n)]
    return np.ascontiguousarray(np.stack(out).T, dtype=np.int16)


def left_adjoint_tables(source: Lattice, target: Lattice, tables: np.ndarray) -> np.ndarray:
    """Rowwise left adjoint of meet-preserving tables from source to target:
    each row becomes the table of y -> meet of {x : y <= g(x)} on target."""
    return right_adjoint_tables(source.op, target.op, tables)


def right_adjoint(f: LatticeMap) -> LatticeMap:
    """For sup-preserving f, the map y -> join of {x : f(x) <= y}."""
    w = sup_witness(f)
    if w is not None:
        raise MapError(f"right adjoint needs a join-preserving map, witness {w}")
    return LatticeMap(f.target, f.source, right_adjoint_tables(f.source, f.target, f.as_array())[0])


def left_adjoint(g: LatticeMap) -> LatticeMap:
    """For inf-preserving g, the map y -> meet of {x : y <= g(x)}."""
    w = inf_witness(g)
    if w is not None:
        raise MapError(f"left adjoint needs a meet-preserving map, witness {w}")
    return LatticeMap(g.target, g.source, left_adjoint_tables(g.source, g.target, g.as_array())[0])


# -- greatest sup-preserving map below a monotone one ------------------------


@cached("interior_steps")
def _interior_steps(L: Lattice) -> tuple[tuple, tuple]:
    """One pass of the sup-interior operator on maps out of L, as two step
    lists: the cover edges (x, p), x from the top down, where x takes the
    meet with its upper cover p; then the incomparable pairs (x, a, b) with
    a v b = x, where x takes the meet with the join of a and b."""
    covers = tuple((x, int(p)) for x in L.descending_order for p in np.flatnonzero(L.covers[x]))
    pairs = tuple((x, a, b) for x in range(L.n) for a, b in L.incomparable_join_pairs[x])
    return covers, pairs


def sup_interior_tables(source: Lattice, target: Lattice, tables: np.ndarray) -> np.ndarray:
    """Batched core of sup_interior: one map per row of `tables`.

    Iterates a decreasing operator until every row is bottom-preserving,
    monotone, and sub-additive on joins; the fixpoint is then the greatest
    join-preserving map below each input row.

    The passes run element-major: column x of the input is one contiguous
    vector over the rows, and each meet or join is a `take` on the raveled
    target table at a*n + b.  The operator acts on each row alone, so a row
    that a pass leaves unchanged is a fixpoint: it is written back to its
    place and the next pass runs only on the rows that moved.
    """
    n = target.n
    dt = _flat_index_dtype(n)
    mt = target.meet.ravel().astype(dt, copy=False)
    jt = target.join.ravel().astype(dt, copy=False)
    covers, pairs = _interior_steps(source)
    out = np.array(_as_rows(tables).T, dtype=dt, order="C")  # [x, row]
    C, rows = out, None  # passes run on out itself until a row settles
    while True:
        before = C.copy()
        C[source.bottom] = target.bottom
        for x, p in covers:
            C[x] = mt.take(C[x] * dt(n) + C[p])
        for x, a, b in pairs:
            C[x] = mt.take(C[x] * dt(n) + jt.take(C[a] * dt(n) + C[b]))
        moved = (C != before).any(axis=0)
        if rows is not None:
            out[:, rows] = C
        if not moved.any():
            return np.ascontiguousarray(out.T, dtype=np.int16)
        if not moved.all():
            rows = np.flatnonzero(moved) if rows is None else rows[moved]
            C = C[:, moved]


def sup_interior(k: LatticeMap) -> LatticeMap:
    """Greatest sup-preserving map below a monotone map."""
    w = monotone_witness(k)
    if w is not None:
        raise MapError(f"sup_interior needs a monotone map, witness {w}")
    out = sup_interior_tables(k.source, k.target, k.as_array())
    return LatticeMap(k.source, k.target, out[0])


# -- tensor characterization and bimorphism extension -------------------------


def characterization_check(f: LatticeMap, x: int, y: int) -> bool:
    """Returns f(x) <= y, checking it agrees with f <= tensor_over(y, x)."""
    b1 = bool(f.target.leq[f.table[x], y])
    b2 = f.leq(tensor_over(f.source, f.target, y, x))
    if b1 != b2:
        raise AssertionError(f"tensor characterization failed at ({x}, {y})")
    return b1


def extend_bimorphism(psi, g: LatticeMap) -> LatticeMap:
    """Extension of a bimorphism along an inf-preserving map.

    psi(y, x) must return maps in one fixed homset; the result is the
    pointwise join of psi(g(x), x) over all x in g's source.
    """
    w = inf_witness(g)
    if w is not None:
        raise MapError(f"extension needs a meet-preserving map, witness {w}")
    acc = None
    for x in range(g.source.n):
        piece = psi(g.table[x], x)
        acc = piece if acc is None else pointwise_join(acc, piece)
    return acc


# -- factorization ------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Surjection-isomorphism-inclusion decomposition of a sup-preserving map."""

    closure: LatticeMap        # right_adjoint(f) after f, on the source
    interior: LatticeMap       # f after right_adjoint(f), on the target
    source_fixed: tuple[int, ...]
    target_fixed: tuple[int, ...]
    iso: dict[int, int]        # restriction of f: source_fixed -> target_fixed


def factorize(f: LatticeMap) -> Factorization:
    rho = right_adjoint(f)
    j = rho.compose(f)
    o = f.compose(rho)
    source_fixed = tuple(x for x in range(f.source.n) if j.table[x] == x)
    target_fixed = tuple(y for y in range(f.target.n) if o.table[y] == y)
    iso = {x: f.table[x] for x in source_fixed}
    if sorted(iso.values()) != sorted(target_fixed):
        raise AssertionError("factorization middle is not a bijection")
    for x in range(f.source.n):
        if iso[j.table[x]] != f.table[x]:
            raise AssertionError("factorization does not recompose to f")
    return Factorization(j, o, source_fixed, target_fixed, iso)
