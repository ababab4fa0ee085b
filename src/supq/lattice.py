"""Finite complete lattices and posets with precomputed operation tables.

Elements are dense indices 0..n-1.  The order relation is stored as a
boolean matrix and binary join/meet as n x n index tables, so the
exhaustive checks elsewhere in the package pay O(1) per operation.
"""
from __future__ import annotations

import functools
import hashlib
import json
import weakref

import numpy as np

MAX_LATTICE_SIZE = 64
MAX_DOWNSET_LATTICE_SIZE = 4096
MAX_DOWNSETS = 1 << 18  # downsets one enumeration may produce
AUTOMORPHISM_NODE_CAP = 2_000_000


class LatticeError(Exception):
    """Base error for order-structure construction and search failures."""


class NotAPartialOrder(LatticeError):
    """Input relation is not reflexive, antisymmetric and transitive."""


class NotALattice(LatticeError):
    """Some pair of elements lacks a least upper or greatest lower bound."""


class NoBoundedElement(LatticeError):
    """Empty input: there is no bottom or top element."""


class SizeGuardExceeded(LatticeError):
    """A construction exceeded its configured size cap."""


class CapExceeded(LatticeError):
    """A search or construction grew past its configured cap.  The verifier
    reports the check that needed it as skipped, with this message."""

    def __init__(self, message: str, partial_count: int = 0):
        super().__init__(message)
        self.partial_count = partial_count


class SearchCapExceeded(CapExceeded):
    """An exhaustive search exceeded its node budget."""


class NotAutomorphism(LatticeError):
    """The permutation is not an order automorphism."""


def cached(key: str):
    """Compute a derived value once per object and keep it in
    `obj._cache[key]`.  A build that raises stores nothing; a list result
    comes back as a fresh copy."""
    def decorate(build):
        @functools.wraps(build)
        def get(obj):
            if key not in obj._cache:
                obj._cache[key] = build(obj)
            got = obj._cache[key]
            return list(got) if isinstance(got, list) else got
        return get
    return decorate


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_partial_order(leq: np.ndarray) -> None:
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        i = int(np.flatnonzero(~diag)[0])
        raise NotAPartialOrder(f"relation is not reflexive at element {i}")
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise NotAPartialOrder(
            f"relation is not antisymmetric: {int(i)} <= {int(j)} and {int(j)} <= {int(i)}"
        )
    # leq must already contain its own composite
    comp = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
    bad = comp & ~leq
    if bad.any():
        i, k = np.argwhere(bad)[0]
        j = int(np.flatnonzero(leq[i] & leq[:, k])[0])
        raise NotAPartialOrder(
            f"relation is not transitive: {int(i)} <= {j} <= {int(k)} but not {int(i)} <= {int(k)}"
        )


class Poset:
    """A finite partial order on indices 0..n-1."""

    __slots__ = ("n", "leq", "names")

    def __init__(self, leq, names=None, *, _validated: bool = False):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError("order matrix must be square")
        if not _validated:
            _check_partial_order(leq)
        self.n = int(leq.shape[0])
        self.leq = _freeze(leq)
        self.names = list(names) if names is not None else [str(i) for i in range(self.n)]
        if len(self.names) != self.n:
            raise ValueError("wrong number of element names")

    @classmethod
    def from_covers(cls, n: int, covers, names=None) -> "Poset":
        """Build a poset from strict cover pairs (lower, upper), taking the
        reflexive-transitive closure before validating."""
        reach = np.eye(n, dtype=bool)
        for pair in covers:
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"cover pair ({i}, {j}) out of range")
            if i == j:
                raise NotAPartialOrder(f"cover pair ({i}, {j}) is a loop")
            reach[i, j] = True
        for k in range(n):
            reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
        sym = reach & reach.T & ~np.eye(n, dtype=bool)
        if sym.any():
            i, j = np.argwhere(sym)[0]
            raise NotAPartialOrder(f"cover relation has a cycle through {int(i)} and {int(j)}")
        return cls(reach, names, _validated=True)

    def dual(self) -> "Poset":
        return Poset(self.leq.T.copy(), self.names, _validated=True)

    def downset_masks(self) -> list[int]:
        """All down-closed subsets as bitmasks, ordered by (size, mask).  Each
        step takes an undecided x and either leaves out up x or takes down x,
        so every leaf is a distinct downset and no other set is visited, and
        the work grows with the number of downsets, which is capped at
        MAX_DOWNSETS.  Masks are Python ints, so any width fits."""
        up = [_int_mask(row) for row in self.leq]
        down = [_int_mask(row) for row in self.leq.T]
        everything = (1 << self.n) - 1
        closed = []
        stack = [(0, 0)]
        while stack:
            inside, outside = stack.pop()
            free = everything & ~(inside | outside)
            if not free:
                closed.append(inside)
                if len(closed) > MAX_DOWNSETS:
                    raise SizeGuardExceeded(f"poset has more than {MAX_DOWNSETS} downsets")
                continue
            x = (free & -free).bit_length() - 1
            stack.append((inside, outside | up[x]))
            stack.append((inside | down[x], outside))
        closed.sort(key=lambda m: (bin(m).count("1"), m))
        return closed

    def downset_count(self) -> int:
        """len(downset_masks()) without the list: N(S) = N(S - up x) + N(S - down x) for x in S,
        as a downset leaves out x and up x or holds x and down x; N(empty) = 1, memoized on S."""
        up, down = [_int_mask(row) for row in self.leq], [_int_mask(row) for row in self.leq.T]

        @functools.cache
        def count(S: int) -> int:
            x = (S & -S).bit_length() - 1
            return count(S & ~up[x]) + count(S & ~down[x]) if S else 1

        return count((1 << self.n) - 1)

    def downsets(self) -> list[frozenset]:
        return [frozenset(i for i in range(self.n) if mask >> i & 1) for mask in self.downset_masks()]

    def automorphisms(self) -> list[tuple[int, ...]]:
        return order_automorphisms(self.leq)

    def same_structure(self, other: "Poset") -> bool:
        return self.n == other.n and bool((self.leq == other.leq).all())


def poset_hash(P: Poset) -> str:
    """Short digest of the order matrix; equal for equal orders."""
    h = hashlib.sha256()
    h.update(P.n.to_bytes(4, "big"))
    h.update(np.packbits(P.leq).tobytes())
    return h.hexdigest()[:12]


def cover_relation(leq: np.ndarray) -> np.ndarray:
    """covers[i, j] is True when j covers i in the order `leq`."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    s = strict.astype(np.float32)
    return strict & ~((s @ s) > 0.5)


def _int_mask(row: np.ndarray) -> int:
    """A boolean row as a Python int with bit i set when row[i] holds."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


class Lattice:
    """A finite lattice: a bounded poset with total join and meet tables."""

    __slots__ = ("poset", "join", "meet", "bottom", "top", "_cache", "__weakref__")

    def __init__(self, leq, names=None, *, join=None, meet=None, _validated: bool = False):
        if isinstance(leq, Poset):
            poset = leq if names is None else Poset(leq.leq, names, _validated=True)
        else:
            poset = Poset(leq, names, _validated=_validated)
        n = poset.n
        if n == 0:
            raise NoBoundedElement("a lattice needs at least one element")
        self.poset = poset
        if join is not None and meet is not None:
            self.join = _freeze(np.array(join, dtype=np.int16))
            self.meet = _freeze(np.array(meet, dtype=np.int16))
        else:
            self.join, self.meet = self._build_tables()
        bottoms = np.flatnonzero(poset.leq.all(axis=1))
        tops = np.flatnonzero(poset.leq.all(axis=0))
        if len(bottoms) != 1 or len(tops) != 1:
            raise NoBoundedElement("lattice lacks a unique bottom or top")
        self.bottom = int(bottoms[0])
        self.top = int(tops[0])
        self._cache = {}

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        leq = self.poset.leq
        n = self.poset.n
        # the lub of (i, j), when it exists, is the unique element whose
        # up-set equals the intersection of their up-sets; dually for glb
        by_upset = {leq[z].tobytes(): z for z in range(n)}
        by_downset = {leq[:, z].tobytes(): z for z in range(n)}
        join = np.zeros((n, n), dtype=np.int16)
        meet = np.zeros((n, n), dtype=np.int16)
        for i in range(n):
            for j in range(i, n):
                z = by_upset.get((leq[i] & leq[j]).tobytes())
                if z is None:
                    raise NotALattice(f"elements {i} and {j} have no least upper bound")
                join[i, j] = join[j, i] = z
                w = by_downset.get((leq[:, i] & leq[:, j]).tobytes())
                if w is None:
                    raise NotALattice(f"elements {i} and {j} have no greatest lower bound")
                meet[i, j] = meet[j, i] = w
        return _freeze(join), _freeze(meet)

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    @property
    def names(self) -> list[str]:
        return self.poset.names

    def le(self, x: int, y: int) -> bool:
        return bool(self.poset.leq[x, y])

    def join_of(self, xs) -> int:
        acc = self.bottom
        for x in xs:
            acc = int(self.join[acc, x])
        return acc

    def meet_of(self, xs) -> int:
        acc = self.top
        for x in xs:
            acc = int(self.meet[acc, x])
        return acc

    # -- derived structure ------------------------------------------------

    @property
    @cached("covers")
    def covers(self) -> np.ndarray:
        """covers[i, j] is True when j covers i."""
        return _freeze(cover_relation(self.leq))

    @property
    def op(self) -> "Lattice":
        """The opposite lattice, built once by `dual` and linked back, so that
        L.op.op is L.  A meet-side operation on L is its join-side twin on
        L.op, with the same tables on the same element indices.  The link
        back is weak, as a cycle would keep both lattices and their caches
        alive until the cyclic collector runs; once L is gone, L.op.op is
        built again."""
        got = self._cache.get("op")
        D = got() if isinstance(got, weakref.ref) else got
        if D is None:
            D = dual(self)
            D._cache["op"] = weakref.ref(self)
            self._cache["op"] = D
        return D

    @property
    @cached("ijp")
    def incomparable_join_pairs(self) -> dict[int, list[tuple[int, int]]]:
        """For each x, the incomparable pairs (a, b), a < b, with a v b = x."""
        got = {x: [] for x in range(self.n)}
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if not self.leq[a, b] and not self.leq[b, a]:
                    got[int(self.join[a, b])].append((a, b))
        return got

    @property
    @cached("desc")
    def descending_order(self) -> list[int]:
        """Elements sorted from top to bottom (by decreasing down-set size)."""
        sizes = self.leq.sum(axis=0)
        return sorted(range(self.n), key=lambda i: (-int(sizes[i]), i))

    @property
    @cached("hash")
    def hash_id(self) -> str:
        return poset_hash(self.poset)

    def same_structure(self, other: "Lattice") -> bool:
        return other is self or (
            self.n == other.n
            and bool((self.leq == other.leq).all())
            and bool((self.join == other.join).all())
            and bool((self.meet == other.meet).all())
        )

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, hash={self.hash_id})"


# -- constructors ----------------------------------------------------------


def _load_json(text: str):
    """json.loads with every malformed document, too deeply nested ones
    included, reported as ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def parse_lattice(text: str | bytes, max_size: int = MAX_LATTICE_SIZE) -> Lattice:
    """Parse a lattice from its JSON file format.

    Accepted shapes: {"elements": [names], "covers": [[i, j], ...]} with
    i covered by j, or {"leq": [[bool, ...], ...]} with optional names.
    Unknown keys are rejected.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValueError("lattice file must be a JSON object")
    keys = set(doc)
    if not keys <= {"elements", "covers", "leq"}:
        raise ValueError(f"unknown keys in lattice file: {sorted(keys - {'elements', 'covers', 'leq'})}")
    if ("covers" in keys) == ("leq" in keys):
        raise ValueError("lattice file needs exactly one of 'covers' or 'leq'")
    names = doc.get("elements")
    if names is not None and not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
        raise ValueError("'elements' must be a list of strings")
    if "covers" in keys:
        if names is None:
            raise ValueError("'covers' format requires 'elements'")
        n = len(names)
        if n > max_size:
            raise SizeGuardExceeded(f"lattice size {n} exceeds cap {max_size}")
        covers = doc["covers"]
        if not isinstance(covers, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in covers
        ):
            raise ValueError("'covers' must be a list of [int, int] pairs")
        if n == 0:
            raise NoBoundedElement("a lattice needs at least one element")
        return Lattice(Poset.from_covers(n, covers, names))
    rows = doc["leq"]
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(isinstance(v, bool) for v in r) for r in rows
    ):
        raise ValueError("'leq' must be a list of lists of booleans")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("'leq' must be square")
    if n > max_size:
        raise SizeGuardExceeded(f"lattice size {n} exceeds cap {max_size}")
    if n == 0:
        raise NoBoundedElement("a lattice needs at least one element")
    if names is not None and len(names) != n:
        raise ValueError("wrong number of element names")
    return Lattice(np.array(rows, dtype=bool), names)


def serialize_lattice(L: Lattice) -> str:
    """Inverse of parse_lattice, in the covers format."""
    pairs = [[int(i), int(j)] for i, j in np.argwhere(L.covers)]
    doc = {"elements": list(L.names), "covers": pairs}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def make_chain(n: int) -> Lattice:
    if n < 1:
        raise ValueError("chain needs n >= 1")
    if n > MAX_LATTICE_SIZE:
        raise SizeGuardExceeded(f"lattice size {n} exceeds cap {MAX_LATTICE_SIZE}")
    idx = np.arange(n)
    leq = idx[:, None] <= idx[None, :]
    join = np.maximum(idx[:, None], idx[None, :]).astype(np.int16)
    meet = np.minimum(idx[:, None], idx[None, :]).astype(np.int16)
    return Lattice(leq, join=join, meet=meet, _validated=True)


def make_boolean(k: int) -> Lattice:
    if k < 0:
        raise ValueError("boolean lattice needs k >= 0")
    n = 1 << k
    if n > MAX_LATTICE_SIZE:
        raise SizeGuardExceeded(f"lattice size {n} exceeds cap {MAX_LATTICE_SIZE}")
    masks = np.arange(n)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    join = (masks[:, None] | masks[None, :]).astype(np.int16)
    meet = (masks[:, None] & masks[None, :]).astype(np.int16)
    names = ["{" + ",".join(str(i) for i in range(k) if m >> i & 1) + "}" for m in masks]
    return Lattice(leq, names, join=join, meet=meet, _validated=True)


def make_mk(k: int, names=None) -> Lattice:
    """Height-two modular lattice: bottom, k pairwise-incomparable atoms, top."""
    if k < 0:
        raise ValueError("make_mk needs k >= 0")
    n = k + 2
    if n > MAX_LATTICE_SIZE:
        raise SizeGuardExceeded(f"lattice size {n} exceeds cap {MAX_LATTICE_SIZE}")
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    if names is None:
        names = ["bot"] + [f"a{i}" for i in range(1, k + 1)] + ["top"]
    return Lattice(leq, names)


def make_n5() -> Lattice:
    """The pentagon: bot < a < c < top and bot < b < top."""
    covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    return Lattice(Poset.from_covers(5, covers, ["bot", "a", "c", "b", "top"]))


def dual(L: Lattice) -> Lattice:
    """Order-reversed lattice on the same indices (join and meet swap): a
    fresh build each call; L.op keeps one."""
    return Lattice(
        Poset(L.leq.T.copy(), L.names, _validated=True),
        join=L.meet.copy(),
        meet=L.join.copy(),
        _validated=True,
    )


def downset_lattice(P: Poset) -> Lattice:
    """Lattice of down-closed subsets of P, ordered by inclusion."""
    if P.n > 12 or (1 << P.n) > MAX_DOWNSET_LATTICE_SIZE:
        raise SizeGuardExceeded(f"downset lattice of a {P.n}-element poset exceeds cap")
    masks = P.downset_masks()
    arr = np.array(masks, dtype=np.int64)
    index_of = np.full(1 << P.n, -1, dtype=np.int64)
    index_of[arr] = np.arange(len(masks))
    leq = (arr[:, None] & ~arr[None, :]) == 0
    join = index_of[arr[:, None] | arr[None, :]].astype(np.int16)
    meet = index_of[arr[:, None] & arr[None, :]].astype(np.int16)
    names = ["{" + ",".join(P.names[i] for i in range(P.n) if m >> i & 1) + "}" for m in masks]
    return Lattice(leq, names, join=join, meet=meet, _validated=True)


# -- structure queries ------------------------------------------------------


def join_irreducibles(L: Lattice) -> list[int]:
    """Elements with exactly one lower cover."""
    counts = L.covers.sum(axis=0)
    return [int(x) for x in np.flatnonzero(counts == 1)]


def meet_irreducibles(L: Lattice) -> list[int]:
    """Elements with exactly one upper cover: the join-irreducibles of L.op."""
    return join_irreducibles(L.op)


def is_distributive(L: Lattice) -> bool:
    for x in range(L.n):
        lhs = L.meet[x][L.join]
        row = L.meet[x]
        rhs = L.join[np.ix_(row, row)]
        if not (lhs == rhs).all():
            return False
    return True


def order_isomorphisms(leq1: np.ndarray, leq2: np.ndarray, cap: int = AUTOMORPHISM_NODE_CAP):
    """Yield every order isomorphism from `leq1` onto `leq2` by backtracking.

    Each element may only go to an element with the same down-set size,
    up-set size and numbers of lower and upper covers.  Raises
    SearchCapExceeded once more than `cap` candidate placements were tried.
    """
    leq1, leq2 = np.asarray(leq1, dtype=bool), np.asarray(leq2, dtype=bool)
    n = leq1.shape[0]
    if leq2.shape[0] != n:
        return

    def profiles(leq):
        covers = cover_relation(leq)
        return list(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist(),
                        covers.sum(axis=0).tolist(), covers.sum(axis=1).tolist()))

    p1, p2 = profiles(leq1), profiles(leq2)
    if sorted(p1) != sorted(p2):
        return
    cands = [[j for j in range(n) if p2[j] == p1[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    sigma = [-1] * n
    used = [False] * n
    nodes = 0

    def place(k: int):
        nonlocal nodes
        if k == n:
            yield tuple(sigma)
            return
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > cap:
                raise SearchCapExceeded(f"order isomorphism search exceeded {cap} nodes")
            if all(
                leq1[i, p] == leq2[j, sigma[p]] and leq1[p, i] == leq2[sigma[p], j]
                for p in order[:k]
            ):
                sigma[i] = j
                used[j] = True
                yield from place(k + 1)
                sigma[i] = -1
                used[j] = False

    yield from place(0)


def order_automorphisms(leq: np.ndarray, cap: int = AUTOMORPHISM_NODE_CAP) -> list[tuple[int, ...]]:
    """All order-preserving bijections with order-preserving inverse, sorted."""
    return sorted(order_isomorphisms(leq, leq, cap))


def find_order_isomorphism(leq1: np.ndarray, leq2: np.ndarray, cap: int = AUTOMORPHISM_NODE_CAP):
    """One order isomorphism from `leq1` onto `leq2`, or None."""
    return next(order_isomorphisms(leq1, leq2, cap), None)


def automorphisms(L: Lattice) -> list[tuple[int, ...]]:
    return order_automorphisms(L.leq)


def _automorphism(P: Poset | Lattice, g) -> tuple[int, ...]:
    """g as a tuple, once it is known to be an order automorphism of P."""
    g = tuple(int(v) for v in g)
    if sorted(g) != list(range(P.n)):
        raise NotAutomorphism("not a permutation of the elements")
    moved = np.argwhere(P.leq != P.leq[np.ix_(g, g)])
    if len(moved):
        i, j = moved[0]
        raise NotAutomorphism(f"order not preserved at pair ({i}, {j})")
    return g
