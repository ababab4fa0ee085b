"""Batch verification suite: every structural property the package promises,
run against a concrete lattice and reported as named checks."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from supq.lattice import (
    CapExceeded,
    Lattice,
    Poset,
    automorphisms,
    downset_lattice,
    dual,
    find_order_isomorphism,
    is_distributive,
    join_irreducibles,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    meet_irreducibles,
)
from supq.maps import (
    e_tables,
    table_take,
    tensor_tables,
)
from supq.quantale import (
    DEFAULT_HOMSET_CAP,
    MATRIX_CAP,
    TABLE_SCAN_CAP,
    EndoHomset,
    _distinct,
    _row_groups,
    assignments_on_J,
    automorphism_to_dualizing,
    conucleus_gap,
    enumerate_homset,
    find_cyclic,
    find_dualizing,
    is_completely_distributive,
    is_girard,
    left_adjoint_tables,
    right_adjoint_tables,
    tensor_meet_tables,
    tight_has_unit,
)
from supq.structures import (
    _downsets,
    abstract_raney_check,
    autodual_report,
    classify_natural,
    downset_automorphism,
    homset_irreducibles,
    m5_quantale,
    q_cyclic,
    q_dualizing,
    q_residuals,
    supmap_from_wk,
    supmap_tables,
    wk_from_automorphism,
    wk_tables,
)

EXHAUSTIVE_PAIR_CAP = 512      # full (g, h) / (f, g) quantification
BLOCK_ROWS = 1 << 14           # rows per batched residual pass


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str | None = None
    reason: str | None = None
    elapsed: float = 0.0

    def to_doc(self) -> dict:
        doc = {"check_id": self.check_id, "status": self.status}
        if self.status == "fail":
            doc["witness"] = self.witness
        if self.status == "skipped":
            doc["reason"] = self.reason
        return doc


@dataclass(frozen=True)
class SuiteConfig:
    max_homset: int = DEFAULT_HOMSET_CAP
    max_autodual: int = TABLE_SCAN_CAP
    checks: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("max_homset", "max_autodual"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class Report:
    """The checks on one lattice and its summary flags; a flag that raised,
    a cap aside, is named in `flag_errors` and counts as failed."""
    name: str
    size: int
    hash: str
    results: list[CheckResult]
    summary: dict
    flag_errors: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail") + len(self.flag_errors)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skipped")

    def to_doc(self) -> dict:
        doc = {
            "lattice": {"name": self.name, "size": self.size, "hash": self.hash},
            "summary": self.summary,
            "checks": [r.to_doc() for r in self.results],
        }
        if self.flag_errors:
            doc["flag_errors"] = self.flag_errors
        return doc


class _Ctx:
    """Lazy, cached access to the expensive artifacts a check may need.  An
    enumeration that exceeds its cap is kept as its CapExceeded and raised
    again on every later access.  The meet-preserving endomaps of L are the
    homset of L.op, kept whole, so their left adjoints (its rho_tables) are
    built once and its index_rows finds meet-preserving rows."""

    def __init__(self, L: Lattice, config: SuiteConfig, poset: Poset | None = None):
        self.L = L
        self.config = config
        self.poset = poset
        self._built: dict = {}

    def _enumerated(self, L: Lattice) -> EndoHomset:
        if L not in self._built:
            try:
                self._built[L] = enumerate_homset(L, cap=self.config.max_homset)
            except CapExceeded as e:
                self._built[L] = e
        got = self._built[L]
        if isinstance(got, CapExceeded):
            raise got.with_traceback(None)
        return got

    @property
    def homset(self) -> EndoHomset:
        return self._enumerated(self.L)

    @property
    def inf_homset(self) -> EndoHomset:
        return self._enumerated(self.L.op)

    @property
    def inf_tables(self) -> np.ndarray:
        return self.inf_homset.tables

    def homset_capped(self, cap: int, what: str) -> EndoHomset:
        H = self.homset
        if H.m > cap:
            raise CapExceeded(f"homset has {H.m} members; {what} capped at {cap}", H.m)
        return H


# -- lattice-level checks ----------------------------------------------------------


def check_lattice_axioms(ctx: _Ctx):
    L = ctx.L
    idx = np.arange(L.n)
    for op, name in ((L.join, "join"), (L.meet, "meet")):
        if not (op[idx, idx] == idx).all():
            return f"{name} is not idempotent"
        if not (op == op.T).all():
            return f"{name} is not commutative"
        left = op[op]
        right = op[idx[:, None, None], op[None, :, :]]
        if not (left == right).all():
            x, y, z = np.argwhere(left != right)[0]
            return f"{name} is not associative at ({x}, {y}, {z})"
    if not (L.meet[idx[:, None], L.join] == np.broadcast_to(idx[:, None], (L.n, L.n))).all():
        return "absorption fails"
    if not (L.join[idx[:, None], L.meet[idx[:, None], idx[None, :]]] == idx[:, None]).all():
        return "dual absorption fails"
    order_from_join = L.join == np.broadcast_to(idx[None, :], (L.n, L.n))
    order_from_meet = L.meet == np.broadcast_to(idx[:, None], (L.n, L.n))
    if not (order_from_join == L.leq).all() or not (order_from_meet == L.leq).all():
        return "order disagrees with the operations"
    return None


def check_dual_involution(ctx: _Ctx):
    DD = dual(dual(ctx.L))
    if not (DD.leq == ctx.L.leq).all():
        return "double dual changed the order"
    if not (DD.join == ctx.L.join).all() or not (DD.meet == ctx.L.meet).all():
        return "double dual changed the operations"
    return None


def check_distributivity_agreement(ctx: _Ctx):
    a = is_distributive(ctx.L)
    b = is_completely_distributive(ctx.L)
    if a != b:
        return f"pair/triple distributivity says {a}, transform identity says {b}"
    return None


def check_downset_irreducibles(ctx: _Ctx):
    L = ctx.L
    J = join_irreducibles(L)
    P = Poset(L.leq[np.ix_(J, J)].copy())
    D = downset_lattice(P)
    if len(join_irreducibles(D)) != P.n:
        return (
            f"downset lattice of the {P.n}-point order has "
            f"{len(join_irreducibles(D))} join-irreducibles"
        )
    if is_distributive(L):
        if D.n != L.n:
            return f"representation size {D.n} differs from lattice size {L.n}"
        if find_order_isomorphism(D.leq, L.leq) is None:
            return "downset representation is not isomorphic to the lattice"
    return None


# -- map-level checks ---------------------------------------------------------------


def check_galois_adjunction(ctx: _Ctx):
    """f(x) <= y exactly when x <= rho_f(y) for every member f, and the two
    adjoint kernels invert each other; that inversion makes rho injective."""
    H = ctx.homset
    L = ctx.L
    rho = H.rho_tables
    for start in range(0, H.m, 4096):
        tab = H.tables[start : start + 4096].astype(np.int64)
        rh = rho[start : start + 4096].astype(np.int64)
        lhs = L.leq[tab]                       # [i, x, y] = f(x) <= y
        rhs = L.leq.T[rh].transpose(0, 2, 1)   # [i, x, y] = x <= rho f (y)
        if not (lhs == rhs).all():
            i = int(np.argwhere((lhs != rhs).any(axis=(1, 2)))[0][0]) + start
            return f"adjunction fails for member {i}"
    back = left_adjoint_tables(L, L, rho)
    if not (back == H.tables).all():
        return "lower adjoint does not invert the upper adjoint"
    H_op = ctx.inf_homset
    if not (right_adjoint_tables(L, L, H_op.rho_tables) == H_op.tables).all():
        return "upper adjoint does not invert the lower adjoint"
    return None


def check_generator_relations(ctx: _Ctx):
    L = ctx.L
    vs = np.arange(L.n)
    c = e_tables(L, L, vs, L.bottom)  # [y, t] = c_y(t)
    a = e_tables(L, L, L.top, vs)     # [x, t] = a_x(t)
    bad_t = (L.join[c[:, None], a[None]] != tensor_tables(L, L, vs[:, None], vs[None])).any(axis=2)
    bad_e = (L.meet[c[:, None], a[None]] != e_tables(L, L, vs[:, None], vs[None])).any(axis=2)
    failing = np.argwhere(bad_t | bad_e)
    if len(failing):
        y, x = failing[0]
        if bad_t[y, x]:
            return f"tensor is not the pointwise join at ({y}, {x})"
        return f"e map is not the pointwise meet at ({y}, {x})"
    bad = (tensor_tables(L, L, vs, L.top) != c).any(axis=1)
    if bad.any():
        return f"constant-style map differs from tensor at y={int(np.argmax(bad))}"
    bad = (tensor_tables(L, L, L.bottom, vs) != a).any(axis=1)
    if bad.any():
        return f"step map differs from tensor at x={int(np.argmax(bad))}"
    return None


def check_tensor_meet_decomposition(ctx: _Ctx):
    H = ctx.homset
    L = ctx.L
    acc = tensor_meet_tables(L, H.tables, np.arange(L.n))
    if not (acc == H.tables).all():
        i = int(np.argwhere((acc != H.tables).any(axis=1))[0][0])
        return f"canonical meet of tensors differs from member {i}"
    return None


def check_infmap_join_decomposition(ctx: _Ctx):
    L = ctx.L
    inf = ctx.inf_tables
    acc = tensor_meet_tables(L.op, inf, np.arange(L.n))  # the co-tensors are the tensors of L.op
    if not (acc == inf).all():
        i = int(np.argwhere((acc != inf).any(axis=1))[0][0])
        return f"canonical join of co-tensors differs from member {i}"
    return None


def _monotone_keys(H: EndoHomset) -> tuple[np.ndarray, np.ndarray]:
    """(D, vals): the J-keys of every monotone assignment of values to J, which
    are the J-keys of the monotone maps, in increasing order, and vals[i, k]
    the value at J[k] of D[i].  Assigned from J[-1], the most significant
    digit, the rows come out in the order of their keys."""
    J, radix, _, _ = H._keys()
    vals = assignments_on_J(H.lattice, [int(j) for j in J[::-1]], joins=False)[:, ::-1]
    return sum((vals[:, k] * radix[k] for k in range(len(J))), np.zeros(len(vals), dtype=np.int64)), vals


def _cover_steps(L: Lattice, J: np.ndarray, radix: np.ndarray, q: np.ndarray, vals: np.ndarray):
    """(i, q2): every step q[i] -> q2 that raises one J-value a of q to an upper
    cover b below the values at the larger join-irreducibles, so that q2 stays
    in D; vals[i, k] is the value of q[i] at J[k]."""
    steps = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64))]
    for k, j in enumerate(J):
        lim = None  # the meet of the values above J[k], if any
        for k2 in np.flatnonzero(L.leq[j, J] & (J != j)):
            lim = vals[:, k2] if lim is None else L.meet[lim, vals[:, k2]]
        for a in np.flatnonzero(L.covers.any(axis=1)):
            at_a = np.flatnonzero(vals[:, k] == a)
            for b in np.flatnonzero(L.covers[a]):
                i = at_a if lim is None else at_a[L.leq[b, lim[at_a]]]
                steps.append((i, q[i] + (b - a) * radix[k]))
    return tuple(np.concatenate(side) for side in zip(*steps))


def check_sup_interior_props(ctx: _Ctx):
    """The memo's interior phi(q) (`EndoHomset._interior_keys`) on every key q
    of D, the J-keys of the monotone maps: the keys the memo can be asked for.
    phi(q) is a member, or its strict lookup raises KeyError.  The check
    tests that phi fixes every member's key (idempotent), then block by block
    that phi(q) lies below q on J (deflationary) and phi(q) <= phi(q2) for
    every cover step q -> q2.  Every strict q < q2 in D is joined by steps:
    raise the J-maximal coordinate where they differ.  So a member f below q
    has f = phi(key f) <= phi(q), and phi(q) is the largest member below q."""
    L, H = ctx.L, ctx.homset
    J, radix, slot, (member_keys, members) = H._keys()
    D, vals = _monotone_keys(H)
    blocks = [slice(s, s + BLOCK_ROWS) for s in range(0, len(D), BLOCK_ROWS)]
    phi = np.concatenate([H._interior_keys(D[b]) for b in blocks])
    # now filled on D, the memo on the slot table gives phi at a key; above it, D's sorted keys do
    phi_at = H._interior_memo().take if slot is not None else lambda q: phi[np.searchsorted(D, q)]
    if not (phi_at(member_keys) == members).all():
        return "interior is not idempotent"
    on_J = H.tables[:, J]
    # bits k*n + v: off[f] if f(J[k]) is not below v, at[g] if g(J[k]) = v; f <= g iff none shared
    off, at = (np.packbits(np.pad(b.reshape(H.m, -1), ((0, 0), (0, -b[0].size % 64))),
                           axis=1, bitorder="little").view(np.uint64)
               for b in (~L.leq[on_J], on_J[..., None] == np.arange(L.n)))
    for b in blocks:
        if not L.leq[on_J[phi[b]], vals[b]].all():
            return "interior is not deflationary"
        i, q2 = _cover_steps(L, J, radix, D[b], vals[b])
        if (at[phi_at(q2)] & off[phi[b][i]]).any():
            return "interior is not monotone as an operator"
    return None


# -- transform and residual checks -----------------------------------------------------


def _not_below(L: Lattice, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i] = row A[i] does not lie below row B[i], compared on their columns."""
    return ~table_take(L.leq, A, B).all(axis=1)


def check_raney_adjunction(ctx: _Ctx):
    """down -| up: down(g) <= f exactly when g <= up(f), for every inf map g
    and member f, tested as four facts.  Its premises come first: every
    down(g) is looked up among the members with the strict
    `EndoHomset.index_rows`, and every up(f) among the inf maps, kept as the
    homset of L.op (KeyError otherwise); the lookups build the J-keys, which
    checks that the members preserve joins.  A join-preserving map lies below a
    monotone one exactly when it does on the join-irreducibles J, as f(x)
    is the join of f(j) over the j <= x; dually a monotone map lies below a
    meet-preserving one exactly on the meet-irreducibles M.  Between finite
    posets, down -| up holds exactly when both are monotone, g <= up(down g)
    for every g (on M) and down(up f) <= f for every f (on J); a map is
    monotone when it is on the cover edges g < f of Q(L), those of the
    irreducible kernel (`homset_irreducibles`).  up is tested on them on M.
    rho is an order-reversing bijection of Q(L) onto the inf maps
    (galois-adjunction), so down is monotone exactly when star = down o rho,
    the down kernel on the rho rows (`star_indices`), reverses them: star(f)
    <= star(g) on J.  Both transforms are the memoized up transforms: down
    on L is up on L.op."""
    H = ctx.homset_capped(MATRIX_CAP, "transform adjunction scan")
    L, H_op = ctx.L, ctx.inf_homset
    down, up = H_op.up_transform_tables, H.up_transform_tables
    d = H.index_rows(down)  # the premises: each down(g) preserves joins,
    u = H_op.index_rows(up)  # each up(f) preserves meets
    J, M = join_irreducibles(L), meet_irreducibles(L)
    f, g = homset_irreducibles(H, cap=MATRIX_CAP).lower_cover_edges
    unit = _not_below(L, H_op.tables[:, M], up[d][:, M])
    if unit.any():
        return f"unit of the transform adjunction fails at inf map {int(np.argmax(unit))}"
    counit = _not_below(L, down[u][:, J], H.tables[:, J])
    if counit.any():
        return f"counit of the transform adjunction fails at member {int(np.argmax(counit))}"
    star = H.tables[H.star_indices][:, J]
    for side, fails in (("up", _not_below(L, up[g][:, M], up[f][:, M])),
                        ("down", _not_below(L, star[f], star[g]))):
        if fails.any():
            i = int(np.argmax(fails))
            return f"{side} transform is not monotone on the cover edge ({g[i]}, {f[i]})"
    return None


def check_raney_transform_exchange(ctx: _Ctx):
    """The lower adjoint of up(f) is star(f) = down(rho f) for every member f,
    and for every inf map as a member of the homset of L.op, its dual."""
    L = ctx.L
    H, H_op = ctx.homset, ctx.inf_homset
    if not (right_adjoint_tables(L, L, H_op.up_transform_tables)
            == H_op.tables[H_op.star_indices]).all():
        return "upper adjoint of the down transform differs from the up transform of the lower adjoint"
    if not (left_adjoint_tables(L, L, H.up_transform_tables) == H.tables[H.star_indices]).all():
        return "lower adjoint of the up transform differs from the down transform of the upper adjoint"
    return None


def check_naturality_generators(ctx: _Ctx):
    H = ctx.homset
    L = ctx.L
    vs = np.arange(L.n)
    c_tabs = e_tables(L, L, vs, L.bottom)  # c_y = e(y, bottom)
    a_tabs = e_tables(L, L, L.top, vs)     # a_x = e(top, x)
    for y in range(L.n):
        # f o c_y = c_f(y)
        if not (H.tables[:, c_tabs[y]] == e_tables(L, L, H.tables[:, y], L.bottom)).all():
            return f"composing with the constant-style map fails at y={y}"
    for x in range(L.n):
        # a_x o f = a_rho_f(x)
        if not (a_tabs[x][H.tables] == e_tables(L, L, L.top, H.rho_tables[:, x])).all():
            return f"composing with the step map fails at x={x}"
    return None


def check_naturality_composite(ctx: _Ctx):
    """f(e(y, x)(g(t))) = e(f(y), rho_g(x))(t) for all members f, g and all
    y, x, t.  With A = [g(t) <= x] and B = [t <= rho_g(x)] the sides differ
    exactly under A and B where f(bot) != bot, A and not B where f(y) !=
    f(bot), and B and not A where f(y) != bot.  f ranges apart from (g, t),
    so each case is one reduction over (g, t) per x and one over f per y."""
    H = ctx.homset_capped(EXHAUSTIVE_PAIR_CAP, "exhaustive composite naturality")
    L = ctx.L
    A = L.leq[H.tables]                           # [g, t, x] = g(t) <= x
    B = L.leq.T[H.rho_tables].transpose(0, 2, 1)  # [g, t, x] = t <= rho_g(x)
    occurs = np.stack([A & B, A & ~B, B & ~A]).any(axis=(1, 2))  # [case, x]
    fbot = H.tables[:, [L.bottom]]
    differs = np.stack([np.repeat((fbot != L.bottom).any(), L.n),  # [case, y]
                        (H.tables != fbot).any(axis=0), (H.tables != L.bottom).any(axis=0)])
    fail = differs.T @ occurs  # [y, x]: boolean product, some case with its f-condition
    if fail.any():
        y, x = np.argwhere(fail)[0]
        return f"composite naturality fails at (y={y}, x={x})"
    return None


def check_tight_subset(ctx: _Ctx):
    """The tight members T are the image of the down transform (all of Q(L)
    exactly when the identity is tight), closed under joins and under
    composition with any member.  When every member is tight the closures
    hold: a composite or join of members preserves joins (checked when
    their J-keys are built), so the complete enumeration holds it.
    Otherwise they rest on the cover edges and the join-irreducibles JI(Q)
    of Q(L) from the irreducible kernel (`homset_irreducibles`).  T is the
    fixed points of the tight interior k, looked up among the members, and
    a deflationary k (k(f) <= f on J) monotone on the cover edges has fixed
    points closed under every join, bottom included: for t in S, t = k(t) <=
    k(join S).  Every member is the join of the JI(Q) members below it, and
    composition distributes over joins on both sides, on the left as each t
    preserves joins; so T o Q and Q o T lie in T once T o JI(Q) and JI(Q) o
    T do, 2 |T| |JI(Q)| composites."""
    H = ctx.homset_capped(MATRIX_CAP, "tight subset scan")
    tight = H.tight_indices()
    mask = H.tight_mask
    down_idx = _distinct(H.index_rows(ctx.inf_homset.up_transform_tables))  # down on L is up on L.op
    if set(down_idx.tolist()) != set(int(i) for i in tight):
        return "image of the down transform differs from the tight subset"
    if (len(down_idx) == H.m) != bool(mask[H.identity_index]):  # the down transform is onto
        return "down transform surjectivity disagrees with tightness of the identity"
    if mask.all():
        return None
    L, J = ctx.L, join_irreducibles(ctx.L)
    k = H.index_rows(H.tight_interior_tables)
    rep = homset_irreducibles(H, cap=MATRIX_CAP)
    f, g = rep.lower_cover_edges
    on_J = H.tables[:, J]
    if ((k == np.arange(H.m)) != mask).any():
        return "tight subset differs from the fixed points of the tight interior"
    grows = _not_below(L, on_J[k], on_J)
    if grows.any():
        return f"tight interior is not deflationary at member {int(np.argmax(grows))}"
    fails = _not_below(L, on_J[k[g]], on_J[k[f]])
    if fails.any():
        i = int(np.argmax(fails))
        return f"tight interior is not monotone on the cover edge ({g[i]}, {f[i]})"
    gens = np.array(rep.join_irreducible_indices, dtype=np.intp)
    left = mask[H.compose_indices(tight, gens)].all(axis=1)   # [t]: t o g is tight for every g
    right = mask[H.compose_indices(gens, tight)].all(axis=0)  # [t]: g o t is tight for every g
    escaping = np.flatnonzero(~(left & right))
    if escaping.size:
        i = int(escaping[0])
        side = "left" if not left[i] else "right"
        return f"{side} composite with tight member {tight[i]} escapes the tight subset"
    return None


def check_cd_raney(ctx: _Ctx):
    L = ctx.L
    cd = is_completely_distributive(L)
    if cd != is_distributive(L):
        return "transform identity disagrees with distributivity"
    H = ctx.homset
    if cd != bool(H.tight_mask[H.identity_index]):
        return "identity tightness disagrees with the transform identity"
    return None


def _below_counts(H: EndoHomset) -> np.ndarray:
    """cnt[q] = #{members below q on J} for every J-key q: the members' slots
    summed down each axis with L.leq, the zeta transform of the product order
    L^J, exact in the narrowest type that holds m as each sum counts members."""
    n, (J, _, _, (keys, _)) = H.lattice.n, H._keys()
    up = H.lattice.leq.T.astype(np.min_scalar_type(H.m))  # [v, u] = u <= v
    cnt = np.bincount(keys, minlength=n ** len(J)).astype(up.dtype)
    for k in range(len(J)):  # digit k is the middle axis of (n^(|J|-1-k), n, n^k)
        cnt = (up @ cnt.reshape(-1, n, n ** k)).reshape(-1)
    return cnt


def check_residual_adjunction(ctx: _Ctx):
    """g \\ h must be the largest f with g o f <= h, and h / f the largest g.
    Members preserve joins (checked when their J-keys are built) and g -| rho_g
    (galois-adjunction), so g o f <= h exactly when f <= rho_g o h on J: the
    solutions are the cnt[kappa] members below kappa, the J-values of rho_g o h
    off the rho rows (`_below_counts`), and g \\ h is their largest exactly when
    it lies below kappa, one take per J column on below[s][k][f*n + v] = f(J[k])
    <= v, and cnt_m[s], the count at its own J-key, is cnt[kappa].  The right side
    is the same on H.op, whose rho_f \\ rho_h is rho(h / f); the witness is the first failing h."""
    H = ctx.homset_capped(EXHAUSTIVE_PAIR_CAP, "exhaustive residual adjunction")
    sides = [(S, _below_counts(S), np.ascontiguousarray(S.rho_tables.T)) for S in (H, H.op)]
    below = [[S.lattice.leq[S.tables[:, j]].ravel() for j in S._keys()[0]] for S in (H, H.op)]
    cnt_m = [cnt[S._j_keys(S.tables)] for S, cnt, _ in sides]
    step = max(1, BLOCK_ROWS // H.m)  # members h per block of at most BLOCK_ROWS pairs
    for start in range(0, H.m, step):
        hs = np.arange(start, min(start + step, H.m))
        bad = np.empty((len(hs), 2, H.m), dtype=bool)  # [h, side, g]
        for s, ((S, cnt, rho_T), res) in enumerate(zip(sides, (H.ldiv_indices(hs), H.rdiv_indices(hs)))):
            J, radix, _, _ = S._keys()
            resn, ok, q_kappa = res * S.lattice.n, np.ones(res.shape, dtype=bool), 0
            for k, j in enumerate(J):  # [h, g] = rho_g(h(J[k])), and res[h, g] is below it at J[k]
                kappa = rho_T[S.tables[hs, j]]
                ok &= below[s][k].take(resn + kappa)
                q_kappa = q_kappa + kappa * radix[k]
            bad[:, s] = ~ok | (cnt_m[s].take(res) != cnt.take(q_kappa))
        if bad.any():
            h, side, g = np.argwhere(bad)[0]  # the first failing h, the left side first, then g or f
            return f"{('left', 'right')[side]} residual adjunction fails at ({'gf'[side]}={g}, h={hs[h]})"
    return None


DIVISION_FORMULAS = (
    "division by the e map",       # f / e(y, x) = up_f(x) over y
    "co-division by the e map",    # e(y, x) \ f = x over star_f(y)
    "division by the tensor",      # f / (y over x) = c_up_f(x) meet (up_f(bottom) over y)
    "co-division by the tensor",   # (y over x) \ f = a_star_f(y) meet (x over star_f(top))
    "reduced tensor division",     # ... = e(up_f(x), y) when up_f(bottom) = bottom
    "reduced tensor co-division",  # ... = e(x, star_f(y)) when star_f(top) = top
)


def check_division_formulas(ctx: _Ctx):
    """Residuals of every member f by every e map e(y, x) and every tensor y
    over x, against their closed forms in up_f and star_f; c_y = e(y, bottom)
    and a_x = e(top, x) are among the e maps.  Both sides of each formula are
    members, so they are compared by their J-keys, from the J-values of each
    closed form: two members agree exactly when they agree on J, as f(x) is
    the join of f(j) over the j <= x.  One blocked pass over the pairs (y, x)
    in row-major order: the witness is the first failing pair, then the first
    failing formula of DIVISION_FORMULAS."""
    H = ctx.homset_capped(TABLE_SCAN_CAP, "generator division scan")
    L = ctx.L
    n, m, top, bot = L.n, H.m, L.top, L.bottom
    up = H.up_transform_tables
    st = H.tables[H.star_indices.astype(np.int64)]
    up_bot, st_top = up[:, bot], st[:, top]
    ys, xs = np.divmod(np.arange(n * n), n)
    e_rows, t_rows = e_tables(L, L, ys, xs), tensor_tables(L, L, ys, xs)
    e_idx, t_idx = H.index_rows(e_rows), H.index_rows(t_rows)  # row v*n + w: e(v, w), v over w
    J, radix, _, _ = H._keys()
    e_on_J, t_on_J = (rows[:, J].reshape(n, n, len(J)) for rows in (e_rows, t_rows))  # [v, w, j]
    e_key, t_key = e_on_J @ radix, t_on_J @ radix  # [v, w] = J-key of e(v, w), of v over w
    members, keys = np.arange(m), H._j_keys(H.tables)

    def div(divisors):  # [pair, f] = f / divisor, the left residual of the opposite homset
        return H.op.ldiv_index(divisors, members)

    def codiv(divisors):  # [pair, f] = divisor \ f
        return H.ldiv_index(divisors, members)

    def interior(on_J):  # [pair, f] = the sup-interior of the monotone map with these J-values
        return H._interior_keys(on_J.astype(np.int64) @ radix)

    step = max(1, BLOCK_ROWS // m)  # pairs per block of at most BLOCK_ROWS rows
    for start in range(0, n * n, step):
        p = slice(start, start + step)
        y, x = ys[p, None], xs[p, None]
        up_x, st_y = up[:, xs[p]].T, st[:, ys[p]].T  # [pair, f] = up_f(x), star_f(y)
        e_div, e_codiv = div(e_idx[p]), codiv(e_idx[p])
        t_div, t_codiv = div(t_idx[p]), codiv(t_idx[p])
        over = table_take(L.meet, e_on_J[up_x, bot], t_on_J[up_bot, y])  # [pair, f, j]
        under = table_take(L.meet, e_on_J[top, st_y], t_on_J[x, st_top])
        bad = np.stack([
            keys[e_div] != t_key[up_x, y],
            keys[e_codiv] != t_key[x, st_y],
            t_div != interior(over),
            t_codiv != interior(under),
            (keys[t_div] != e_key[up_x, y]) & (up_bot == bot),
            (keys[t_codiv] != e_key[x, st_y]) & (st_top == top),
        ]).any(axis=2)  # [formula, pair]
        if bad.any():
            pair = int(np.flatnonzero(bad.any(axis=0))[0])
            name = DIVISION_FORMULAS[int(np.argmax(bad[:, pair]))]
            return f"{name} fails at (y={ys[start + pair]}, x={xs[start + pair]})"
    return None


# -- cyclic / dualizing / tight-structure checks ------------------------------------------


def check_girard_cyclic(ctx: _Ctx):
    H = ctx.homset
    L = ctx.L
    cd = is_completely_distributive(L)
    cyc = set(find_cyclic(H))
    duals = set(find_dualizing(H))
    o_idx = H.star_indices[H.identity_index]  # down(id) = star(id)
    if is_girard(H) != cd:
        return "self-duality of the homset disagrees with complete distributivity"
    if cd:
        if int(o_idx) not in duals or int(o_idx) not in cyc:
            return "transform of the identity is not cyclic dualizing on a distributive lattice"
    else:
        if duals:
            return f"dualizing members {sorted(duals)} found on a non-distributive lattice"
        if cyc != {H.top_index}:
            return f"cyclic set {sorted(cyc)} is not just the top member"
    return None


def check_dualizing_structure(ctx: _Ctx):
    """On a completely distributive L the dualizing members are those with
    an invertible star, as many as the automorphisms, each star one that
    leads back to its member: so i -> star(i) is a bijection onto them."""
    H = ctx.homset
    L = ctx.L
    cd = is_completely_distributive(L)
    duals = find_dualizing(H)
    if duals and not cd:
        return "dualizing member exists although the lattice is not distributive"
    star_tabs = H.tables[H.star_indices.astype(np.int64)]
    perm = (np.sort(star_tabs, axis=1) == np.arange(L.n)[None, :]).all(axis=1)
    if cd:
        if set(duals) != set(int(i) for i in np.flatnonzero(perm)):
            return "dualizing members differ from those whose star is invertible"
        auts = automorphisms(L)
        if len(duals) != len(auts):
            return f"{len(duals)} dualizing members vs {len(auts)} automorphisms"
        # the star of a dualizing member is its automorphism (the check
        # above makes every such star a permutation)
        up = H.up_transform_tables
        idx = np.arange(L.n)
        for i in duals:
            if not (up[i][star_tabs[i]] == idx).all():
                return f"star and up transform of member {i} are not mutually inverse"
            if not (star_tabs[i][up[i]] == idx).all():
                return f"up transform and star of member {i} are not mutually inverse"
            if automorphism_to_dualizing(H, star_tabs[i]) != i:
                return f"round trip through the automorphism differs for member {i}"
    return None


def check_tight_unitality(ctx: _Ctx):
    H = ctx.homset_capped(MATRIX_CAP, "tight unit scan")
    cd = is_completely_distributive(ctx.L)
    unit = tight_has_unit(H)
    if cd and unit != H.identity_index:
        return f"unit of the tight members is {unit}, expected the identity"
    if not cd and unit is not None:
        return f"unexpected unit {unit} among the tight members"
    gap = conucleus_gap(H)
    if cd and gap is not None:
        return f"interior failed to respect composition at {gap}"
    if not cd and gap is None:
        return "interior respected all composites although the lattice is not distributive"
    return None


# -- structure-level checks --------------------------------------------------------------


def check_homset_irreducibles(ctx: _Ctx):
    rep = homset_irreducibles(ctx.homset, cap=TABLE_SCAN_CAP)
    if not rep.meet_equals_tensors:
        return "meet-irreducibles differ from the elementary tensors"
    if not rep.e_within_join_irreducibles:
        return "an e map is not join-irreducible"
    if not rep.tensors_pairwise_distinct or not rep.e_pairwise_distinct:
        return "generator maps are not pairwise distinct"
    nj = len(rep.join_irreducible_indices)
    nm = len(rep.meet_irreducible_indices)
    if nm != rep.product_count:
        return f"{nm} meet-irreducibles vs {rep.product_count} tensor pairs"
    if is_distributive(ctx.L):
        if nj != rep.product_count:
            return f"{nj} join-irreducibles on a distributive lattice, expected {rep.product_count}"
    elif nj <= rep.product_count:
        return f"only {nj} join-irreducibles on a non-distributive lattice"
    return None


def check_autodual(ctx: _Ctx):
    H = ctx.homset
    rep = autodual_report(H, cap=ctx.config.max_autodual)
    cd = is_distributive(ctx.L)
    if rep.verdict == "autodual":
        if not cd:
            return "order-reversing bijection found on a non-distributive lattice"
        w = np.array(rep.witness)  # a bijection reverses the order when it reverses the covers
        f, g = homset_irreducibles(H, cap=ctx.config.max_autodual).lower_cover_edges
        if sorted(rep.witness) != list(range(H.m)) or not np.array_equal(
                np.sort(w[g] * H.m + w[f]), np.sort(f * H.m + g)):
            return "autoduality witness is not an order-reversing bijection"
    elif cd:
        return "distributive lattice reported as not autodual"
    return None


def check_natural_arrows(ctx: _Ctx):
    H = ctx.homset_capped(TABLE_SCAN_CAP, "naturality classification")
    res = classify_natural(H)
    expected = 1 if ctx.L.n == 1 else 2
    if res.count != expected:
        return f"{res.count} natural families, expected {expected}"
    labels = sorted(f.label for f in res.natural)
    if ctx.L.n > 1 and labels != ["raney", "trivial"]:
        return f"unexpected family labels {labels}"
    return None


def check_abstract_raney(ctx: _Ctx):
    H = ctx.homset_capped(TABLE_SCAN_CAP, "two-valued family scan")
    v = abstract_raney_check(H)
    if not v.chain_image:
        return "canonical family does not have chain image"
    if v.identity_in_image != v.completely_distributive:
        return (
            f"identity in image says {v.identity_in_image}, "
            f"distributivity says {v.completely_distributive}"
        )
    if not v.implication_holds:
        return "two-valued family implication fails"
    return None


# -- weakening-relation checks (need the generating poset) ----------------------------------


def check_wk_bijection(ctx: _Ctx):
    """Maps and weakening relations correspond one to one.  The round trip
    returns every map; distinct maps give distinct relations; every relation
    R is a weakening relation, leq @ R @ leq within R; and there are as many
    weakening relations, the downsets of P x P^op, as maps.  An injection
    into a finite set of its own size is onto, so every weakening relation
    is reached."""
    P, H = ctx.poset, ctx.homset
    rels = wk_tables(P, H.tables)
    differs = np.flatnonzero((supmap_tables(P, rels) != H.tables).any(axis=1))
    if len(differs):
        return f"relation round trip differs for map {differs[0]}"
    if len(_row_groups(np.packbits(rels.reshape(H.m, -1), axis=1))[0]) < H.m:  # each relation as bytes
        return "map-to-relation translation is not injective"
    outside = np.flatnonzero(((P.leq @ rels @ P.leq) & ~rels).any(axis=(1, 2)))
    if len(outside):
        return f"relation of map {outside[0]} is not a weakening relation"
    weakening = Poset(np.kron(P.leq, P.leq.T), _validated=True).downset_count()
    if weakening != H.m:
        return f"{weakening} weakening relations vs {H.m} maps"
    if not (rels[H.identity_index] == P.leq).all():
        return "identity map does not give the order relation"
    if not (rels[H.star_indices[H.identity_index]] == ~P.leq.T).all():  # down(id) = star(id)
        return "down transform of the identity does not give the complement relation"
    return None


def check_wk_composition(ctx: _Ctx):
    """R_f;R_g is the relation of f o g for every member f and g, tested on
    the |P|^2 generators g_(a,b) alone: t -> down b when a is in t, else
    the empty set, whose relation is the down-set of (b, a) in P x P^op.
    For fixed f both sides preserve joins in g: relational composition
    distributes over unions, f preserves joins (checked when the J-keys are
    built) and so does g -> R_g, as joins in D(P) are unions, which the body
    tests on the join table: then bottom v t = t makes the bottom a subset
    of every downset, the empty one included.  Every g is the join of the
    g_(a,b) with (b, a) in R_g, as R_g is a down-set of P x P^op and
    g -> R_g is injective (wk-bijection) and the body tests the relation of
    each generator, looked up strictly.  So m |P|^2 composites are compared,
    as relation rows of |P| bits, in blocks of members f; the witness is
    the first failing (f, g), the generators in index order."""
    P, D, H = ctx.poset, ctx.L, ctx.homset
    rows, index = _downsets(P)  # [t, x] = x lies in the downset t
    if (rows[D.join] != rows[:, None] | rows[None, :]).any():
        return "joins of the downset lattice are not unions"
    a, b = np.divmod(np.arange(P.n * P.n), P.n)
    gens = H.index_rows(np.where(rows.T[a], index(P.leq.T)[b, None], D.bottom))  # [(a, b)] = g_(a,b)
    rels = wk_tables(P, H.tables)
    wrong = np.flatnonzero((rels[gens] != P.leq.T[b, :, None] & P.leq[a, None, :]).any(axis=(1, 2)))
    if wrong.size:
        k = wrong[0]
        return f"relation of the generator g_({a[k]},{b[k]}) is not the down-set of ({b[k]}, {a[k]})"
    gens = np.sort(gens)
    rowbits = rels @ (np.int64(1) << np.arange(P.n, dtype=np.int64))  # [f, y] = row y of R_f as bits
    # unions[s, k] = the union of the rows z of R_(gens[k]) over the z in the set s
    sets = np.arange(1 << P.n, dtype=np.int64)
    unions = np.zeros((len(sets), len(gens)), dtype=np.int64)
    for z in range(P.n):
        unions |= np.where((sets[:, None] >> z) & 1 == 1, rowbits[gens, z], 0)
    members = np.arange(H.m)
    step = max(1, BLOCK_ROWS // len(gens))
    for start in range(0, H.m, step):
        block = members[start:start + step]
        comp = H.compose_indices(block, gens)  # [i, k] = f_i o gens[k]
        bad = (unions[rowbits[block]] != rowbits[comp].transpose(0, 2, 1)).any(axis=1)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            return f"relational composition differs from map composition at ({block[i]}, {gens[k]})"
    return None


def check_wk_automorphism_dualizing(ctx: _Ctx):
    P, D, H = ctx.poset, ctx.L, ctx.homset
    duals = set(find_dualizing(H))
    for g in P.automorphisms():
        R = wk_from_automorphism(P, g)
        want = frozenset(
            (y, x) for y in range(P.n) for x in range(P.n) if not P.leq[x, g[y]]
        )
        if R.pairs != want:
            return f"automorphism relation has wrong pairs for {g}"
        i = H.index_of(supmap_from_wk(R, D))
        if i not in duals:
            return f"relation of automorphism {g} is not dualizing"
        if not np.array_equal(H.tables[H.star_indices[i]], downset_automorphism(P, g).table):
            return f"star of the relation map differs from the induced automorphism for {g}"
    return None


# -- catalog -------------------------------------------------------------------------------


CHECKS: list[tuple[str, object]] = [
    ("lattice-axioms", check_lattice_axioms),
    ("dual-involution", check_dual_involution),
    ("distributivity-agreement", check_distributivity_agreement),
    ("downset-irreducibles", check_downset_irreducibles),
    ("galois-adjunction", check_galois_adjunction),
    ("generator-relations", check_generator_relations),
    ("tensor-meet-decomposition", check_tensor_meet_decomposition),
    ("infmap-join-decomposition", check_infmap_join_decomposition),
    ("sup-interior-props", check_sup_interior_props),
    ("raney-adjunction", check_raney_adjunction),
    ("raney-transform-exchange", check_raney_transform_exchange),
    ("naturality-generators", check_naturality_generators),
    ("naturality-composite", check_naturality_composite),
    ("tight-subset", check_tight_subset),
    ("cd-raney", check_cd_raney),
    ("residual-adjunction", check_residual_adjunction),
    ("division-formulas", check_division_formulas),
    ("girard-cyclic", check_girard_cyclic),
    ("dualizing-structure", check_dualizing_structure),
    ("tight-unitality", check_tight_unitality),
    ("homset-irreducibles", check_homset_irreducibles),
    ("autodual", check_autodual),
    ("natural-arrows", check_natural_arrows),
    ("abstract-raney", check_abstract_raney),
]

POSET_CHECKS: list[tuple[str, object]] = [
    ("wk-bijection", check_wk_bijection),
    ("wk-composition", check_wk_composition),
    ("wk-automorphism-dualizing", check_wk_automorphism_dualizing),
]

ALL_CHECK_IDS = [cid for cid, _ in CHECKS] + [cid for cid, _ in POSET_CHECKS]


def _summary_flags(ctx: _Ctx) -> tuple[dict, dict]:
    """The summary flags, and the typed error of each flag whose kernel
    raised.  A flag past a cap reads null ("inconclusive" for the autodual
    verdict); one that raised anything else reads the same and is an error."""
    flags, errors = {"is_CD": is_distributive(ctx.L)}, {}
    for name, flag, default in (
        ("is_girard", lambda: is_girard(ctx.homset), None),
        ("dualizing_count", lambda: len(find_dualizing(ctx.homset)), None),
        ("automorphism_count", lambda: len(automorphisms(ctx.L)), None),
        ("tight_unital",
         lambda: tight_has_unit(ctx.homset_capped(MATRIX_CAP, "tight unit scan")) is not None, None),
        ("autodual_verdict",
         lambda: autodual_report(ctx.homset, cap=ctx.config.max_autodual).verdict, "inconclusive"),
    ):
        try:
            flags[name] = flag()
        except CapExceeded:
            flags[name] = default
        except Exception as e:
            flags[name], errors[name] = default, f"{type(e).__name__}: {e}"
    return flags, errors


def _run_checks(catalog, checks, known, *args) -> list[CheckResult]:
    """Run each catalog entry named in `checks` (every entry when None) as
    fn(*args).  A check that raises fails with the typed error as witness; a
    cap skips it.  Names outside `known` raise ValueError."""
    if checks is not None:
        unknown = [c for c in checks if c not in known]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        catalog = [(cid, fn) for cid, fn in catalog if cid in checks]
    results = []
    for cid, fn in catalog:
        t0 = time.perf_counter()
        try:
            witness = fn(*args)
            status = "pass" if witness is None else "fail"
            reason = None
        except CapExceeded as s:
            status, witness, reason = "skipped", None, str(s)
        except Exception as e:
            status, witness, reason = "fail", f"{type(e).__name__}: {e}", None
        results.append(
            CheckResult(
                check_id=cid,
                status=status,
                witness=witness,
                reason=reason,
                elapsed=time.perf_counter() - t0,
            )
        )
    return results


def run_suite(
    L: Lattice,
    config: SuiteConfig | None = None,
    name: str = "lattice",
    poset: Poset | None = None,
) -> Report:
    """Run the named checks against one lattice and collect a report.  A
    poset adds the weakening-relation checks; L must be its downset lattice."""
    if poset is not None and not downset_lattice(poset).same_structure(L):
        raise ValueError("the lattice is not the downset lattice of the poset")
    config = config or SuiteConfig()
    ctx = _Ctx(L, config, poset=poset)
    catalog = list(CHECKS)
    if poset is not None:
        catalog += POSET_CHECKS
    results = _run_checks(catalog, config.checks, ALL_CHECK_IDS, ctx)
    summary, flag_errors = _summary_flags(ctx)
    return Report(
        name=name,
        size=L.n,
        hash=L.hash_id,
        results=results,
        summary=summary,
        flag_errors=flag_errors,
    )


# -- abstract quantale suite ------------------------------------------------------------


def _m5_axioms():
    m5_quantale()
    return None


def _m5_unit():
    Q = m5_quantale()
    u = Q.unit()
    if u != list(Q.carrier.names).index("u"):
        return f"unit is {u}"
    return None


def _m5_residual_adjunction():
    Q = m5_quantale()
    L = Q.carrier
    for x in range(L.n):
        for y in range(L.n):
            under, over = q_residuals(Q, x, y)
            for z in range(L.n):
                if bool(L.leq[Q.mult[x, z], y]) != bool(L.leq[z, under]):
                    return f"left residual adjunction fails at ({x}, {y}, {z})"
                if bool(L.leq[Q.mult[z, x], y]) != bool(L.leq[z, over]):
                    return f"right residual adjunction fails at ({x}, {y}, {z})"
    return None


def _m5_cyclic_dualizing():
    Q = m5_quantale()
    d = list(Q.carrier.names).index("d")
    cyc = q_cyclic(Q)
    if cyc != [i for i in range(Q.carrier.n) if i != d]:
        return f"cyclic members {cyc}"
    if q_dualizing(Q) != [d]:
        return f"dualizing members {q_dualizing(Q)}"
    return None


def _m5_unit_from_dualizing():
    Q = m5_quantale()
    n = Q.carrier.n
    for d in q_dualizing(Q):
        u, _ = q_residuals(Q, d, d)
        if Q.mult[u].tolist() != list(range(n)) or Q.mult[:, u].tolist() != list(range(n)):
            return f"self-division of dualizing member {d} gives non-unit {u}"
    return None


M5_CHECKS: list[tuple[str, object]] = [
    ("m5-axioms", _m5_axioms),
    ("m5-unit", _m5_unit),
    ("m5-residual-adjunction", _m5_residual_adjunction),
    ("m5-cyclic-dualizing", _m5_cyclic_dualizing),
    ("m5-unit-from-dualizing", _m5_unit_from_dualizing),
]


def run_m5_suite(checks: tuple[str, ...] | None = None) -> Report:
    """Checks for the hard-coded seven-element quantale."""
    results = _run_checks(M5_CHECKS, checks, [cid for cid, _ in M5_CHECKS])
    Q = m5_quantale()
    d = list(Q.carrier.names).index("d")
    summary = {
        "unit": Q.unit(),
        "cyclic_count": len(q_cyclic(Q)),
        "dualizing_count": len(q_dualizing(Q)),
        "non_cyclic": [i for i in range(Q.carrier.n) if i not in q_cyclic(Q)],
        "dualizing": q_dualizing(Q),
    }
    return Report(
        name="m5-quantale",
        size=Q.carrier.n,
        hash=Q.carrier.hash_id,
        results=results,
        summary=summary,
    )


# -- corpus --------------------------------------------------------------------------------


def corpus() -> list[tuple[str, Lattice, Poset | None]]:
    """The reference collection: chains, boolean cubes, the three modular /
    non-modular examples, and downset lattices of every order with at most
    three points."""
    entries: list[tuple[str, Lattice, Poset | None]] = []
    for k in range(1, 6):
        entries.append((f"chain{k}", make_chain(k), None))
    for k in range(1, 4):
        entries.append((f"boolean{k}", make_boolean(k), None))
    entries.append(("m3", make_mk(3), None))
    entries.append(("m5", make_mk(5), None))
    entries.append(("n5", make_n5(), None))
    posets = [
        ("point", Poset(np.ones((1, 1), dtype=bool))),
        ("antichain2", Poset(np.eye(2, dtype=bool))),
        ("chain2", Poset.from_covers(2, [(0, 1)])),
        ("antichain3", Poset(np.eye(3, dtype=bool))),
        ("chain3", Poset.from_covers(3, [(0, 1), (1, 2)])),
        ("vee", Poset.from_covers(3, [(0, 1), (0, 2)])),
        ("wedge", Poset.from_covers(3, [(0, 2), (1, 2)])),
        ("chain2-plus-point", Poset.from_covers(3, [(0, 1)])),
    ]
    for pname, P in posets:
        entries.append((f"downset-{pname}", downset_lattice(P), P))
    return entries


# -- rendering -----------------------------------------------------------------------------


def report_to_json(reports: list[Report]) -> str:
    doc = {"reports": [r.to_doc() for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


def report_to_text(reports: list[Report]) -> str:
    lines = []
    for r in reports:
        lines.append(f"== {r.name} (size {r.size}, hash {r.hash}) ==")
        flags = " ".join(f"{k}={json.dumps(v)}" for k, v in r.summary.items())
        lines.append(f"summary: {flags}")
        for flag, error in r.flag_errors.items():
            lines.append(f"[FAIL] flag {flag}: {error}")
        for c in r.results:
            if c.status == "pass":
                lines.append(f"[PASS] {c.check_id} ({c.elapsed:.3f}s)")
            elif c.status == "fail":
                lines.append(f"[FAIL] {c.check_id}: {c.witness}")
            else:
                lines.append(f"[SKIP] {c.check_id}: {c.reason}")
        if r.results:
            passed = sum(1 for c in r.results if c.status == "pass")
            lines.append(f"{passed} passed, {r.failed} failed, {r.skipped} skipped")
        lines.append("")
    return "\n".join(lines)
