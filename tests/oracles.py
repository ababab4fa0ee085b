"""Test-only oracles: the order of a homset's members, the join kernel of
the J-keys, and the bodies that checks of the verifier replaced, kept to
compare the new forms against."""
import numpy as np

from supq import structures, verify
from supq.lattice import (
    Poset,
    downset_lattice,
    find_order_isomorphism,
    is_distributive,
    join_irreducibles,
    meet_irreducibles,
)
from supq.maps import (
    _as_rows,
    e_tables,
    join_fold,
    left_adjoint_tables,
    leq_tables,
    right_adjoint_tables,
    table_take,
    tensor_tables,
)
from supq.quantale import raney_down_tables


def join_of(L, xs) -> int:
    """The join in L of the elements xs, bottom when there are none, folded
    one element at a time."""
    acc = L.bottom
    for x in xs:
        acc = int(L.join[acc, x])
    return acc


def meet_of(L, xs) -> int:
    """The meet in L of the elements xs, top when there are none: the join in L.op."""
    return join_of(L.op, xs)


def join_indices(H, gs, fs) -> np.ndarray:
    """Index of the pointwise join g v f for every member g in gs and f in
    fs, shape (len(gs), len(fs)), from the J-keys by |J| gathers: a join of
    members is join-preserving, so its J-key settles it, the sum over k of
    jw[k, g(J[k]), f(J[k])] with jw[k, a, b] = radix[k] * join(a, b).  A
    join that is not a member raises KeyError, as in index_rows."""
    gs, fs = np.atleast_1d(gs), np.atleast_1d(fs)
    J, radix, _, _ = H._keys()
    g_tabs, f_tabs = H.tables[gs], H.tables[fs]
    jw = radix[:, None, None] * H.lattice.join.astype(radix.dtype)
    q = np.zeros((len(gs), len(fs)), dtype=jw.dtype)
    for k, x in enumerate(J):
        q += jw[k][g_tabs[:, x]].take(f_tabs[:, x], axis=1)
    return H._index_keys(q)


def lookup_rows(H, rows) -> np.ndarray:
    """Index of each row in the homset table, -1 for a row that is no member:
    the lookup `EndoHomset.index_rows` makes before it refuses absent rows."""
    rows = _as_rows(rows)
    idx = H._index_keys(H._j_keys(rows), strict=False)
    return np.where((H.tables[idx] == rows).all(axis=1), idx, -1)


def order_on_J(H) -> np.ndarray:
    """[i, k] = f_i <= f_k, the pointwise order of the members, compared on
    the join-irreducible columns: f(x) is the join of f(j) over the j <= x."""
    on_J = H.tables[:, join_irreducibles(H.lattice)]
    return leq_tables(H.lattice, on_J, on_J)


def residual_adjunction_by_order_matrix(H):
    """check_residual_adjunction before the count form, without its cap.  The
    solutions {f : g o f <= h} form a down-set, as g o - is monotone, so they
    are the down-set of g \\ h exactly when g o (g \\ h) <= h and the sizes
    agree (likewise for h / f with - o f).  Sizes are float32 products of the
    counts #{f : g o f = a} with the m x m order matrix, exact as every count
    is at most m."""
    leq = order_on_J(H)
    m = H.m
    step = max(1, verify.BLOCK_ROWS // m)
    dtype = np.min_scalar_type(m)
    comp = np.empty((m, m), dtype=dtype)  # [g, f] = index of g o f
    ld = np.empty((m, m), dtype=dtype)    # [g, h] = g \ h
    rd = np.empty((m, m), dtype=dtype)    # [f, h] = h / f
    for start in range(0, m, step):
        block = np.arange(start, min(start + step, m))
        comp[block] = H.compose_indices(block)
        ld[:, block] = H.ldiv_indices(block).T
        rd[:, block] = H.rdiv_indices(block).T
    below, sizes, rows = leq.astype(np.float32), leq.sum(axis=0, dtype=np.float32), np.arange(m)[:, None]
    bad_left = ~leq[comp[rows, ld], rows.T]   # [g, h]: g o (g \ h) <= h fails
    bad_right = ~leq[comp[rd, rows], rows.T]  # [f, h]: (h / f) o f <= h fails
    for start in range(0, m, step):
        part = slice(start, start + step)
        for tab, res, bad in ((comp, ld, bad_left), (comp.T, rd, bad_right)):
            keys = tab[part] + rows[:min(step, m - start)] * m
            counts = np.bincount(keys.ravel(), minlength=keys.size).reshape(-1, m)
            bad[part] |= counts.astype(np.float32) @ below != sizes[res[part]]
    failing = np.flatnonzero(bad_left.any(axis=0) | bad_right.any(axis=0))
    if failing.size:
        h = int(failing[0])
        if bad_left[:, h].any():
            return f"left residual adjunction fails at (g={int(np.argmax(bad_left[:, h]))}, h={h})"
        return f"right residual adjunction fails at (f={int(np.argmax(bad_right[:, h]))}, h={h})"
    return None


def residual_adjunction_by_pair_gathers(H):
    """check_residual_adjunction before its per-member below tables, without
    its cap: the same count form, with res[h, g] <= kappa read by the
    two-index gather L.leq[at, kappa] on the J-values of each residual, and
    both counts read off the keys of the residual and of kappa."""
    sides = [(S, verify._below_counts(S), np.ascontiguousarray(S.rho_tables.T)) for S in (H, H.op)]
    step = max(1, verify.BLOCK_ROWS // H.m)
    for start in range(0, H.m, step):
        hs = np.arange(start, min(start + step, H.m))
        bad = np.zeros((len(hs), 2, H.m), dtype=bool)  # [h, side, g]
        for s, ((S, cnt, rho_T), res) in enumerate(zip(sides, (H.ldiv_indices(hs), H.rdiv_indices(hs)))):
            J, radix, _, _ = S._keys()
            q_res = q_kappa = 0
            for k, j in enumerate(J):  # [h, g] = rho_g(h(J[k])) and res[h, g](J[k])
                kappa, at = rho_T[S.tables[hs, j]], S.tables[:, j][res]
                bad[:, s] |= ~S.lattice.leq[at, kappa]
                q_res, q_kappa = q_res + at * radix[k], q_kappa + kappa * radix[k]
            bad[:, s] |= cnt[q_res] != cnt[q_kappa]
        if bad.any():
            h, side, g = np.argwhere(bad)[0]
            return f"{('left', 'right')[side]} residual adjunction fails at ({'gf'[side]}={g}, h={hs[h]})"
    return None


def classify_natural_by_unique(H):
    """classify_natural before the lexsort: the distinct seeded rows, the
    distinct families and each family's first seed and seed count, all by
    np.unique."""
    L, n = H.lattice, H.lattice.n
    vs = np.arange(n)
    c_idx = H.index_rows(e_tables(L, L, vs, L.bottom))
    a_idx = H.index_rows(e_tables(L, L, L.top, vs))
    seeded = H.compose_indices(np.arange(H.m), a_idx)
    rows, _, row_of = np.unique(seeded, axis=0, return_index=True, return_inverse=True)
    comp = H.compose_indices(c_idx, rows.ravel()).reshape(n, len(rows), n)
    distinct, fam_of = np.unique(comp.transpose(1, 0, 2).reshape(len(rows), n * n),
                                 axis=0, return_inverse=True)
    _, first, seeds = np.unique(fam_of.ravel()[row_of.ravel()], return_index=True, return_counts=True)
    e_table = H.compose_indices(c_idx, a_idx)
    natural = []
    for k in np.argsort(first):
        fam = distinct[k].reshape(n, n)
        if not structures._family_is_natural(H, fam):
            continue
        if (fam == H.bottom_index).all():
            label = "trivial"
        elif (fam == e_table).all():
            label = "raney"
        else:
            label = "other"
        natural.append(structures.NaturalFamily(label=label, table=fam, seed_count=int(seeds[k])))
    natural.sort(key=lambda f: f.label != "trivial")
    return structures.NaturalClassification(natural=tuple(natural), candidate_family_count=len(distinct))


def raney_adjunction_sides(ctx) -> tuple[np.ndarray, np.ndarray]:
    """[g, f] = down(g) <= f and [g, f] = g <= up(f), for every inf map g, a
    rho row, and member f, once every down(g) is found among the members and
    every up(f) among the rho rows (KeyError otherwise); compared on J and
    on M.  down on L is the up transform of `H.op`."""
    L, H = ctx.L, ctx.homset
    H_op = H.op
    down, up = H_op.up_transform_tables, H.up_transform_tables
    H.index_rows(down)
    H_op.index_rows(up)
    J, M = join_irreducibles(L), meet_irreducibles(L)
    return leq_tables(L, down[:, J], H.tables[:, J]), leq_tables(L, H_op.tables[:, M], up[:, M])


def raney_adjunction_by_pairs(ctx):
    """check_raney_adjunction before the cover-edge form: both sides of
    down(g) <= f <=> g <= up(f) on all m_inf x m pairs."""
    ctx.homset_capped(verify.MATRIX_CAP, "transform adjunction scan")
    lhs, rhs = raney_adjunction_sides(ctx)
    if not (lhs == rhs).all():
        g, f = np.argwhere(lhs != rhs)[0]
        return f"transform adjunction fails at pair ({g}, {f})"
    return None


def tight_subset_every_composite(ctx):
    """check_tight_subset before its all-tight skip and its cover-edge form:
    every composite of members and every join of tight members is looked
    up, whatever the mask holds, and then the down image is compared."""
    H = ctx.homset_capped(verify.MATRIX_CAP, "tight subset scan")
    tight = H.tight_indices()
    mask = H.tight_mask
    members = np.arange(H.m)
    step = max(1, verify.BLOCK_ROWS // H.m)
    left = np.empty(H.m, dtype=bool)  # [g]: g o f is tight for every f
    right = np.ones(H.m, dtype=bool)  # [f]: g o f is tight for every g
    for start in range(0, H.m, step):
        block = members[start:start + step]
        closed = mask[H.compose_indices(block, members)]
        left[block] = closed.all(axis=1)
        right &= closed.all(axis=0)
    escaping = tight[~(left[tight] & right[tight])]
    if escaping.size:
        t = int(escaping[0])
        side = "left" if not left[t] else "right"
        return f"{side} composite with tight member {t} escapes the tight subset"
    step = max(1, verify.BLOCK_ROWS // max(1, len(tight)))
    for start in range(0, len(tight), step):
        if not mask[join_indices(H, tight[start:start + step], tight)].all():
            return "tight subset is not closed under joins"
    down_idx = np.unique(H.index_rows(H.op.up_transform_tables))
    if set(down_idx.tolist()) != set(int(i) for i in tight):
        return "image of the down transform differs from the tight subset"
    if (len(down_idx) == H.m) != bool(mask[H.identity_index]):
        return "down transform surjectivity disagrees with tightness of the identity"
    return None


def wk_composition_by_rows(ctx):
    """check_wk_composition before the packed codes and the generators:
    row y of R_i;R_j against row y of the relation of each composite, for
    every pair (i, j), in blocks of rows i."""
    P, H = ctx.poset, ctx.homset
    rels = verify.wk_tables(P, H.tables)
    rowbits = rels @ (np.int64(1) << np.arange(P.n, dtype=np.int64))
    sets, row_set = np.unique(rowbits, return_inverse=True)
    row_set = row_set.reshape(rowbits.shape)
    unions = np.zeros((len(sets), H.m), dtype=np.int64)
    for z in range(P.n):
        unions |= np.where((sets[:, None] >> z) & 1 == 1, rowbits[:, z], 0)
    members = np.arange(H.m)
    step = max(1, verify.BLOCK_ROWS // H.m)
    for start in range(0, H.m, step):
        block = members[start:start + step]
        comp = H.compose_indices(block, members)
        got = unions[row_set[block]]  # [i, y, j] = row y of R_i;R_j
        bad = (got != rowbits[comp].transpose(0, 2, 1)).any(axis=1)
        if bad.any():
            b, j = np.argwhere(bad)[0]
            return f"relational composition differs from map composition at ({block[b]}, {j})"
    return None


def wk_composition_per_member(ctx, right=None):
    """Relational against map composition, one member f_i at a time, with
    the composites materialized and looked up by index_rows; on the right
    every member, or the members `right` in index order."""
    P, H = ctx.poset, ctx.homset
    right = np.arange(H.m) if right is None else np.sort(right)
    rels = verify.wk_tables(P, H.tables).astype(np.int32)
    tabs = H.tables[right].astype(np.int64)
    for i in range(H.m):
        comp_idx = H.index_rows(H.tables[i][tabs])
        bad = (((rels[i] @ rels[right]) > 0) != (rels[comp_idx] > 0)).any(axis=(1, 2))
        if bad.any():
            return f"relational composition differs from map composition at ({i}, {right[np.argmax(bad)]})"
    return None


def right_adjoint_tables_every_x(source, target, tables) -> np.ndarray:
    """right_adjoint_tables before the fold over J(source): for each target
    element y, one join_fold over every source element x, as bottom where
    f(x) not<= y; exact for any row, monotone or not."""
    f = np.ascontiguousarray(_as_rows(tables).T, dtype=np.intp)  # [x, row]
    xs = np.arange(source.n, dtype=np.int16)[:, None]
    out = [join_fold(source, np.where(target.leq[:, y].take(f), xs, source.bottom)) for y in range(target.n)]
    return np.ascontiguousarray(np.stack(out).T, dtype=np.int16)


def galois_adjunction_every_x(ctx):
    """check_galois_adjunction before the restriction to J(L): f(x) <= y
    against x <= rho_f(y) on all m x n x n cells, then the inversion tests
    by both adjoint kernels: the left adjoint on the members' rho rows, and
    the right adjoint on the left adjoints of the inf maps, enumerated as
    the homset of L.op by the verifier's `enumerate_homset`."""
    H, L = ctx.homset, ctx.L
    rho = H.rho_tables
    for start in range(0, H.m, 4096):
        tab = H.tables[start : start + 4096].astype(np.int64)
        rh = rho[start : start + 4096].astype(np.int64)
        lhs = L.leq[tab]                       # [i, x, y] = f(x) <= y
        rhs = L.leq.T[rh].transpose(0, 2, 1)   # [i, x, y] = x <= rho f (y)
        if not (lhs == rhs).all():
            i = int(np.argwhere((lhs != rhs).any(axis=(1, 2)))[0][0]) + start
            return f"adjunction fails for member {i}"
    if not (left_adjoint_tables(L, L, rho) == H.tables).all():
        return "lower adjoint does not invert the upper adjoint"
    inf = verify.enumerate_homset(L.op, cap=ctx.config.max_homset).tables
    if not (right_adjoint_tables(L, L, left_adjoint_tables(L, L, inf)) == inf).all():
        return "upper adjoint does not invert the lower adjoint"
    return None


def star_by_down_kernel(H) -> np.ndarray:
    """EndoHomset.star_indices before star became the up transform of
    `H.op`: the strict lookup of the down kernel on the rho rows."""
    return H.index_rows(raney_down_tables(H.lattice, H.rho_tables))


def tight_interior_by_down_kernel(H) -> np.ndarray:
    """The tight interior before it became an index composition: the strict
    lookup of the down kernel on the up transform rows."""
    return H.index_rows(raney_down_tables(H.lattice, H.up_transform_tables))


def raney_transform_exchange_by_both_adjoints(ctx):
    """check_raney_transform_exchange before its two sides became one loop
    over the right adjoint on L and on L.op: the right adjoint kernel on the
    inf maps, the rho rows of `H.op`, then the left adjoint kernel on the
    members."""
    L, H = ctx.L, ctx.homset
    H_op = H.op
    if not (right_adjoint_tables(L, L, H_op.up_transform_tables)
            == H_op.tables[H_op.star_indices]).all():
        return "upper adjoint of the down transform differs from the up transform of the lower adjoint"
    if not (left_adjoint_tables(L, L, H.up_transform_tables) == H.tables[H.star_indices]).all():
        return "lower adjoint of the up transform differs from the down transform of the upper adjoint"
    return None


def irreducibles_by_signatures(H):
    """structures.homset_irreducibles before the one-gather cover test: the
    candidates f meet tau_k are compared by their signatures {k : g(j_k) <=
    m_k}, packed into uint64 words, f <= g exactly when sig(g) is within
    sig(f); not memoized."""
    L = H.lattice
    jl, ml = join_irreducibles(L), meet_irreducibles(L)
    ms, js = np.array(ml, dtype=np.int64)[:, None], np.array(jl, dtype=np.int64)[None, :]
    tensors = [int(i) for i in H.index_rows(tensor_tables(L, L, ms, js).reshape(-1, L.n))]
    es = [int(i) for i in H.index_rows(e_tables(L, L, js, ms).reshape(-1, L.n))]
    J, radix, _, _ = H._keys()
    mk, jk = np.repeat(ms.ravel(), len(jl)), np.tile(js.ravel(), len(ml))
    on_J, below = H.tables[:, J], L.leq[J][:, jk].T
    vals = np.where(below, table_take(L.meet, on_J[:, None, :], mk[:, None]), on_J[:, None, :])
    cand = H._interior_keys(vals.astype(np.int64) @ radix)
    inside = table_take(L.leq, H.tables[:, jk], mk)
    sig = np.packbits(np.pad(inside, ((0, 0), (0, -len(mk) % 64))), axis=1, bitorder="little")
    sig = np.ascontiguousarray(sig).view(np.uint64)  # [g, word]
    live, maximal = ~inside, ~inside
    step = max(1, (1 << 18) // max(1, len(mk)) ** 2)
    for r in (slice(s, s + step) for s in range(0, H.m, step)):
        c = sig[cand[r]]  # [f, k, word] = sig(f meet tau_k)
        above = ~(c[:, None] & ~c[:, :, None]).any(axis=3)  # [f, a, b]: cand b >= cand a
        above &= live[r, None, :] & (cand[r, None, :] != cand[r, :, None])
        maximal[r] &= ~above.any(axis=2)
    lower = np.where(maximal, cand, -1)
    lower.sort(axis=1)
    first = lower >= 0
    first[:, 1:] &= lower[:, 1:] != lower[:, :-1]
    f, g = np.nonzero(first)[0], lower[first]
    j_idx = tuple(int(i) for i in np.flatnonzero(np.bincount(f, minlength=H.m) == 1))
    m_idx = tuple(int(i) for i in np.flatnonzero(np.bincount(g, minlength=H.m) == 1))
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
        lower_cover_edges=(f, g),
    )


def downset_irreducibles_by_search(ctx):
    """check_downset_irreducibles before Birkhoff's map: any order
    isomorphism of D(J(L)) onto a distributive L, found by the backtracking
    search, whose node cap can stop it."""
    L = ctx.L
    J = join_irreducibles(L)
    P = Poset(L.leq[np.ix_(J, J)].copy())
    D = downset_lattice(P)
    if len(join_irreducibles(D)) != P.n:
        return f"downset lattice of the {P.n}-point order has {len(join_irreducibles(D))} join-irreducibles"
    if is_distributive(L):
        if D.n != L.n:
            return f"representation size {D.n} differs from lattice size {L.n}"
        if find_order_isomorphism(D.leq, L.leq) is None:
            return "downset representation is not isomorphic to the lattice"
    return None


def q_residuals_by_joins(Q, x, y) -> tuple[int, int]:
    """structures.q_residuals before the adjoint tables: (x\\y, y/x) as the
    joins of every z with x*z <= y, resp. z*x <= y."""
    L = Q.carrier
    under = join_of(L, (z for z in range(L.n) if L.leq[Q.mult[x, z], y]))
    over = join_of(L, (z for z in range(L.n) if L.leq[Q.mult[z, x], y]))
    return under, over
