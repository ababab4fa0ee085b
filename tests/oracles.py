"""Test-only oracles: the order of a homset's members, the join kernel of
the J-keys, and the bodies that checks of the verifier replaced, kept to
compare the new forms against."""
import numpy as np

from supq import quantale, verify
from supq.lattice import join_irreducibles, meet_irreducibles
from supq.maps import leq_tables


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


def raney_adjunction_sides(ctx) -> tuple[np.ndarray, np.ndarray]:
    """[g, f] = down(g) <= f and [g, f] = g <= up(f), for every inf map g and
    member f, once every down(g) is found among the members and every up(f)
    among the inf maps (KeyError otherwise); compared on J and on M."""
    L, H, H_op = ctx.L, ctx.homset, ctx.inf_homset
    down, up = H_op.up_transform_tables, H.up_transform_tables
    H.index_rows(down)
    H_op.index_rows(up)
    J, M = join_irreducibles(L), meet_irreducibles(L)
    return leq_tables(L, down[:, J], H.tables[:, J]), leq_tables(L, H_op.tables[:, M], up[:, M])


def raney_adjunction_by_pairs(ctx):
    """check_raney_adjunction before the cover-edge form: both sides of
    down(g) <= f <=> g <= up(f) on all m_inf x m pairs."""
    ctx.homset_capped(quantale.MATRIX_CAP, "transform adjunction scan")
    lhs, rhs = raney_adjunction_sides(ctx)
    if not (lhs == rhs).all():
        g, f = np.argwhere(lhs != rhs)[0]
        return f"transform adjunction fails at pair ({g}, {f})"
    return None


def tight_subset_every_composite(ctx):
    """check_tight_subset before its all-tight skip and its cover-edge form:
    every composite of members and every join of tight members is looked
    up, whatever the mask holds, and then the down image is compared."""
    H = ctx.homset_capped(quantale.MATRIX_CAP, "tight subset scan")
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
    down_idx = np.unique(H.index_rows(ctx.inf_homset.up_transform_tables))
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
