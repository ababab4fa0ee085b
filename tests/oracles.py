"""Test-only oracles: the order of a homset's members, and the bodies that
checks of the verifier replaced, kept to compare the new forms against."""
import numpy as np

from supq import verify
from supq.lattice import join_irreducibles
from supq.maps import leq_tables


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
