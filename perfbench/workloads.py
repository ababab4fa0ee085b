"""The benchmark's inputs: three lists of (name, lattice, poset) entries.

A seed applies one random relabelling of the elements to every entry; seed 0
is the identity, so the `corpus` workload at seed 0 is exactly
`verify.corpus()`.  Verdicts do not depend on labels, so every seed is checked
against the same golden verdicts.
"""
from __future__ import annotations

import numpy as np

from supq.lattice import Lattice, Poset, downset_lattice, make_chain, make_mk, make_n5
from supq.verify import corpus

WORKLOADS = ("corpus", "midsize", "large")


def product(A: Lattice, B: Lattice) -> Lattice:
    """The product lattice A x B under the componentwise order."""
    return Lattice(np.kron(A.leq, B.leq))


def _recipes(workload: str) -> list[tuple[str, object, bool]]:
    """(name, lattice or poset, run with the poset) for each entry, unlabelled."""
    if workload == "corpus":
        return [(name, P if P is not None else L, P is not None) for name, L, P in corpus()]
    if workload == "midsize":
        vee_plus_point = Poset.from_covers(4, [(0, 1), (0, 2)])
        return [
            ("m3xchain2", product(make_mk(3), make_chain(2)), False),
            ("n5xchain2", product(make_n5(), make_chain(2)), False),
            ("downset-vee-plus-point", vee_plus_point, True),
        ]
    if workload == "large":
        # chain3 x boolean2 is the downset lattice of a 2-chain beside two points
        chain2_plus_two = Poset.from_covers(4, [(0, 1)])
        return [
            ("chain3xboolean2", chain2_plus_two, False),
            ("m4xchain2", product(make_mk(4), make_chain(2)), False),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _relabel_poset(P: Poset, perm: np.ndarray) -> Poset:
    return Poset(P.leq[np.ix_(perm, perm)], [P.names[i] for i in perm], _validated=True)


def _relabel_lattice(L: Lattice, perm: np.ndarray) -> Lattice:
    return Lattice(L.leq[np.ix_(perm, perm)], [L.names[i] for i in perm])


def build(workload: str, seed: int) -> list[tuple[str, Lattice, Poset | None]]:
    """The workload's entries, relabelled by the seed (seed 0: unchanged)."""
    if workload == "corpus" and seed == 0:
        return corpus()
    rng = np.random.default_rng(seed)
    entries = []
    for name, base, with_poset in _recipes(workload):
        perm = rng.permutation(base.n) if seed else np.arange(base.n)
        if isinstance(base, Poset):
            P = _relabel_poset(base, perm) if seed else base
            entries.append((name, downset_lattice(P), P if with_poset else None))
        else:
            entries.append((name, _relabel_lattice(base, perm) if seed else base, None))
    return entries


def fresh_copy(L: Lattice) -> Lattice:
    """The same lattice with an empty derived-structure cache, so every
    repetition pays for what a fresh `supq verify` process pays for."""
    return Lattice(L.poset, join=L.join, meet=L.meet, _validated=True)
