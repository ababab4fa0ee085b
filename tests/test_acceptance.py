"""Acceptance gate: the ten headline guarantees, each printed as one line.

Every comparison here is exact; there are no tolerances.  Each criterion
prints ``criterion N: PASS`` (or FAIL) on the real stdout so the lines are
visible in plain test runs.
"""
import functools
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from supq.lattice import (
    automorphisms,
    downset_lattice,
    is_distributive,
    join_irreducibles,
    meet_irreducibles,
)
from supq.maps import LatticeMap, identity_map
from supq.quantale import (
    automorphism_to_dualizing,
    conucleus_gap,
    division_formulas,
    dualizing_to_automorphism,
    enumerate_homset,
    enumerate_inf_maps,
    find_cyclic,
    find_dualizing,
    is_girard,
    left_adjoint_tables,
    raney_down,
    raney_down_tables,
    raney_up_tables,
    right_adjoint_tables,
    star,
    tight_has_unit,
    tight_interior,
)
from supq.structures import (
    autodual_report,
    classify_natural,
    downset_automorphism,
    homset_irreducibles,
    m5_quantale,
    q_cyclic,
    q_dualizing,
    q_residuals,
    supmap_from_wk,
    wk_from_automorphism,
    wk_from_supmap,
)
from supq.verify import _Ctx, SuiteConfig, check_division_formulas, corpus, report_to_json, run_suite

from oracles import order_on_J
from perfbench import verdicts, workloads

NON_DISTRIBUTIVE = {"m3", "m5", "n5"}
GOLDEN_CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "corpus.json"

CRITERION_LINES = []


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _record(f"criterion {num}: FAIL")
                raise
            _record(f"criterion {num}: PASS")

        return wrapper

    return deco


def _record(line):
    CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def world():
    entries = corpus()
    homsets = {name: enumerate_homset(L) for name, L, _ in entries}
    return entries, homsets


@criterion(1)
def test_criterion_01_counterexample_quantale():
    t0 = time.perf_counter()
    Q = m5_quantale()
    names = list(Q.carrier.names)
    u, d = names.index("u"), names.index("d")
    n = Q.carrier.n
    mult, leq = Q.mult, Q.carrier.leq
    for x, y, z in itertools.product(range(n), repeat=3):
        assert mult[mult[x, y], z] == mult[x, mult[y, z]]
    assert Q.unit() == u
    assert mult[u].tolist() == list(range(n))
    assert mult[:, u].tolist() == list(range(n))
    for x, y in itertools.product(range(n), repeat=2):
        under, over = q_residuals(Q, x, y)
        for z in range(n):
            assert bool(leq[mult[x, z], y]) == bool(leq[z, under])
            assert bool(leq[mult[z, x], y]) == bool(leq[z, over])
    assert q_dualizing(Q) == [d]
    cyclic = q_cyclic(Q)
    assert [c for c in range(n) if c not in cyclic] == [d]
    assert time.perf_counter() - t0 < 1.0


@criterion(2)
def test_criterion_02_girard_exactly_on_distributive_members(world):
    t0 = time.perf_counter()
    entries, homsets = world
    for name, L, _ in entries:
        H = homsets[name]
        if name in NON_DISTRIBUTIVE:
            assert not is_girard(H)
            assert find_dualizing(H) == []
            assert find_cyclic(H) == [H.top_index]
        else:
            assert is_girard(H)
            o = int(H.index_rows(raney_down_tables(L, np.arange(L.n, dtype=np.int16)))[0])
            assert o in find_cyclic(H)
            assert o in find_dualizing(H)
    assert time.perf_counter() - t0 < 60.0


@criterion(3)
def test_criterion_03_dualizing_members_match_automorphisms(world):
    entries, homsets = world
    for name, L, _ in entries:
        if name in NON_DISTRIBUTIVE:
            continue
        H = homsets[name]
        duals = find_dualizing(H)
        auts = automorphisms(L)
        assert len(duals) == len(auts)
        for i in duals:
            g = dualizing_to_automorphism(H, i)
            assert tuple(g) in {tuple(a) for a in auts}
            assert automorphism_to_dualizing(H, g) == i
        for g in auts:
            i = automorphism_to_dualizing(H, g)
            assert i in duals
            assert dualizing_to_automorphism(H, i) == tuple(g)
    assert len(find_dualizing(homsets["boolean2"])) == 2


@criterion(4)
def test_criterion_04_tight_unit_and_interior_composition(world):
    entries, homsets = world
    for name, L, _ in entries:
        H = homsets[name]
        cd = is_distributive(L)
        unit = tight_has_unit(H)
        gap = conucleus_gap(H)
        if cd:
            assert unit == H.identity_index
            assert gap is None
        else:
            assert name in NON_DISTRIBUTIVE
            assert unit is None
            assert gap is not None
            i, j = gap
            lhs = tight_interior(H.map_at(i)).compose(tight_interior(H.map_at(j)))
            rhs = tight_interior(H.map_at(i).compose(H.map_at(j)))
            assert lhs.table != rhs.table
            assert lhs.leq(rhs)


@criterion(5)
def test_criterion_05_residuals_are_brute_force_maxima(world):
    entries, homsets = world
    for name, L, _ in entries:
        H = homsets[name]
        if H.m > 512:
            continue
        leq = order_on_J(H)
        tabs = H.tables.astype(np.int64)
        comp = np.empty((H.m, H.m), dtype=np.int64)
        for g in range(H.m):
            comp[g] = H.index_rows(H.tables[g][tabs])
        every = np.arange(H.m)
        for h in range(H.m):
            solutions = leq[comp, h]  # [g, f] = (g o f <= h)
            ld = H.ldiv_indices(h)
            rd = H.rdiv_indices(h)
            assert solutions[every, ld].all(), "the left residual must solve its inequality"
            assert solutions[rd, every].all(), "the right residual must solve its inequality"
            assert (solutions == leq[:, ld].T).all(), "solution sets must be residual downsets"
            assert (solutions == leq[:, rd]).all(), "solution sets must be residual downsets"
        ctx = _Ctx(L, SuiteConfig())
        assert check_division_formulas(ctx) is None
        if H.m <= 64:
            for i in range(H.m):
                f = H.map_at(i)
                for y in range(L.n):
                    for x in range(L.n):
                        division_formulas(f, y, x)  # raises on any formula mismatch


@criterion(6)
def test_criterion_06_transform_adjunction_and_exchange(world):
    entries, homsets = world
    for name, L, _ in entries:
        H = homsets[name]
        inf = enumerate_inf_maps(L)
        down = raney_down_tables(L, inf)
        up = raney_up_tables(L, H.tables)
        lhs = np.ones((len(inf), H.m), dtype=bool)
        rhs = np.ones((len(inf), H.m), dtype=bool)
        for t in range(L.n):
            lhs &= L.leq[down[:, t][:, None], H.tables[:, t][None, :]]
            rhs &= L.leq[inf[:, t][:, None], up[:, t][None, :]]
        assert (lhs == rhs).all(), "down transform must be left adjoint to the up transform"
        assert (left_adjoint_tables(L, L, up) == raney_down_tables(L, H.rho_tables)).all()
        assert (right_adjoint_tables(L, L, down) == raney_up_tables(L, left_adjoint_tables(L, L, inf))).all()
        ident = np.arange(L.n, dtype=np.int16)
        tight_id = raney_down_tables(L, raney_up_tables(L, ident))[0]
        assert ((tight_id == ident).all()) == is_distributive(L)


@criterion(7)
def test_criterion_07_irreducible_members_count(world):
    entries, homsets = world
    frozen = {
        "chain2": (1, 1),
        "chain3": (4, 4),
        "chain4": (9, 9),
        "boolean2": (4, 4),
        "boolean3": (9, 9),
        "m3": (15, 9),
        "n5": (10, 9),
        "m5": (745, 25),
    }
    for name, L, _ in entries:
        H = homsets[name]
        rep = homset_irreducibles(H)
        assert rep.meet_equals_tensors
        assert rep.e_within_join_irreducibles
        assert rep.tensors_pairwise_distinct and rep.e_pairwise_distinct
        nj = len(rep.join_irreducible_indices)
        nm = len(rep.meet_irreducible_indices)
        product = len(join_irreducibles(L)) * len(meet_irreducibles(L))
        assert nm == product
        if name in frozen:
            assert (nj, nm) == frozen[name]
        if is_distributive(L):
            assert nj == product
        else:
            assert nj > product
            assert autodual_report(H).verdict == "not-autodual"


@criterion(8)
def test_criterion_08_weakening_relations(world):
    entries, _ = world
    for name, L, P in entries:
        if P is None:
            continue
        D = downset_lattice(P)
        H = enumerate_homset(D)
        n = P.n
        seen = set()
        for i in range(H.m):
            f = LatticeMap(D, D, H.tables[i])
            R = wk_from_supmap(P, f)
            assert supmap_from_wk(R).table == f.table
            seen.add(R.pairs)
        assert len(seen) == H.m
        cells = list(itertools.product(range(n), repeat=2))
        brute = 0
        for bits in range(1 << len(cells)):
            chosen = {cells[k] for k in range(len(cells)) if bits >> k & 1}
            closed = all(
                (y2, x2) in chosen
                for (y, x) in chosen
                for y2 in range(n)
                for x2 in range(n)
                if P.leq[y2, y] and P.leq[x, x2]
            )
            if closed:
                brute += 1
                assert frozenset(chosen) in seen
        assert brute == H.m
        below = frozenset((y, x) for y in range(n) for x in range(n) if P.leq[y, x])
        assert wk_from_supmap(P, identity_map(D)).pairs == below
        not_above = frozenset((y, x) for y in range(n) for x in range(n) if not P.leq[x, y])
        assert wk_from_supmap(P, raney_down(identity_map(D))).pairs == not_above
        duals = set(find_dualizing(H))
        for g in P.automorphisms():
            R = wk_from_automorphism(P, g)
            assert R.pairs == frozenset(
                (y, x) for y in range(n) for x in range(n) if not P.leq[x, g[y]]
            )
            f = supmap_from_wk(R)
            assert H.index_of(f) in duals
            assert star(f).table == downset_automorphism(P, g).table


@criterion(9)
def test_criterion_09_exactly_two_natural_families(world):
    t0 = time.perf_counter()
    entries, homsets = world
    for name in ("chain2", "chain3", "boolean2", "m3"):
        result = classify_natural(homsets[name])
        assert result.count == 2
        assert sorted(f.label for f in result.natural) == ["raney", "trivial"]
    assert time.perf_counter() - t0 < 120.0


@criterion(10)
def test_criterion_10_corpus_verification_is_byte_deterministic():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "supq.cli", "verify", "--corpus", "--format", "json"],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0] == GOLDEN_CORPUS.read_bytes()
    doc = json.loads(runs[0])
    assert len(doc["reports"]) == 19
    for entry in doc["reports"]:
        assert not any(c["status"] == "fail" for c in entry["checks"])


@pytest.mark.parametrize("workload", ["midsize", "large"])
def test_midsize_verification_equals_its_golden(workload):
    """Criterion 10's byte-identity on the benchmark's midsize workload at
    seed 0, homsets of 2,150 to 2,500 members, and on its large workload,
    whose m4 x chain2 has the largest slot table of the goldens, run in this
    process."""
    reports = [run_suite(L, SuiteConfig(), name=name, poset=P) for name, L, P in workloads.build(workload, 0)]
    assert report_to_json(reports) == GOLDEN_CORPUS.with_name(f"{workload}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", ["corpus", "midsize"])
def test_a_relabelled_workload_gives_every_golden_verdict(workload):
    """At seed 1 every element is relabelled, so the lex order of the
    homset and of the one enumeration of L.op that galois-adjunction sorts
    the rho rows against both change; every check status and summary flag
    still equals its golden, by `perfbench.verdicts.compare`."""
    _, golden = verdicts.load_golden(workload)
    entries = workloads.build(workload, 1)
    assert [name for name, _, _ in entries] == [doc["lattice"]["name"] for doc in golden]
    for (name, L, P), want in zip(entries, golden):
        attempted, mismatched = verdicts.compare(run_suite(L, SuiteConfig(), name=name, poset=P).to_doc(), want)
        assert attempted > 0 and mismatched == 0, name

