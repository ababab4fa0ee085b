"""Tests of the benchmark itself: inputs, golden comparison and tracer.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from supq import lattice, maps, quantale, verify
from supq.structures import find_order_isomorphism

from perfbench import run, workloads, worker
from perfbench.tracer import Tracer
from perfbench.verdicts import compare, load_golden

ROOT = Path(__file__).resolve().parents[2]
SMALL = ("chain3", "boolean2", "m3", "n5", "downset-vee", "downset-chain2-plus-point")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_relabelling_gives_isomorphic_lattices(workload, seed):
    base = workloads.build(workload, 0)
    moved = workloads.build(workload, seed)
    assert [e[0] for e in moved] == [e[0] for e in base]
    relabelled = 0
    for (_, L0, P0), (_, L1, P1) in zip(base, moved):
        assert find_order_isomorphism(L1.leq, L0.leq) is not None
        assert (P0 is None) == (P1 is None)
        if P0 is not None:
            assert find_order_isomorphism(P1.leq, P0.leq) is not None
        relabelled += not np.array_equal(L0.leq, L1.leq)
    assert relabelled > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_relabelling_keeps_every_verdict(seed):
    _, golden = load_golden("corpus")
    for j, (name, L, P) in enumerate(workloads.build("corpus", seed)):
        if name in SMALL:
            report = verify.run_suite(L, worker.CONFIG, name=name, poset=P)
            attempted, mismatched = compare(report.to_doc(), golden[j])
            assert attempted == len(report.results) + len(report.summary)
            assert mismatched == 0, name


def test_seed_zero_corpus_is_the_verify_corpus():
    for (n0, L0, P0), (n1, L1, P1) in zip(verify.corpus(), workloads.build("corpus", 0)):
        assert n0 == n1 and L0.same_structure(L1) and L0.names == L1.names
        assert (P0 is None) == (P1 is None)


def test_flipping_one_verdict_raises_the_mismatch_rate():
    _, golden = load_golden("midsize")
    doc = golden[0]
    attempted, mismatched = compare(doc, doc)
    assert attempted == len(doc["checks"]) + len(doc["summary"]) and mismatched == 0

    flipped = copy.deepcopy(doc)
    flipped["checks"][0]["status"] = "fail" if flipped["checks"][0]["status"] == "pass" else "pass"
    assert compare(flipped, doc) == (attempted, 1)

    flag = copy.deepcopy(doc)
    flag["summary"]["is_CD"] = not flag["summary"]["is_CD"]
    assert compare(flag, doc) == (attempted, 1)

    dropped = copy.deepcopy(doc)
    del dropped["checks"][-1]
    assert compare(dropped, doc) == (attempted, 1)

    assert compare(None, doc) == (attempted, attempted)


def _bindings():
    """Every binding the tracer may replace, by identity."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "supq" or name.startswith("supq.")]
    owners += [quantale.EndoHomset, maps.LatticeMap, lattice.Lattice]
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def _tracer():
    return Tracer(worker.LAYER_FUNCTIONS + (worker.SUMMARY_FLAGS,), worker.COUNTED_CLASSES,
                  worker.ENUMERATION)


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = _tracer()
    name, L, P = next(e for e in workloads.build("corpus", 0) if e[0] == "n5")
    with tracer:
        assert verify.find_cyclic is quantale.find_cyclic is not before[(repr(verify), "find_cyclic")]
        report = verify.run_suite(L, worker.CONFIG, name=name, poset=P)
    assert report.failed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    # the summary flags and two checks call find_dualizing, and is_girard calls
    # the quantale global twice more
    assert tracer.stats["quantale.find_dualizing"][0] == 5
    assert tracer.created["lattice.Lattice"] > 0


def test_tracer_restores_bindings_when_a_check_raises():
    before = _bindings()
    tracer = _tracer()
    L = lattice.make_n5()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            tracer.patch(verify, "CHECKS", [("boom", lambda ctx: 1 / 0)])
            verify.run_suite(L, worker.CONFIG)
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_lattice_charges_enumeration_to_its_own_phase():
    tracer = _tracer()
    name, L, P = next(e for e in workloads.build("corpus", 0) if e[0] == "boolean2")
    report, wall, outside = worker._traced_lattice((name, L, P), tracer)
    assert report.failed == 0 and 0 < outside < wall
    metrics = worker.layer_metrics(tracer, 1, 1, outside, 0.0)
    assert metrics["verify.enumeration_s"][0] > 0
    # the homset, and the inf-maps for the suite and for abstract_raney_check
    assert metrics["quantale.enumerate_homset.calls"][0] == 3
    checks = sum(v for k, (v, _) in metrics.items() if k.startswith("verify.check."))
    assert checks + metrics["verify.enumeration_s"][0] + outside == pytest.approx(wall, rel=0.05)
    for name in worker.LAYER_FUNCTIONS:
        assert metrics[f"{name}.self_s"][0] >= 0


def test_self_time_excludes_child_spans():
    tracer = Tracer([])

    def inner(x):
        return int(np.sort(x)[0])

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)
    traced_outer(np.arange(200_000))
    calls, self_s, rows, total, _ = tracer.stats["outer"]
    i_calls, i_self, _, i_total, _ = tracer.stats["inner"]
    assert (calls, rows, i_calls) == (1, 200_000, 2)
    assert self_s == pytest.approx(total - i_total)
    assert i_self == i_total and 0 <= self_s < total


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_per_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer([], worker.COUNTED_CLASSES)
    metrics = worker.layer_metrics(tracer, 1, 1, 0.0, 0.0)
    assert [m["name"] for m in doc["per_layer"]] == list(metrics)
    assert [m["unit"] for m in doc["per_layer"]] == [unit for _, unit in metrics.values()]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [w["name"] for w in doc["workloads"]] == ["corpus", "midsize"]


def test_tracer_skips_names_the_program_no_longer_defines():
    before = _bindings()
    tracer = Tracer(["quantale.no_such_kernel", "quantale.EndoHomset.no_such_method",
                     "quantale.find_cyclic"])
    with tracer:
        assert quantale.find_cyclic is not before[(repr(quantale), "find_cyclic")]
    assert tracer.missing == {"quantale.no_such_kernel", "quantale.EndoHomset.no_such_method"}
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_a_lattice_that_raises_fails_its_verdicts_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [("boom", lambda ctx: 1 / 0)])
    entries = workloads.build("corpus", 0)
    report, seconds = worker.run_lattice(entries[0])
    assert report is None and seconds >= 0
    tally = worker.Tally("corpus", check_bytes=True)
    tally.lattice(0, report)
    tally.full_pass([report])
    golden = tally.golden_docs[0]
    assert tally.failed == tally.attempted == len(golden["checks"]) + len(golden["summary"])
    assert tally.bytes_match is False


def test_speed_gauge_samples_while_entered_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    gauge = worker.SpeedGauge()
    with gauge:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(gauge.samples) >= 5
    assert 0 < gauge.spent < 0.3
    assert gauge.spent >= sum(gauge.samples)
