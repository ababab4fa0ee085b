"""One benchmark run, in a fresh process started by `perfbench/run.py`.

    python -m perfbench.worker --workload corpus --seed 0 --seconds 50 --trace 0

It drives `verify.run_suite` and `verify.report_to_json` as `supq verify`
does, as a closed loop with one caller: the next lattice starts when the
previous report returns.  It prints one JSON object on standard output.

With `--trace 0` it makes one full pass over the workload's lattices and then
repeats lattices, slowest first, while each is expected to end within
`--seconds`; it reports the sum of the per-lattice median times, as measured
and with each lattice run scaled to the reference speed of a fixed
pure-Python loop timed during it.  With `--trace 1` each pass
runs every lattice once untraced and once traced, and it reports the
per-layer figures of one traced pass; the untraced runs give the tracing
overhead.  With `--setup-only` it stops after set-up.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from supq import verify  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.verdicts import compare, load_golden  # noqa: E402

# the defaults of `supq verify --corpus`
CONFIG = verify.SuiteConfig()

# the layers' functions, each reported as <name>.{calls,self_s,rows}
LAYER_FUNCTIONS = (
    "lattice.automorphisms",
    "lattice.is_distributive",
    "lattice.downset_lattice",
    "maps.sup_interior_tables",
    "maps.right_adjoint",
    "quantale.enumerate_homset",
    "quantale.enumerate_inf_maps",
    "quantale.right_adjoint_tables",
    "quantale.left_adjoint_tables",
    "quantale.raney_down_tables",
    "quantale.raney_up_tables",
    "quantale.find_cyclic",
    "quantale.find_dualizing",
    "quantale.is_girard",
    "quantale.is_cyclic",
    "quantale.is_dualizing",
    "quantale.EndoHomset.leq_matrix",
    "quantale.EndoHomset.index_rows",
    "quantale.EndoHomset.rdiv_indices",
    "quantale.EndoHomset.ldiv_indices",
    "quantale.tight_has_unit",
    "quantale.conucleus_gap",
    "structures.classify_natural",
    "structures.homset_irreducibles",
    "structures.autodual_report",
    "structures.find_order_isomorphism",
    "structures.abstract_raney_check",
    "structures.wk_compose",
)
COUNTED_CLASSES = ("maps.LatticeMap", "lattice.Lattice")
# homset and inf-map enumeration is a phase of its own, not part of the
# check that first asks for the homset
ENUMERATION = ("quantale.enumerate_homset", "quantale.enumerate_inf_maps")
SUMMARY_FLAGS = "verify._summary_flags"
# searches that a lattice needs once; more calls per lattice are repeated work
PER_LATTICE_RATIOS = ("quantale.enumerate_homset", "quantale.find_dualizing", "quantale.find_cyclic")
# the checks of the suite, each reported as verify.check.<id>.s; fixed here so
# that the metric names stay the same when the program's catalog changes
CHECK_IDS = (
    "lattice-axioms", "dual-involution", "distributivity-agreement", "downset-irreducibles",
    "galois-adjunction", "generator-relations", "tensor-meet-decomposition",
    "infmap-join-decomposition", "sup-interior-props", "raney-adjunction",
    "raney-transform-exchange", "naturality-generators", "naturality-composite", "tight-subset",
    "cd-raney", "residual-adjunction", "division-formulas", "girard-cyclic",
    "dualizing-structure", "tight-unitality", "homset-irreducibles", "autodual",
    "natural-arrows", "abstract-raney", "wk-bijection", "wk-composition",
    "wk-automorphism-dualizing",
)

# The speed gauge.  A shared host runs each vCPU in fast and slow phases that
# last from a fraction of a second to minutes (a fixed loop took 1.4 to 1.75
# times longer in the slow ones), so the wall time of a pass moves with the
# share of slow phases in its run.  A short fixed pure-Python loop, timed
# every PROBE_EVERY_S seconds during the lattice runs, moves with it, so the
# wall time is also given scaled to the loop's reference speed.  The loop is
# no code of `supq`: a change to the program leaves its time alone.
PROBE_LOOP = 6_000
PROBE_EVERY_S = 0.02
PROBE_REF_S = 0.0006  # the loop on the reference machine of perfbench/baseline.json


class Tally:
    """Verdicts attempted and mismatched against the golden, over every run."""

    def __init__(self, workload: str, check_bytes: bool):
        self.golden_text, self.golden_docs = load_golden(workload)
        self.check_bytes = check_bytes
        self.attempted = 0
        self.failed = 0
        self.bytes_match = True if check_bytes else None
        self.first_pass: list = []
        self.json_s: list[float] = []

    def lattice(self, j: int, report) -> None:
        a, f = compare(report.to_doc() if report is not None else None, self.golden_docs[j])
        self.attempted += a
        self.failed += f

    def full_pass(self, reports: list) -> None:
        if not self.first_pass:
            self.first_pass = reports
        if any(r is None for r in reports):
            if self.check_bytes:
                self.bytes_match = False
            return
        t0 = time.perf_counter()
        text = verify.report_to_json(reports)
        self.json_s.append(time.perf_counter() - t0)
        if self.check_bytes and text != self.golden_text:
            self.bytes_match = False


def run_lattice(entry):
    """(report or None when the suite raised, seconds) for one lattice."""
    name, L, P = entry
    t0 = time.perf_counter()
    try:
        report = verify.run_suite(L, CONFIG, name=name, poset=P)
    except Exception:  # a crash costs this lattice's verdicts, not the run
        print(f"{name}: run_suite raised", file=sys.stderr)
        traceback.print_exc()
        report = None
    return report, time.perf_counter() - t0


def fresh(entries):
    return [(name, workloads.fresh_copy(L), P) for name, L, P in entries]


def probe() -> float:
    """Seconds of the fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedGauge:
    """While entered, times the probe loop on entry and then from a
    SIGALRM handler every PROBE_EVERY_S seconds.  `spent` is the time the
    probes took, which the caller takes out of the time it measures."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)


def measure(entries, tally: Tally, seconds: float) -> dict:
    """Untraced closed loop: one full pass over the lattices, then the
    slowest lattices again first, each while it is expected to end before
    the deadline, so that the lattices that dominate the sum get repeats.
    The speed gauge runs during every lattice run; wall_ref_s scales each
    run by the probe loop's reference time over its mean time in that run."""
    n = len(entries)
    times: list[list[float]] = [[] for _ in range(n)]
    ref_times: list[list[float]] = [[] for _ in range(n)]
    gauge = SpeedGauge()
    deadline = time.perf_counter() + seconds

    def run(j: int):
        name, L, P = entries[j]
        first = len(gauge.samples)
        with gauge:
            spent = gauge.spent
            report, dt = run_lattice((name, workloads.fresh_copy(L), P))
            dt -= gauge.spent - spent
        times[j].append(dt)
        ref_times[j].append(dt * PROBE_REF_S / statistics.fmean(gauge.samples[first:]))
        tally.lattice(j, report)
        return report

    tally.full_pass([run(j) for j in range(n)])
    slowest_first = sorted(range(n), key=lambda j: -times[j][0])
    ran = True
    while ran:
        ran = False
        for j in slowest_first:
            if time.perf_counter() + statistics.median(times[j]) <= deadline:
                run(j)
                ran = True
    medians = {entries[j][0]: statistics.median(times[j]) for j in range(n)}
    json_s = statistics.median(tally.json_s or [0.0])
    return {
        "wall_s": sum(medians.values()) + json_s,
        "wall_ref_s": sum(statistics.median(t) for t in ref_times) + json_s,
        "probe_s": statistics.fmean(gauge.samples),
        "probe_ref_s": PROBE_REF_S,
        "probes": len(gauge.samples),
        "per_lattice_s": medians,
        "lattice_runs": sum(len(t) for t in times),
    }


def _traced_lattice(entry, tracer: Tracer):
    """(report, wall seconds, seconds outside every check span) of one lattice
    run with the tracer installed."""
    def check_total() -> float:
        return sum(s[3] for key, s in tracer.stats.items() if key.startswith("verify.check."))

    before = check_total()
    tracer.install()
    try:
        for catalog in ("CHECKS", "POSET_CHECKS"):
            if hasattr(verify, catalog):
                tracer.patch(verify, catalog, [(cid, tracer.wrap(f"verify.check.{cid}", fn))
                                               for cid, fn in getattr(verify, catalog)])
        report, dt = run_lattice(entry)
    finally:
        tracer.remove()
    return report, dt, dt - (check_total() - before)


def trace(entries, tally: Tally, seconds: float) -> dict:
    """Passes in which every lattice runs once untraced and once traced, in
    alternating order, while a pass is expected to end before the deadline."""
    tracer = Tracer(LAYER_FUNCTIONS + (SUMMARY_FLAGS,), COUNTED_CLASSES, ENUMERATION)
    deadline = time.perf_counter() + seconds
    plain = traced = outside = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() + (plain + traced) / passes <= deadline:
        plain_reports, traced_reports = [], []
        # copies for the traced runs are made before the tracer counts creations
        for j, (entry, copy) in enumerate(zip(fresh(entries), fresh(entries))):
            for with_tracer in ((False, True) if j % 2 == 0 else (True, False)):
                if with_tracer:
                    report, dt, out = _traced_lattice(copy, tracer)
                    traced += dt
                    outside += out
                    traced_reports.append(report)
                else:
                    report, dt = run_lattice(entry)
                    plain += dt
                    plain_reports.append(report)
                tally.lattice(j, report)
        tally.full_pass(plain_reports)
        tally.full_pass(traced_reports)
        passes += 1
    return {"layers": layer_metrics(tracer, passes, len(entries), outside, traced / plain - 1.0),
            "lattice_runs": 2 * passes * len(entries)}


def _number(x: float):
    return int(x) if float(x).is_integer() else x


def layer_metrics(tracer: Tracer, passes: int, lattices: int, outside: float, overhead: float) -> dict:
    """Per-layer figures of one traced pass: totals divided by the passes."""
    zero = [0, 0.0, 0, 0.0, 0.0]
    out = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s, rows, _, _ = tracer.stats.get(name, zero)
        out[f"{name}.calls"] = (_number(calls / passes), "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
        out[f"{name}.rows"] = (_number(rows / passes), "count")
    for name in COUNTED_CLASSES:
        out[f"{name}.created"] = (_number(tracer.created[name] / passes), "count")
    for name in PER_LATTICE_RATIOS:
        out[f"{name}.calls_per_lattice"] = (tracer.stats.get(name, zero)[0] / passes / lattices, "ratio")
    for cid in CHECK_IDS:
        _, _, _, total, inside = tracer.stats.get(f"verify.check.{cid}", zero)
        out[f"verify.check.{cid}.s"] = ((total - inside) / passes, "s")
    _, _, _, total, inside = tracer.stats.get(SUMMARY_FLAGS, zero)
    out["verify.enumeration_s"] = (tracer.phase_s / passes, "s")
    out["verify.summary_flags_s"] = ((total - inside) / passes, "s")
    out["verify.outside_checks_s"] = (outside / passes, "s")
    out["trace_overhead"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    entries = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally(args.workload, check_bytes=args.seed == 0)
    result = (trace if args.trace else measure)(entries, tally, args.seconds)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        checks_skipped=sum(r.skipped for r in tally.first_pass if r is not None),
        attempted=tally.attempted,
        failed=tally.failed,
        bytes_match=tally.bytes_match,
        lattices=len(entries),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
