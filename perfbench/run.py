"""Benchmark of `supq verify`, run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 50 --trace 0

Workloads (see perfbench/workloads.py): `corpus`, the 19 reference lattices;
`midsize`, homsets of 2,150 to 2,500 maps, between the pair cap and the
order-matrix cap; `large`, homsets of 7,776 and 16,848 maps, above the
order-matrix cap.  The seed relabels every lattice at random; seed 0 is the
identity.  BENCHMARK.json lists only `corpus` and `midsize`: on a shared
2-vCPU host the wall time of `large`, two lattices of memory-bound table
scans, varied by a factor of two between runs; run it by hand for its
per-layer counts.

The measurement runs in a fresh process with BLAS and OpenMP threads pinned
to one, on the sources under `src/`; set-up time is the median over ten
more fresh processes that only import the package and build the inputs,
five before and five after the measurement, since the host's speed drifts.
`wall_ref_s` is the wall time of one pass with each lattice run scaled to
the reference speed of a fixed pure-Python loop timed every 20 ms during it
(see perfbench/worker.py); the wall time as measured, `wall_s`, is printed
above the result line.
Every verdict is checked against the frozen golden of the workload, and at
seed 0 the JSON is also compared byte for byte.  The last line of standard
output is one JSON object: `--trace 0` gives the end-to-end metrics,
`--trace 1` the per-layer metrics of an outside-in traced pass.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "midsize", "large")
SETUP_PROBES = 5  # before and again after the measurement
TIME_LIMIT_S = 140.0  # for the measurement; with the probes a run ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run perfbench.worker in a fresh process and parse its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker {' '.join(args)} printed no result") from None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _describe(args, res: dict) -> list[str]:
    lines = [
        f"supq verify benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"machine: nproc={os.cpu_count()} python={res['python']} numpy={res['numpy']} "
        f"BLAS/OpenMP threads=1; closed loop, one caller; {res['lattice_runs']} lattice runs "
        f"of {res['lattices']} lattices",
        f"verdicts: {res['attempted']} attempted, {res['failed']} mismatched the golden; "
        f"seed-0 JSON byte-identical: {res['bytes_match']}",
    ]
    for name, secs in res.get("per_lattice_s", {}).items():
        lines.append(f"  lattice {name}: median {secs:.3f} s")
    checks = {k[len("verify.check."):-len(".s")]: v for k, (v, _) in res.get("layers", {}).items()
              if k.startswith("verify.check.")}
    total = sum(checks.values())
    for cid, secs in sorted(checks.items(), key=lambda kv: -kv[1]):
        if total and secs:
            lines.append(f"  check {cid}: {secs:.3f} s, {100 * secs / total:.1f} % of check time")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supq" / "__init__.py").is_file():
        print(f"no supq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [_worker(common + ["--setup-only"], 10.0)["setup_s"] for _ in range(probes)]
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      TIME_LIMIT_S - (time.monotonic() - start))
        setups += [_worker(common + ["--setup-only"], 10.0)["setup_s"] for _ in range(probes)]
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    mismatch_rate = failed / attempted if attempted else 1.0
    if args.trace:
        metrics = {name: _metric(value, unit) for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "wall_ref_s": _metric(res["wall_ref_s"], "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB"),
            "checks_skipped": _metric(res["checks_skipped"], "count"),
            "verdict_match_rate": _metric(1.0 - mismatch_rate, "ratio"),
        }
    for line in _describe(args, res):
        print(line)
    print(f"verdict_mismatch_rate: {mismatch_rate} ratio")
    if not args.trace:
        print(f"wall_s: {res['wall_s']} s as measured; speed probe {res['probe_s']} s "
              f"in {res['probes']} samples against {res['probe_ref_s']} s on the reference machine")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    correct = attempted > 0 and failed == 0 and res["bytes_match"] is not False
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
