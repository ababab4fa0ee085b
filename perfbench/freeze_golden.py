"""Freeze the golden verdicts: the seed-0 JSON report of each workload.

    PYTHONPATH=src:. python3 -m perfbench.freeze_golden [workload ...]

Run it only when a change to `supq` is meant to change verdicts.  The
`corpus` golden equals the output of `supq verify --corpus --format json`.
"""
import sys

from supq import verify

from perfbench import workloads
from perfbench.verdicts import golden_path


def freeze(workload: str) -> None:
    reports = [verify.run_suite(L, verify.SuiteConfig(), name=name, poset=P)
               for name, L, P in workloads.build(workload, 0)]
    golden_path(workload).write_text(verify.report_to_json(reports), encoding="utf-8")


if __name__ == "__main__":
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        freeze(workload)
