"""Golden verdicts: the frozen seed-0 JSON of each workload, and the
comparison of a run's reports against it.

A verdict is one check status or one summary flag.  Labels, hashes and
witness texts change with the relabelling seed; verdicts do not, so every
seed is compared verdict by verdict, and seed 0 is also compared byte for
byte with the frozen JSON.
"""
from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_MISSING = object()


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> tuple[str, list[dict]]:
    """The golden JSON text and its list of report documents."""
    text = golden_path(workload).read_text(encoding="utf-8")
    return text, json.loads(text)["reports"]


def verdicts(report_doc: dict) -> dict:
    """Every verdict of one report document, keyed by check id or flag name."""
    out = {("check", c["check_id"]): c["status"] for c in report_doc["checks"]}
    out.update({("flag", k): v for k, v in report_doc["summary"].items()})
    return out


def compare(report_doc: dict | None, golden_doc: dict) -> tuple[int, int]:
    """(attempted, mismatched) for one lattice.  A missing report (the suite
    raised) fails every golden verdict."""
    want = verdicts(golden_doc)
    if report_doc is None:
        return len(want), len(want)
    got = verdicts(report_doc)
    keys = want.keys() | got.keys()
    return len(keys), sum(1 for k in keys if got.get(k, _MISSING) != want.get(k, _MISSING))
