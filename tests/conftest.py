import os
import sys
from pathlib import Path

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests also run
# `python -m supq.cli` in subprocesses, which need it on PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
# the benchmark's workloads (perfbench/workloads.py) are test inputs too
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion outcomes where plain runs can see them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
