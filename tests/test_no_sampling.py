"""No module of the package samples: none imports `random` or reads
`numpy.random`, so every check ranges over all of its cases."""
import ast
from pathlib import Path

import supq

SRC = Path(supq.__file__).parent


def _sampling(tree: ast.Module) -> list[int]:
    """The lines that import `random` or `numpy.random`, or read `.random`
    off `numpy` or `np`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        if any(n == "random" or n.startswith("random.") or n.startswith("numpy.random")
               for n in names):
            out.append(node.lineno)
    return out


def test_no_module_samples():
    found = {p.name: _sampling(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_each_way_to_sample():
    for line in ("import random", "from random import choice", "import numpy.random",
                 "from numpy.random import default_rng", "from numpy import random",
                 "x = np.random.default_rng(0)", "x = numpy.random.rand()"):
        assert _sampling(ast.parse(line)) == [1], line
    for line in ("import numpy as np", "from supq.maps import random_free", "x = rng.random()"):
        assert _sampling(ast.parse(line)) == [], line
