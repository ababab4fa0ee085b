"""Outside-in tracer for the `supq` modules.

The tracer changes no file of the program.  While it is installed, every
binding of each named function, in every `supq` namespace, is replaced by a
wrapper that records a span: `find_cyclic` is bound in both `quantale` and
`verify`, and `is_girard` calls the `quantale` global, so patching only one
namespace would miss calls.  Spans nest on one stack, which gives each name
its self time: the span's duration minus the part its child spans cover.
Removing the tracer puts every original object back.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "supq"


def _rows(args) -> int:
    """Length of the first table argument: an array's rows, a homset's members,
    a lattice's or poset's elements; any other argument counts as one row."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.shape[0]) if a.ndim else 1
    for a in args:
        if hasattr(a, "tables") and hasattr(a, "m"):
            return int(a.m)
    for a in args:
        if hasattr(a, "leq") and isinstance(getattr(a, "n", None), int):
            return int(a.n)
    return 1


class Tracer:
    """Times the named functions and counts instances of the named classes.

    `timed` names are `<module>.<function>` or `<module>.<Class>.<method>`;
    `counted` names are `<module>.<Class>`, whose `__init__` calls are counted;
    `phase` names are timed functions whose outermost spans form a phase of
    their own, reported apart from the spans that contain them.  A timed name
    that the program no longer defines is skipped, so the benchmark keeps
    working across refactors of the program.
    """

    def __init__(self, timed, counted=(), phase=()):
        self.timed = list(timed)
        self.counted = list(counted)
        self.phase = set(phase)
        # name -> [calls, self_s, rows, total_s, phase_s inside]
        self.stats: dict[str, list] = {}
        self.created: dict[str, int] = {name: 0 for name in self.counted}
        self.phase_s = 0.0
        # timed names the program does not define; they report no calls
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []
        self._phase_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with each call recorded as a span called `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0.0, 0.0])
        stack = self._stack
        is_phase = name in self.phase
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = _rows(args)
            frame = [0.0, 0.0]  # time of child spans, phase time inside
            stack.append(frame)
            if is_phase:
                self._phase_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                inside = dur if is_phase else frame[1]
                if is_phase:
                    self._phase_depth -= 1
                    if self._phase_depth == 0:
                        self.phase_s += dur
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += inside
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += rows
                stats[3] += dur
                stats[4] += inside

        return traced

    def _count(self, name: str, init):
        created = self.created

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            created[name] += 1
            return init(obj, *args, **kwargs)

        return counted

    # -- installing and removing -----------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Replace one binding of a module or class until `remove`."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        try:
            for name in self.timed:
                module_name, _, path = name.partition(".")
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in path:
                    cls_name, method = path.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or method not in vars(cls):
                        self.missing.add(name)
                        continue
                    self.patch(cls, method, self.wrap(name, vars(cls)[method]))
                    continue
                original = getattr(module, path, None)
                if original is None:
                    self.missing.add(name)
                    continue
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        self.patch(ns, attr, wrapper)
            for name in self.counted:
                module_name, _, cls_name = name.partition(".")
                cls = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), cls_name)
                self.patch(cls, "__init__", self._count(name, vars(cls)["__init__"]))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Put back every original binding, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
