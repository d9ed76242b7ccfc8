"""Spans recorded by the benchmark around calls into the package's modules.

The traced run replaces public functions in the namespaces of the package's
modules by wrappers that record a span per call, so calls from one module
into another (``perturb`` into ``canonical``, ``closure`` into ``stratify``)
are recorded too.  No file of the package is changed.  Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, function) pairs whose calls are recorded.  The helpers of
#: ``rng``, ``linalg`` and ``jsonutil`` are reached only through the other
#: modules; they are wrapped where those modules call them.  Hot primitives
#: such as ``linalg.frob`` are left out, because a wrapper would cost more
#: than the call.
TRACED = (
    ("cli", "parse_matrix"),
    ("forms", "format_form"),
    ("forms", "parse_form"),
    ("canonical", "classify"),
    ("canonical", "classify_many"),
    ("stratify", "codimension"),
    ("closure", "reachable"),
    ("closure", "hasse_subgraph"),
    ("closure", "to_dot"),
    ("perturb", "witness"),
    ("perturb", "no_arrow_certificate"),
    ("perturb", "sample_neighborhood"),
    ("rng", "substream_seeds"),
    ("rng", "uniform_step"),
    ("linalg", "real_rank"),
    ("linalg", "eigenvalues2"),
    ("linalg", "inverse2"),
    ("jsonutil", "render_json"),
)

#: Recursive functions, wrapped only where other modules call them so their
#: inner calls are not recorded one by one.
RECURSIVE = {("jsonutil", "render_json")}

MODULES = ("cli", "forms", "canonical", "stratify", "closure", "perturb", "rng", "linalg", "jsonutil")


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id].

    Wrappers record only while ``recording`` is active, so the benchmark's
    own checks, which also call into the package, leave no spans.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0
        self.active = False
        self._restore: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def recording(self, name: str | None = None):
        """Record calls made inside the block, under one span ``name`` if given."""
        was, self.active = self.active, True
        idx = self._open(name) if name else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)
            self.active = was

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Route every traced function through a span-recording wrapper."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "starcong" or n.startswith("starcong.")]
        for module, func in TRACED:
            home = importlib.import_module(f"starcong.{module}")
            original = getattr(home, func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in loaded:
                if getattr(mod, func, None) is original and not (mod is home and (module, func) in RECURSIVE):
                    self._restore.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._restore):
            setattr(mod, func, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
