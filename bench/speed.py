"""Machine-speed probe: operation times expressed at a fixed nominal speed.

The machine this benchmark was built on (2 shared vCPUs) runs the same code
up to 1.8x slower in bursts lasting from a fraction of a second to tens of
seconds, when neighbouring tenants load the host: 1000 ``classify`` calls
take 27 ms or 50 ms, and a fixed reference kernel slows by the same factor at
the same moments.  Raw medians of 15-second runs then spread by 10-40%, and
some runs see no fast period at all.

So every ``INTERVAL`` seconds, between operations and outside their timing,
the benchmark times a fixed reference kernel that does not use the package.
Each operation's latency is scaled by ``NOMINAL[kernel] / local``, where
``local`` is the mean kernel time just before and just after the operation:
the result is the latency at the speed at which the kernel takes its nominal
time.  Two kernels exist because interpreter-bound and memory-bound code slow
down by different factors; each workload names the one that matches it.
Unscaled values are kept in each run's record for comparison.
"""

from __future__ import annotations

import json
import re
from time import perf_counter

import numpy as np

INTERVAL = 0.02

_DOC = {"a": [1.5, 2.25, "x" * 20, {"b": [3, 4, 5.5]}] * 8}
_LITERAL = re.compile(r"(?P<re>[+-]?\d+\.?\d*)(?P<im>[+-]\d+\.?\d*)i")
_M = np.array([[0.3 + 0.1j, 1.0], [0.2, 0.5j]])


def interpreter_kernel() -> None:
    """JSON, regex and 2x2 numpy calls: the mix of the scalar code paths."""
    for _ in range(7):
        json.loads(json.dumps(_DOC))
        _LITERAL.match("0.123456789+0.987654321i")
        B = _M @ _M
        np.linalg.det(B)
        np.abs(B).sum()


def array_kernel() -> None:
    """Hashing and complex arithmetic on 1e5-element arrays: the mix of the sampler."""
    u = np.arange(100_000, dtype=np.uint64)
    for _ in range(2):
        v = (u ^ (u >> np.uint64(7))) * np.uint64(0x9E3779B97F4A7C15)
        z = (v >> np.uint64(11)).astype(np.float64) * (1.0 + 1e-4j)
        float(np.abs(z).sum())


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}

#: Kernel times that define the nominal speed (fast periods of the 2-vCPU
#: machine the benchmark was built on).
NOMINAL = {"interpreter": 0.25e-3, "array": 5.0e-3}


class SpeedProbe:
    """Kernel times taken between operations; each tick keeps the median of ``reps`` runs."""

    def __init__(self, kind: str, reps: int = 1):
        self.kind = kind
        self.reps = reps
        self._kernel = KERNELS[kind]
        self.marks: list[tuple[int, float]] = []  # (operations done before the kernel ran, kernel seconds)
        self._last = -1.0

    def tick(self, done: int, force: bool = False) -> None:
        """Time the kernel if ``INTERVAL`` has passed since it last ran."""
        if force or perf_counter() - self._last >= INTERVAL:
            times = []
            for _ in range(self.reps):
                t0 = perf_counter()
                self._kernel()
                times.append(perf_counter() - t0)
            self._last = perf_counter()
            self.marks.append((done, float(np.median(times))))

    def median(self) -> float:
        return float(np.median([t for _, t in self.marks]))

    def normalize(self, latencies: list[float]) -> list[float]:
        """Latencies at nominal speed.

        The i-th latency is bracketed by the last kernel run before operation
        i and the first one after it.
        """
        out = []
        j = 0
        for i, latency in enumerate(latencies):
            while j + 1 < len(self.marks) and self.marks[j + 1][0] <= i:
                j += 1
            after = self.marks[j + 1][1] if j + 1 < len(self.marks) else self.marks[j][1]
            out.append(latency * NOMINAL[self.kind] / ((self.marks[j][1] + after) / 2.0))
        return out
