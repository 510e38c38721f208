"""Fixed reference kernels that measure the machine's current speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, which no statistic over one run can remove.  The
benchmark therefore runs a kernel right after every round and scales the
round's time by the kernel's slowness, its time over its nominal time.
Each workload names the kernel that does its kind of work: `objects`
(small complex matrices through numpy, Python objects, string
formatting) or `arrays` (fresh arrays of 200,000 elements: random
draws, cumulative sums, searches and a stable sort).

Neither kernel touches qcool, and the garbage collector is off while one
runs, so the program's live objects are not traversed in its time.  They
still share the process with the program: a change that leaves a much
larger or more fragmented heap behind can slow them and so read as a gain.
Every run therefore also reports its unscaled figures (run.py prints
them to stderr, baseline.py records them), and a scaled gain counts only
if the unscaled one points the same way.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(12345)
_MATS = _RNG.standard_normal((200, 4, 4)) + 1j * _RNG.standard_normal((200, 4, 4))


@dataclass(frozen=True)
class _Record:
    a: float
    b: float

    def __post_init__(self):
        if not self.a <= self.b + 2.0:
            raise ValueError("unreachable")


def _objects() -> None:
    acc = 0.0
    records = []
    for i, m in enumerate(_MATS):
        h = m + m.conj().T
        k = np.kron(h[:2, :2], h[2:, 2:])
        acc += float(np.linalg.eigvalsh(h)[0]) + float(np.trace(k).real)
        for j in range(10):
            records.append(_Record(math.sin(i + j), math.cos(i * j)))
    records.sort(key=lambda r: (r.b, r.a))
    ",".join(f"{r.a:.12g}" for r in records)
    x = np.sort(_RNG.random(100_000))
    np.searchsorted(x, x[::7])


def _arrays() -> None:
    a = np.random.default_rng(7).exponential(1.0, 200_000)
    c = np.cumsum(a)
    idx = np.searchsorted(c, c[::3] + 0.5)
    order = np.argsort(np.concatenate([a[::2], a[1::2]]), kind="stable")
    int(((idx > 5) & (order[: idx.size] > 3)).sum())


#: Kernel -> nominal time in seconds, about its median on an idle
#: 2-core machine; scaled results refer to a machine this fast.
NOMINAL_S = {"objects": 0.016, "arrays": 0.04}
_KERNELS = {"objects": _objects, "arrays": _arrays}


def slowness(kernel: str, reps: int = 1) -> float:
    """Median over `reps` runs of the kernel of its time over its nominal
    time, with the collector out of the way."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            _KERNELS[kernel]()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times) / NOMINAL_S[kernel]


def to_reference(seconds: float, before: float, after: float) -> float:
    """A time measured between two kernel runs with slowness `before` and
    `after`, scaled to the nominal speed."""
    return 2.0 * seconds / (before + after)
