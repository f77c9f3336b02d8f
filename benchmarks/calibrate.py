"""Scale measured times by how fast the core is running at that moment.

On a shared host the speed of one core drifts by up to about 30 % for tens
of seconds at a time, as other tenants come and go; a workload timed in a
slow phase reads slow, whatever the program did.  The benchmark therefore
times a fixed reference loop right next to the work it measures: a sparse
incomplete LU, small numpy array updates, logarithms over a large array,
a pass over 8 MiB and a pure-Python loop.  That is the same mix of work
as the solver, but none of dispersim's code.  Each stretch of measured time is scaled by
``REFERENCE_S`` over the loop's time at the two ends of the stretch.  The
result is in reference seconds: the time the work would take on a core
that runs the loop in ``REFERENCE_S``.  The loop's own time is never
counted in the measured stretches.

The process is pinned to one core so that the loop and the work it
calibrates run on the same core; child processes inherit the pinning.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.sparse as sp
# bound here, so that a traced round wrapping scipy's spilu never wraps the loop
from scipy.sparse.linalg import spilu

REFERENCE_S = 0.010
REPEATS = 3


def pin_to_one_core() -> int:
    """Pin this process (and its future children) to the lowest core it may use."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class ReferenceLoop:
    """A fixed amount of mixed work; ``seconds()`` is the fastest of ``REPEATS`` runs."""

    def __init__(self):
        n = 40
        lap1 = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n))
        self._matrix = (sp.kron(sp.identity(n), lap1) + sp.kron(lap1, sp.identity(n))).tocsc()
        self._a = np.linspace(0.0, 1.0, 65 * 65).reshape(65, 65)
        self._rows = np.linspace(0.1, 1.0, 128)[:, None]
        self._cols = np.linspace(0.0, 1.0, 1024)[None, :]
        # 8 MiB, beyond the private caches; updated in place, so it adds a
        # constant 8 MiB to the peak memory and no page faults
        self._big = np.linspace(0.0, 1.0, 1 << 20)

    def _once(self) -> None:
        spilu(self._matrix, drop_tol=1e-5, fill_factor=20.0)
        b = self._a
        for _ in range(40):
            b = 0.5 * (b[:, ::-1] + self._a) * 1.0001
        d = np.hypot(self._cols - self._rows, self._rows)
        np.abs(np.log(d), out=d).sum(axis=1)
        np.multiply(self._big, 1.0, out=self._big)
        self._big.sum()
        s = 0
        for i in range(4000):
            s += i * i

    def seconds(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._once()
            best = min(best, time.perf_counter() - t0)
        return best


class ScaledClock:
    """Measured time between marks, raw and in reference seconds.

    ``start()`` opens the first stretch and every ``mark()`` closes one and
    opens the next; the reference loop runs at each mark, outside both.
    """

    def __init__(self, loop: ReferenceLoop):
        self.loop = loop
        self.raw = 0.0
        self.scaled = 0.0

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._loop_s = self.loop.seconds()
        self._t = time.perf_counter()

    def mark(self) -> None:
        stretch = time.perf_counter() - self._t
        loop_s = self.loop.seconds()
        self.raw += stretch
        self.scaled += stretch * REFERENCE_S / (0.5 * (self._loop_s + loop_s))
        self._loop_s = loop_s
        self._t = time.perf_counter()

