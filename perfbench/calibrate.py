"""How fast the machine runs right now, from a fixed reference loop.

On a shared host the same code runs up to 1.7x slower in some minutes than in
others, on both vCPUs and for every kind of work alike (see ``README.md``).
The benchmark therefore times a fixed reference loop, which calls nothing
from the library, next to every operation and divides each wall time by the
loop's slowdown against its nominal time.  A time metric then reads the
seconds the operation would take with the machine at its nominal speed: a
change in the library moves it, a slow minute of the host does not.

The loop has four parts, one per kind of work the workloads do: Python
bytecode (``matrix-analysis``, the CLI's start-up and text io), streaming
arithmetic over a 4 MB array, FFTs, and a small matrix product (the dense
kernel of ``operator-apply``).  Its slowdown is the geometric mean of the
four parts' slowdowns, so each part counts alike.  It runs in about 45 ms
and holds 5 MB.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: seconds of each part at nominal speed, set so that the loop's median
#: slowdown between the benchmark's operations is about 1 on the reference
#: machine (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4.6, one OpenBLAS thread)
NOMINAL = {"python": 0.0083, "stream": 0.0084, "fft": 0.0131, "matmul": 0.0081}


class Reference:
    """The reference loop, with its arrays allocated once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.random(1 << 19)
        self.out = np.empty_like(self.vec)
        self.sig = np.exp(2j * np.pi * rng.random(1 << 14))
        self.mat = rng.random((128, 128))
        self.slowdown()  # first touches of the arrays and of the FFT plan

    @staticmethod
    def _python() -> None:
        s, d = 0, {}
        for i in range(60000):
            s += i * i
            d[i & 255] = s

    def _stream(self) -> None:
        for _ in range(12):
            np.multiply(self.vec, 1.0001, out=self.out)
            np.add(self.out, self.vec, out=self.out)

    def _fft(self) -> None:
        for _ in range(10):
            np.fft.ifft(np.fft.fft(self.sig))

    def _matmul(self) -> None:
        for _ in range(60):
            self.mat @ self.mat

    def slowdown(self) -> float:
        """Run the loop once; its time over the nominal one (1.3: 30% slower)."""
        log_sum = 0.0
        for name, part in (("python", self._python), ("stream", self._stream),
                           ("fft", self._fft), ("matmul", self._matmul)):
            t0 = time.perf_counter()
            part()
            log_sum += math.log((time.perf_counter() - t0) / NOMINAL[name])
        return math.exp(log_sum / len(NOMINAL))
