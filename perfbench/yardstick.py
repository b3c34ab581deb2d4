"""A fixed reference load that tells how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.8x over seconds to tens of seconds, as neighbours load the same cores,
caches and memory.  A run's op times follow those swings: raw median op
times of ten runs spread by about 0.2 of their median.  The yardstick is a
fixed mix of the three kinds of work the ops do, and it does not touch the
program:

* interpreter-bound Python with tiny numpy calls, like the 4-point solves
  and the merge bookkeeping;
* a dense 400 x 400 matrix product, like the eliminations and the QR;
* two reading passes over a 24 MB vector, like the n x 3n matrices of the
  large solve.

The benchmark times the yardstick between ops, after each op that ends a
half-second block, and scales each op time by ``NOMINAL_S`` over the
median of the yardstick times around it.  A scaled time reads as the time
the op would take while the host runs the yardstick in ``NOMINAL_S``.  A change to
the program changes the op times and not the yardstick's, so scaled times
move with the program as raw times do.  In runs of 25 s, scaling lowered
the spread of the median op time over runs from about 0.2 to about 0.05 on
``solve_large`` and ``localize_outliers``.
"""

import time

import numpy as np

# Median yardstick time on a quiet 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, OpenBLAS on one thread).  It only fixes the scale of the
# scaled times; any constant would do, as long as it never changes.
NOMINAL_S = 0.045


class Yardstick:
    """Times a fixed load.  Its arrays are made once and held, ~25 MB."""

    def __init__(self):
        rng = np.random.default_rng(20160712)
        self._tiny = rng.standard_normal((4, 3))
        self._square = rng.standard_normal((400, 400))
        self._long = rng.standard_normal(3_000_000)

    def _python(self) -> float:
        s = 0.0
        for _ in range(1000):
            x = self._tiny @ self._tiny.T
            s += float(np.linalg.eigvalsh(x + x.T)[0])
            for j in range(30):
                s += j * 0.5
        return s

    def _dense(self) -> float:
        return sum(float((self._square @ self._square)[0, 0]) for _ in range(6))

    def _stream(self) -> float:
        return sum(float(np.dot(self._long, self._long)) + float(self._long.sum())
                   for _ in range(2))

    def seconds(self) -> float:
        """Wall time of one pass of the reference load."""
        start = time.perf_counter()
        self._python()
        self._dense()
        self._stream()
        return time.perf_counter() - start
