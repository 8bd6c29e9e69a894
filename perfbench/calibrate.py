"""A fixed reference kernel that measures how fast the machine is right now.

The host this benchmark runs on is shared, and the speed of memory-bound
Python and SciPy code drifts by 10-20% over tens of seconds while a
tight pure-Python loop barely moves. The kernel below mixes what the
simplex does per iteration -- a SuperLU factorization and solves,
product-form eta updates, transposed products, column extraction and dict
bookkeeping -- on fixed data that does not depend on carrieropt. Running it
before every LP solve and after every pass gives the host's speed at those
moments; :class:`Timeline` scales each stretch of time between two kernels
by ``REFERENCE_S`` over their mean time, which expresses timings at a fixed
reference speed, so a slow minute on the host does not read as a
regression. The drift is fast enough that the factor has to be taken close
to the work it scales: one factor per 20-second pass leaves most of it in.

The kernel never changes with the code under test: a faster or slower
carrieropt moves the scaled times by exactly the same factor as the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# About the fastest the kernel ran on the 2-vCPU host the benchmark was built
# on (Python 3.11, scipy 1.17), so scaled times read as seconds on that host
# when it is quiet. Changing it rescales every reported time.
REFERENCE_S = 0.1
SIZE = 1500
ROUNDS = 15


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(12345)
        a = sp.random(SIZE, SIZE, density=4.0 / SIZE, random_state=rng, format="csc")
        self.a = (a + 4.0 * sp.eye(SIZE, format="csc")).tocsc()

    def kernel_s(self) -> float:
        """Seconds one run of the kernel takes now."""
        a = self.a
        start = time.perf_counter()
        lu = splu(a)
        y = np.ones(SIZE)
        etas: list[tuple[int, np.ndarray]] = []
        book: dict[tuple[int, int], float] = {}
        for k in range(ROUNDS):
            x = lu.solve(y)
            for row, column in etas:
                x = x - column * x[row]
            z = a.T @ x
            j = int(np.argmax(np.abs(z)))
            column = a[:, j].toarray().ravel()
            etas.append((j, column / (1.0 + np.abs(column).max())))
            if len(etas) > 15:
                etas.clear()
                lu = splu(a)
            for i in range(200):
                book[(k, i)] = i * 0.5
            y = z / (1.0 + np.abs(z).max())
        return time.perf_counter() - start


class Timeline:
    """Scale factor over time, from kernel runs at noted moments.

    Between two consecutive kernels the factor is ``REFERENCE_S`` over their
    mean duration; before the first and after the last kernel it is the
    nearest kernel's. Time spent inside the kernels counts for nothing.
    """

    def __init__(self, kernels: list[tuple[float, float]]):
        k = sorted(kernels)
        d = [end - start for start, end in k]
        self.pieces = [(-math.inf, k[0][0], REFERENCE_S / d[0])]
        self.pieces += [(k[j][1], k[j + 1][0], 2.0 * REFERENCE_S / (d[j] + d[j + 1]))
                        for j in range(len(k) - 1)]
        self.pieces.append((k[-1][1], math.inf, REFERENCE_S / d[-1]))

    def scaled(self, start: float, end: float) -> float:
        """Seconds in [start, end] outside the kernels, at the reference speed."""
        return sum(max(0.0, min(end, hi) - max(start, lo)) * factor
                   for lo, hi, factor in self.pieces)
