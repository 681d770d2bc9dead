"""A fixed reference computation that tells how fast the machine runs right now.

Shared and virtual machines change speed by half and more within seconds
(another tenant on the sibling hardware thread, host throttling), and the
slowdown does not show as steal time. Timing the same reference work next to
every measured step and scaling the step by ``REFERENCE_S / measured`` turns a
wall time into the time the step would take at the reference speed. The
reference uses only the interpreter and numpy, never the library under test,
so a change to the library cannot move it.

The slowdown hits interpreter-bound code; a large dense SVD barely feels it,
and scaling it by this reference made its spread worse. So only the
interpreter-bound part of a task is scaled (see ``native_seconds`` in
workloads.py).
"""
from __future__ import annotations

import time

import numpy as np

# seconds reference_work() takes on the reference machine at full speed
# (2-core x86-64, Python 3.11, numpy 2.4, one BLAS thread); see README.md
REFERENCE_S = 0.007
_ITERATIONS = 400
_A = np.array([[0.6, 0.2j], [0.1, 0.5]])


def reference_work() -> float:
    """Small matrix products, 2x2 spectral norms and tuple churn, like the
    verifier's inner loops."""
    x = _A
    acc = 0.0
    for i in range(_ITERATIONS):
        x = (x @ _A) * 1.1 + _A
        acc += float(np.linalg.norm(x, 2))
        acc += len(tuple(range(i % 7, 40)))
    return acc


def measure() -> float:
    """Wall seconds of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Multiplier from a wall time to reference-speed time for a step run
    between two reference measurements."""
    return REFERENCE_S / ((before + after) / 2.0)
