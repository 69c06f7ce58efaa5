#!/usr/bin/env python3
"""Host-speed probe: times a fixed kernel each time a line arrives on stdin.

``run.py`` starts this as a child process that never imports ``vpmix`` and
runs BLAS on one thread, so nothing the program under test does to the
interpreter or to BLAS changes the kernel.  For every line read it runs
:func:`kernel` once and writes the elapsed seconds as one line; it exits at
end of input.

The kernel mixes the kinds of work the workloads do, in their sizes:
interpreter loops that build small matrices (Hamiltonian assembly),
``eigh`` of real and complex Hermitian matrices of dimension 64 and 128
(``spectrum.diagonalize``), and complex matrix products and expectation
values over 20 MB of states (``dynamics``).  On a shared host its time
moves with the host's speed, which ``run.py`` divides out of the workload's.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

RNG = np.random.default_rng(20170202)
REAL = {n: (lambda a: a + a.T)(RNG.standard_normal((n, n))) for n in (64, 128)}
COMPLEX = (lambda a: a + a.conj().T)(RNG.standard_normal((128, 128))
                                     + 1j * RNG.standard_normal((128, 128)))
STATES = RNG.standard_normal((1200, 128, 8)) + 0j  # 20 MB


def kernel() -> None:
    for _ in range(80):
        h = np.zeros((64, 64))
        for i in range(63):
            h[i, i + 1] = h[i + 1, i] = (i + 1) ** 0.5
        np.linalg.eigh(h + REAL[64])
    for _ in range(12):
        np.linalg.eigh(REAL[128])
    for _ in range(2):
        np.linalg.eigh(COMPLEX)
    (COMPLEX @ STATES).real.sum()
    for state in STATES[:, :, 0]:
        np.vdot(state, COMPLEX @ state)


def main() -> int:
    kernel()  # page in the inputs and load BLAS before the first timed call
    for _ in sys.stdin:
        started = perf_counter()
        kernel()
        print(repr(perf_counter() - started), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
