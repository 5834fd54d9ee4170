"""Machine-speed calibration for the untraced runs.

On a shared host the CPU speed a run gets can drift by up to 1.8x over
minutes with no CPU time stolen: on a 2-core x86-64 VM (Python 3.11,
numpy 2.4, OpenBLAS 0.3.31) the same scan took 0.25 s a call for three
minutes and 0.45 s for the next three, with process CPU time tracking
wall time. No run length averages that out, so each run also times a
fixed numpy kernel, written here and independent of minent, on a
wall-clock timer while the jobs run. The kernel has minent's instruction
mix: LAPACK on stacks of 4x4 to 16x16 Hermitian matrices, as in the large
SDP stacks, and a Python loop over small ones, as in the per-call paths.
Its mean burst time is the calibration unit ("cal"); each job's latency
is divided by the mean of the bursts run during it and within WINDOW_S
of it. On that VM, over ~20-s windows of one fixed round repeated in one
process, wall time spread +-9% (audit), +-8% (query) and +-5% (smoothed),
while its ratio to the stack half of the kernel spread +-2%, +-5%, +-4%
and to the loop half +-5%, +-4%, +-3%.

Bursts run in a SIGALRM handler, between bytecodes of the job they
interrupt; ``total_s`` lets a caller subtract them from a job's time.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.5
WINDOW_S = 2.0  # a job's unit also uses the bursts this close to it
WARM_BURSTS = 5
STACKS = ((512, 4), (256, 8), (64, 16))  # (instances, dimension)
LOOP_STACK, LOOP_DIM, LOOPS = 128, 8, 3


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20250605)

        def positive(n, d):
            a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            return a @ a.conj().swapaxes(-1, -2) + d * np.eye(d)

        self._stacks = [positive(n, d) for n, d in STACKS]
        self._h = positive(LOOP_STACK, LOOP_DIM)
        self._b = rng.normal(size=(LOOP_STACK, LOOP_DIM, 3)) + 0j
        self.bursts: list = []  # (start, seconds)
        self.total_s = 0.0
        self._busy = False
        self._previous = None

    def _kernel(self) -> float:
        acc = 0.0
        for h in self._stacks:
            h = h.copy()  # fresh memory each burst, so no one layout rules
            w, _ = np.linalg.eigh(h)
            low = np.linalg.cholesky(h)
            x = np.linalg.solve(h, h[..., :1])
            acc += float(w[:, 0].sum()) + abs(low[0, 0, 0]) + abs(x[0, 0, 0])
        h = self._h.copy()
        for _ in range(LOOPS):
            w, v = np.linalg.eigh(h)
            low = np.linalg.cholesky(h)
            x = np.linalg.solve(h, self._b)
            m = np.einsum("kij,kj,klj->kil", v, w, v.conj())
            acc += float(w[:, 0].sum()) + abs(low[0, 0, 0]) \
                + abs(x[0, 0, 0]) + abs(m[0, 0, 0])
            for k in range(64):
                acc += float(np.trace(h[k]).real)
        return acc

    def burst(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.bursts.append((t0, dt))
        self.total_s += dt
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.burst()

    def start(self) -> None:
        """Warm the kernel up, then burst every PERIOD_S of wall time."""
        for _ in range(WARM_BURSTS):
            self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def unit_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean time of the bursts that started within WINDOW_S of
        [start, end], or of all bursts if none did: the calibration unit
        in seconds for work done in that interval."""
        if not self.bursts:  # a run shorter than one period
            self.burst()
        near = [dt for t, dt in self.bursts
                if start - WINDOW_S <= t <= end + WINDOW_S]
        near = near or [dt for _, dt in self.bursts]
        return sum(near) / len(near)
