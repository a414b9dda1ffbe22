"""Host-speed calibration: a fixed reference kernel timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to +-25% over minutes; process CPU time drifts with it, so the slowdown
is in the core, not in scheduling.  A fixed kernel, timed right before and
right after every op, samples the host's speed at the moment the op ran.
Each op's wall seconds are rescaled by ``REFERENCE_S / kernel seconds``,
giving the op's seconds at the speed the host had when ``REFERENCE_S`` was
measured.  A change to the library moves the op and not the kernel, so it
moves the rescaled time as much as the raw one.

The kernel is grid work of the kind the library's geometry and Dirac
layers do: FFTs over the four torus axes of a spinor-valued field and a
fiber matrix applied at every grid point, on arrays of a few megabytes.
Of the kernels tried (an interpreter loop, small-array numpy calls, small
FFTs, this one), this one tracked the op times most closely as the host's
speed drifted.  Over ten runs per workload, the run-to-run spread
(IQR/median) of the median op time was 0.04-0.09 rescaled against
0.06-0.19 raw; README.md lists every set measured.
"""

from __future__ import annotations

import time

import numpy as np

# median seconds of Kernel.sample() on the reference host: 2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, 1 BLAS thread (0.206 s
# over 26 samples in 5 runs)
REFERENCE_S = 0.2


class Kernel:
    """The reference kernel; its inputs are fixed, so its work never changes."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (5, 5, 5, 5, 15, 32)
        self.field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        self.fiber = rng.normal(size=(15, 15)) + 0j
        # written in place, so a sample allocates nothing and cannot set
        # the workload's peak memory
        self.spec = np.zeros_like(self.field)
        self.moved = np.zeros_like(self.field)

    def _work(self) -> None:
        for _ in range(8):
            np.fft.fftn(self.field, axes=(0, 1, 2, 3), out=self.spec)
            np.einsum("ij,abcdjk->abcdik", self.fiber, self.spec,
                      out=self.moved)
            np.vdot(self.spec, self.moved)

    def sample(self) -> float:
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    @staticmethod
    def at_reference_speed(seconds: float, before: float,
                           after: float) -> float:
        """``seconds`` timed between the samples ``before`` and ``after``,
        rescaled to the host speed at which ``REFERENCE_S`` was measured."""
        return seconds * REFERENCE_S / (0.5 * (before + after))
