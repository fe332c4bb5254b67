"""Fixed reference work that rescales CPU times to a reference host.

On a shared VM the CPU time of identical work moves with the host (a busy
neighbour, a lower clock) by up to 1.5x for minutes at a time.  Right after
each timed operation the benchmark runs this reference work and rescales the
operation's time by how much slower or faster the reference ran than its
nominal time.  The reference mixes the kinds of work the library does: plain
integer arithmetic, arithmetic on small Python objects, and a NumPy FFT.  It
uses nothing from the library and fits in the core's cache, so the library
reaches it only through what it leaves in the caches, which one untimed unit
clears.  It does not follow contention for memory bandwidth, which slows the
library's large-array work and not the reference.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# Median CPU time of one reference unit on a 2-core Xeon VM, Python 3.11.7,
# NumPy 2.4.6.  It only sets the scale of the reported times.
REFERENCE_UNIT_S = 0.0052

# Reference time run after each operation, as a share of the operation's own
# time, but at least one unit.  One unit is a single sample of a host whose
# speed changes from second to second: too few to rescale an operation that
# runs for seconds.
REFERENCE_SHARE = 0.1

_MODULUS = 3**40
# A small transform into preallocated buffers: larger ones, or fresh output
# arrays, take their time from the allocator, whose state the workload sets.
# It is the forward transform, because the traced run records numpy.fft.ifft.
_FFT_INPUT = np.random.default_rng(0).standard_normal(1 << 12) + 0j
_FFT_OUT = np.empty_like(_FFT_INPUT)
_FFT_ABS = np.empty(_FFT_INPUT.shape)


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v * other.v % _MODULUS)

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue((self.v + other.v) % _MODULUS)


def reference_unit() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    s = 0
    for i in range(10_000):
        s = (s * 31 + i) % 1_000_003
    a, b = _Residue(12345678901), _Residue(98765432123)
    seen = {}
    for i in range(1_250):
        a = a * b + _Residue(i)
        seen[a.v & 1023] = a
    for _ in range(16):
        np.fft.fft(_FFT_INPUT, out=_FFT_OUT)
        np.abs(_FFT_OUT, out=_FFT_ABS)
        s += int(np.argmax(_FFT_ABS))
    return s + len(seen)


def rescaled(seconds: float) -> float:
    """CPU seconds just spent, in seconds of the reference host.

    Call right after the timed work, so the reference runs in the same state
    of the host.
    """
    reference_unit()    # untimed: clears what the operation left in the caches
    units, spent = 0, 0.0
    while units == 0 or spent < REFERENCE_SHARE * seconds:
        t0 = process_time()
        reference_unit()
        spent += process_time() - t0
        units += 1
    return seconds * REFERENCE_UNIT_S * units / spent
