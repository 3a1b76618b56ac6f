"""Fixed reference computations that measure how fast the machine runs
right now.

The machine this benchmark was built on changes speed by up to 1.5x
within seconds, as other tenants come and go.  Wall times of the same
unit of work taken 30 s apart then differ by more than any bound worth
having.  The benchmark runs a reference kernel between units and,
through hooks, every half second inside them, and divides each unit's
time by the mean kernel time over the unit.  The ratio cancels the
machine's speed and keeps the program's.

The kernels share no code with race_wfl.  They are built from two
halves of about 10 ms each:

* ``_interpreter``: a pure-Python float loop and numpy operations on
  small arrays.  Its speed tracks interpreter-bound work such as the
  allocation solver.
* ``_streaming``: passes over freshly allocated 8 MB arrays.  Its speed
  tracks memory-bound work such as the PPO update.

Each workload picks the mix that tracks it: ``"interpreter"`` runs the
first half twice, ``"mixed"`` runs each half once.  The arrays are too
small for BLAS to use threads, so a program that changes BLAS threading
does not change the kernels.
"""

import math
import time

import numpy as np

_LOOP = 30_000
_ARRAY_ROUNDS = 200
_STREAM_ELEMENTS = 1_000_000
_STREAM_ROUNDS = 4

# a kernel's typical time on the machine the benchmark was built on; a
# time divided by a kernel's time and multiplied by this reads as seconds
# on that machine at its typical speed
REF_SECONDS = 0.020


def _interpreter(acc):
    for i in range(_LOOP):
        acc += math.sqrt(i + acc % 7.0)
    x = np.linspace(0.0, 1.0, 256)
    m = np.outer(x[:16], x[:16])
    for _ in range(_ARRAY_ROUNDS):
        y = np.exp(-x) * np.sin(x + acc % 1.0)
        acc += float(y.sum()) + float((m @ m)[0, 0])
    return acc


def _streaming(acc):
    for _ in range(_STREAM_ROUNDS):
        big = np.full(_STREAM_ELEMENTS, acc % 1.0)
        big *= 1.0001
        big += 1.0
        acc += float(big.sum())
    return acc


MIXES = {
    "interpreter": (_interpreter, _interpreter),
    "mixed": (_interpreter, _streaming),
}


def reference_seconds(mix="mixed"):
    """Wall time of one run of the ``mix`` kernel (about 20 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for half in MIXES[mix]:
        acc = half(acc)
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while units run.

    ``sample`` runs the reference kernel.  The benchmark calls it between
    units; hooks inside the program call ``maybe``, which samples at most
    once per ``gap`` seconds, so a long unit is sampled all along.  A
    unit's reference time is the mean of its samples, the ones at its
    two ends included, and the time spent sampling inside it is
    subtracted from its wall time.
    """

    def __init__(self, mix="mixed", gap=0.5):
        self.mix = mix
        self.gap = gap
        self.inside = False     # whether ``maybe`` may sample
        self.inside_s = 0.0
        self.samples = []
        self._last = time.perf_counter()

    def sample(self):
        seconds = reference_seconds(self.mix)
        self.samples.append(seconds)
        self._last = time.perf_counter()
        return seconds

    def maybe(self):
        if self.inside and time.perf_counter() - self._last >= self.gap:
            self.inside_s += self.sample()

    def begin_unit(self, inside=True):
        """Start a unit after a boundary ``sample``; ``inside=False`` keeps
        the kernel out of the unit, as a traced unit needs."""
        self.samples = self.samples[-1:]
        self.inside_s = 0.0
        self.inside = inside

    def end_unit(self):
        """(mean reference seconds, seconds sampled inside the unit)."""
        self.inside = False
        self.sample()
        return sum(self.samples) / len(self.samples), self.inside_s
