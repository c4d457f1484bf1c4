"""Speed-normalized timing.

The interpreter's speed on a shared virtual machine is not constant: on
the 2-vCPU host this benchmark was written on, a fixed pure-Python loop
took anywhere from 35 ms to 79 ms, switching between levels every second
or so. Wall times of identical runs then differ by 20% and more, which
hides the changes the benchmark exists to detect.

`SpeedClock` measures that speed inside the process doing the work:
every PERIOD_S a timer signal interrupts the work and times a short fixed
calibration loop. The clock advances by wall time multiplied by
REFERENCE_S / (median of the last three calibration times), so it reads
the seconds the work would have taken at the reference speed; time spent
calibrating is not counted. Timing the calibration from another process
does not work: speed changes within tens of milliseconds and differs
between the two vCPUs.
"""

import signal
import time

PERIOD_S = 0.05
# A calibration run at the median speed seen on the reference host.
REFERENCE_S = 0.0015


_A = {(i, i % 5): i + 1 for i in range(20)}
_B = {(i % 7, i): 2 * i - 9 for i in range(20)}


def calibration_loop():
    """Fixed sparse polynomial products: dicts keyed by exponent tuples,
    the same kind of work as the package's polynomial layer."""
    for _ in range(10):
        out = {}
        for (a1, a2), x in _A.items():
            for (b1, b2), y in _B.items():
                key = (a1 + b1, a2 + b2)
                v = out.get(key, 0) + x * y
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


def time_calibration():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class SpeedClock:
    """A clock that runs at the reference speed; see the module docstring."""

    def __init__(self):
        t0 = time.perf_counter()
        self.samples = [time_calibration() for _ in range(3)]
        self.factor = REFERENCE_S / sorted(self.samples)[1]
        self.base = 0.0  # reference seconds up to self.mark
        self.mark = time.perf_counter()
        self.spent = self.mark - t0  # wall seconds spent calibrating
        self.ticks = 0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.base += (t0 - self.mark) * self.factor
        self.samples.append(time_calibration())
        self.factor = REFERENCE_S / sorted(self.samples[-3:])[1]
        self.mark = time.perf_counter()
        self.spent += self.mark - t0
        self.ticks += 1

    def now(self):
        while True:  # retry if a tick landed while reading
            ticks = self.ticks
            value = self.base + (time.perf_counter() - self.mark) * self.factor
            if ticks == self.ticks:
                return value

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
