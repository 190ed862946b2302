"""Host-speed calibration: a fixed pure-Python kernel timed between operations.

On a shared host the CPU's speed drifts by up to ±30 % over seconds to
minutes, and every operation slows down with it (see NOTES.md). The kernel
does not touch the package, so an operation's time scaled by the kernel's
time around it is the operation's cost at one fixed host speed: that of the
host the benchmark was tuned on, where the kernel takes REFERENCE_S.
"""

import bisect
import statistics
import time

KERNEL_N = 100_000
# The kernel's median time on the tuning host (2 vCPUs of a 2.1 GHz Xeon).
REFERENCE_S = 0.0075
REPEATS = 3  # a sample is the fastest of this many kernel runs
INTERVAL_S = 1.0  # longest time between samples while operations run


def kernel_seconds():
    t0 = time.perf_counter()
    x = 0
    for i in range(KERNEL_N):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken at least every INTERVAL_S between operations,
    and before and after every timed set-up."""

    def __init__(self):
        self.ends = []  # perf_counter when each sample ended
        self.samples = []  # kernel seconds
        kernel_seconds()  # warm-up
        self.sample()

    def sample(self):
        self.samples.append(min(kernel_seconds() for _ in range(REPEATS)))
        self.ends.append(time.perf_counter())

    def maybe_sample(self):
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t0, t1):
        """REFERENCE_S over the mean of the samples just before t0 and just
        after t1: multiply the seconds spent in [t0, t1] by it."""
        before = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        after = min(bisect.bisect_left(self.ends, t1), len(self.ends) - 1)
        return 2.0 * REFERENCE_S / (self.samples[before] + self.samples[after])

    def relative_speed(self):
        """Median host speed over the run, 1.0 being the tuning host's."""
        return REFERENCE_S / statistics.median(self.samples)
