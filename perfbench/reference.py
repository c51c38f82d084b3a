"""A fixed reference kernel that gauges how fast the machine runs right now.

Shared hosts slow a virtual CPU down by up to about 2x for seconds at a
time, which moves wall times by far more than the bounds this benchmark
needs.  The run therefore times this kernel next to every request (and
around every set-up) and reports times rescaled to a machine on which
the kernel takes NOMINAL_S.  The kernel is plain Python integer, list
and dict work, like the program's, and imports nothing, so it can run
before the program is imported without changing what the import costs.
"""

import gc
import time

# about the kernel's time on an idle 2-vCPU Xeon host; it only scales the numbers
NOMINAL_S = 0.5e-3
SAMPLES = 5


def kernel():
    x = 3 ** 200
    for i in range(400):
        x = (x * 7919 + i) % (1 << 900)
    a, b = 10 ** 40 + 7, 10 ** 38 + 3
    for i in range(120):
        while b:
            a, b = b, a % b
        a, b = 10 ** 40 + 7 * i, 10 ** 38 + 3 + i
    table = {}
    for i in range(900):
        table[(i, i % 7)] = [i] * 3
    return x, a, len(table)


def seconds(samples=SAMPLES):
    """Mean time of one kernel run, over `samples` runs.

    The cyclic collector is off while the kernel runs, so its time does
    not grow with the heap the program keeps alive, and a collection the
    program has made due falls into the program's next request.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for _ in range(samples):
            t0 = time.perf_counter()
            kernel()
            total += time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return total / samples


def scale(elapsed, kernel_seconds):
    """`elapsed` rescaled to a machine on which the kernel takes NOMINAL_S."""
    return elapsed * NOMINAL_S / kernel_seconds
