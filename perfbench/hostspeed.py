"""Host-speed scaling of measured times.

The hosts this benchmark runs on share cores with other tenants, and their
speed drifts by 20-40 % over seconds to minutes, for Python and BLAS code
alike.  So right before every timed op the harness times a fixed kernel that
does not touch the program (small ``eigvalsh`` calls and a Python loop), and
reports the op's time multiplied by ``REFERENCE_S`` over the median kernel
time of the ops around it: milliseconds at the reference host speed.  A
slower program still reads slower; a slower host mostly does not.  On the
reference host, over 60 s, the log times of this kernel and of small
``analyze``/``threshold`` ops correlate at 0.98 once smoothed over nine
samples.  The unscaled figures are printed alongside.
"""
import statistics
import time

import numpy as np

# Median kernel time on the host the baseline was recorded on (2 vCPUs,
# single-threaded OpenBLAS); it only fixes the scale of reported times.
REFERENCE_S = 0.0049
WINDOW = 3  # kernel samples on each side of an op that set its host speed

_SYM = np.random.default_rng(0).standard_normal((48, 48))
_SYM = _SYM + _SYM.T


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(30):
        np.linalg.eigvalsh(_SYM)
    x = 0
    for i in range(30000):
        x += i * i
    return time.perf_counter() - t0


def factors(kernel_s: list) -> list:
    """Per-sample scale: REFERENCE_S over the median of the kernel times
    within WINDOW samples, in the order they were taken."""
    return [REFERENCE_S / statistics.median(kernel_s[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(kernel_s))]
