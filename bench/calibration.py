"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine other tenants' load changes the speed of the cores by up
to a factor of two, for seconds to minutes at a time.  Every timing of the
benchmark is taken beside this loop in the same process and rescaled to a
reference speed, which cancels most of that drift.  The module imports only
the standard library, so a fresh interpreter can use it before any import it
times.
"""

from time import perf_counter

# fastest time of calibration_s on an unloaded 2-core Xeon VM (Python 3.11)
CALIBRATION_REF_S = 1.6e-3


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the speed of the machine at this moment."""
    start = perf_counter()
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
    return perf_counter() - start


def normalize(seconds: float, calibration: float) -> float:
    """Rescale a time measured while the calibration loop took ``calibration`` s.

    The result is in seconds at the reference speed CALIBRATION_REF_S.
    """
    return seconds * CALIBRATION_REF_S / calibration
