"""Time, in a fresh interpreter, the imports a workload pays before its first op.

Usage: python3 setup_probe.py SRC MODULE [MODULE ...]; prints one JSON object
with the numpy import time, the time of the bergmanlab imports after it, and
the median time of the calibration loop, run five times before the imports
and five times after them.
"""

import importlib
import json
import sys
from time import perf_counter

from calibration import calibration_s

CALIBRATION_RUNS = 5  # on each side of the imports

before = [calibration_s() for _ in range(CALIBRATION_RUNS)]
start = perf_counter()
import numpy  # noqa: E402,F401  (bergmanlab's only runtime dependency)

numpy_s = perf_counter() - start
sys.path.insert(0, sys.argv[1])
start = perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
own_s = perf_counter() - start
after = [calibration_s() for _ in range(CALIBRATION_RUNS)]
import statistics  # noqa: E402  (after the timed imports, which it could speed up)

print(json.dumps({"numpy_import_s": numpy_s, "own_import_s": own_s,
                  "calibration_s": statistics.median(before + after)}))
