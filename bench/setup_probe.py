"""Set-up of one workload in a fresh interpreter: import ``theorybench.cli``
(which pulls in every module, as each command-line call does), then load
the workload's inputs through the program.  Prints one JSON line with the
monotonic clock at the moment the first op could start.

    python3 bench/setup_probe.py <workload>
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

t = time.perf_counter()
import theorybench.cli  # noqa: E402,F401  (timed)

import_s = time.perf_counter() - t

from inputs import load_inputs  # noqa: E402

t = time.perf_counter()
load_inputs(sys.argv[1])
inputs_s = time.perf_counter() - t
print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s}))
