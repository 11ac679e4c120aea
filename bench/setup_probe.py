"""Time one set-up of the program in a fresh interpreter: the import of
``conformable`` plus building the FuncSpecs a workload reuses.

Usage: python3 setup_probe.py SRC_DIR [SOURCE JUMP]...   (JUMP "" for none)
Prints the elapsed seconds.  Only ``sys`` and ``time`` are loaded before the
clock starts, so everything ``conformable`` pulls in is counted.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conformable  # noqa: E402

pairs = sys.argv[2:]
specs = [
    conformable.FuncSpec.from_source(src, float(jump) if jump else None)
    for src, jump in zip(pairs[::2], pairs[1::2])
]
print(time.perf_counter() - t0)
