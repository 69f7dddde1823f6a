"""One set-up round in a fresh interpreter, timed from outside.

The harness starts ``python3 perfbench/setup_round.py`` and writes a
pickled ``(workload, inputs)`` pair to its standard input.  Once set up,
the child prints ``ready`` and the CPU seconds it has used since it
started (all threads), and the harness stops its wall clock.  The round
pays what a new process of the program pays before its first op:
interpreter start, ``import repro`` with its NumPy and SciPy imports,
the workload's long-lived objects and one warm-up op.  The benchmark's
own modules add only NumPy and the standard library.
"""

import pickle
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

workload, inputs = pickle.load(sys.stdin.buffer)
workload.warmup(workload.setup(inputs))
print("ready", repr(time.process_time()), flush=True)
