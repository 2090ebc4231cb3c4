"""CPU-speed probe that shares the ops' CPU at a low priority.

``python3 perfbench/calibrate.py <file>`` runs a fixed pure-Python loop in
chunks forever at nice 10, which takes about a tenth of a CPU that an op
also wants.  After each chunk it writes two signed 64-bit integers into the
first 16 bytes of *file*: chunks done and its own CPU time in ns.  Chunks per CPU second measure how fast the CPU runs the
interpreter right now, during the op that holds the CPU; the benchmark
scales each op's elapsed time by that rate.
"""

import mmap
import os
import struct
import sys
import time

#: Loop iterations per chunk (about 0.25 ms of CPU).
CHUNK = 2000
#: At nice 19 (1.5% of the CPU) the loop samples the CPU too sparsely: one
#: op repeated twelve times still spread by 6% after scaling; at nice 10, 2%.
NICE = 10
LAYOUT = struct.Struct("qq")


def main(path: str) -> None:
    os.nice(NICE)
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), LAYOUT.size)
    clock = time.thread_time_ns
    done = 0
    while True:
        acc = 0
        for i in range(CHUNK):
            acc += i * i % 7
        done += 1
        shared[:LAYOUT.size] = LAYOUT.pack(done, clock())


if __name__ == "__main__":
    main(sys.argv[1])
