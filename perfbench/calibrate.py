#!/usr/bin/env python3
"""Speed calibration: repeats a fixed piece of work for a given time.

    python3 perfbench/calibrate.py SECONDS

prints "CHUNKS SECONDS": how many chunks ran, and in how many seconds, once
at least SECONDS had passed.  A chunk is the interpreter work the program
does most (Fraction arithmetic, dict and list updates) but calls nothing of
the program, so a change to the program does not move it.  run.py starts
this in a fresh process after each command, as the commands are started:
the speed bias of one process (memory layout) then averages out over many.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

ROUNDS = 1200


def chunk() -> list:
    acc = Fraction(0)
    counts: dict = {}
    row = []
    for i in range(1, ROUNDS):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(i % 5, 11)
        counts[i % 97] = counts.get(i % 97, 0) + 1
        row.append(acc.numerator % 1009)
    return row


def main(argv=None) -> int:
    budget = float((argv or sys.argv[1:])[0])
    chunk()  # warm-up
    start = time.perf_counter()
    chunks = 0
    while True:
        chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            break
    print(chunks, repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
