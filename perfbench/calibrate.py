"""Speed probe for the benchmark, run in a process of its own.

``run.py`` starts this script once per run and writes a line to its stdin
whenever it wants a sample, between requests, and waits for the answer.
For each line the script times ``calibration_kernel`` and writes the
seconds it took; it exits at end of input.  The kernel never runs in the
benchmarked process, so its time follows the host's speed and not the state
that the program sets or grows there (heap size, garbage-collector
settings, allocator and cache state).  Nor does it run while the program
works, so a program that keeps more CPUs busy does not slow it.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction


def calibration_kernel() -> int:
    """Fixed pure-Python work in the program's own mix (Fractions, tuples,
    sorting, hashing), used only to gauge the machine's current speed."""
    points = []
    for i in range(1, 120):
        a = (Fraction(i, 7), Fraction(-i, 3), Fraction(i * i, 11))
        b = (Fraction(3, i), Fraction(i, 5), Fraction(-2, i))
        points.append(tuple(x + y for x, y in zip(a, b)))
    points.sort()
    return len(set(points))


def serve(requests, replies) -> None:
    for _ in requests:
        t0 = time.perf_counter()
        calibration_kernel()
        replies.write(f"{time.perf_counter() - t0!r}\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
