"""Host speed, measured with a fixed reference kernel.

On a shared VM the CPU itself speeds up and slows down: the same loop
takes up to 1.7× longer for minutes at a time, and that swing is far
larger than any bound a timing metric could hold.  The benchmark
therefore brackets every timed stretch of a run with
:func:`reference_s`, a fixed kernel of the kinds of work the program
does (interpreted dict updates, small numpy sorts, SQLite inserts),
and reports timings in *reference seconds*: one reference second is
the time in which the host runs the kernel ``1 / REFERENCE_S`` times.
A stretch measured while the kernel took ``r`` seconds is scaled by
:func:`factor` ``= REFERENCE_S / r``.

The kernel is timed with the calling thread's CPU clock and with the
garbage collector off, so neither the program's other threads holding
the GIL nor its heap can slow the kernel and flatter the program.
"""

from __future__ import annotations

import gc
import sqlite3
import time

import numpy as np

__all__ = ["REFERENCE_S", "factor", "reference_s"]

#: The kernel's time, in seconds, on a host running at reference speed
#: (about its uncontended time on a 2.0 GHz Xeon vCPU).
REFERENCE_S = 0.05


def reference_s() -> float:
    """Run the reference kernel once; its thread CPU seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        totals: dict[int, int] = {}
        for i in range(60_000):
            totals[i % 977] = totals.get(i % 977, 0) + i
        values = np.arange(20_000, dtype=float)
        for _ in range(50):
            values = np.sort(values[::-1] * 1.0001)
        db = sqlite3.connect(":memory:")
        try:
            db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
            db.executemany("INSERT INTO t VALUES (?, ?)", ((i, str(i)) for i in range(20_000)))
        finally:
            db.close()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for a stretch bracketed by kernel times ``before`` and
    ``after``: multiply its seconds by this to get reference seconds."""
    return 2.0 * REFERENCE_S / (before + after)
