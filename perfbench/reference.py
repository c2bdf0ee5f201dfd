"""A fixed slice of reference work that gauges how fast the machine runs now.

On a shared machine the same pass of the same workload can take twice as
long from one minute to the next, with user CPU time moving as much as wall
time.  The benchmark times slices of this fixed work after every query, in
the same process, in proportion to the query's time.  It then rescales the
query times by SLICE_NOMINAL_S / (mean slice time): the time the pass would
have taken at the speed of a quiet spell on the machine the benchmark was
tuned on.  The slice never touches the program, so a change to the program
cannot move it.

The slice sorts many short integer rows with numpy.  On the tuning machine,
dividing by its time flattened the swings of all three workloads better
than slices of rational arithmetic, plain interpreter loops or small complex
matrix products did, alone or mixed.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one slice takes in a quiet spell on the 2-vCPU x86-64 machine
# the benchmark was tuned on.  It only sets the scale of the rescaled times.
SLICE_NOMINAL_S = 0.015

# One slice is timed for every this many seconds of measured work: about a
# tenth of the pass goes to the reference.
SLICE_EVERY_S = 0.15

_SORTS_PER_SLICE = 50


class Reference:
    def __init__(self):
        self._rows = np.random.default_rng(0).integers(0, 9, size=(4000, 9))

    def time_slice(self) -> float:
        """Seconds taken by one slice of the reference work."""
        start = time.perf_counter()
        for _ in range(_SORTS_PER_SLICE):
            np.argsort(self._rows, axis=1)
        return time.perf_counter() - start
