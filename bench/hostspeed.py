"""How fast the shared host runs right now, from a fixed reference computation.

The machine the benchmark runs on is shared. Its speed drifts by up to half
over minutes, with the load other tenants put on the physical cores, so the
same code gives timings that differ by more than a regression bound between
runs a few minutes apart. A run therefore interleaves short slices of a fixed
reference computation with the workload's calls, about SHARE of the workload's
own time, and reports its timings scaled by REFERENCE_S over the mean slice
time: the time the workload would have taken while a slice took REFERENCE_S.
The reference does not touch curvepath, so a change to the program moves the
scaled timings exactly as it moves the measured ones.

The reference is the kind of work all three workloads spend most of their
time in, Python arithmetic (jets and expression trees in the geometry layers,
the per-vertex loop of the Monte Carlo action), in two halves of about equal
time that contention slows by different factors: float arithmetic on local
variables, which stays in the core, and arithmetic on small objects that a
slice allocates afresh and looks up in a dict, which goes through memory.
Fresh objects keep a slice's speed from hanging on where one process
happened to place a long-lived table. The cyclic garbage collector is off
during a slice, so that the objects the program left on the heap do not
change its cost.
"""
from __future__ import annotations

import gc
import time

SHARE = 0.1
# nominal wall time of one slice; the scaled timings read as on a host on
# which a slice takes this long
REFERENCE_S = 0.03
_SIZE = 6000
_STEPS = 120000


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float) -> None:
        self.v = v
        self.d = d

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.v + other.v, self.d + other.d)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.v * other.v, self.v * other.d + self.d * other.v)


def reference() -> float:
    """The fixed computation one slice runs; returns a checksum."""
    x, y = 0.0, 1.0
    for i in range(_STEPS):
        x = x * 0.999 + i * 1e-6
        y = y + x * 1e-3
    items = [_Dual(1.0 + 1e-4 * i, 1e-3) for i in range(_SIZE)]
    table = {(i, i % 7): item for i, item in enumerate(items)}
    acc = _Dual(0.0, 0.0)
    for i in range(_SIZE):
        j = (i * 37) % _SIZE
        acc = acc + table[j, j % 7] * items[(i * 11) % _SIZE]
    return x + y + acc.v + acc.d


class HostSpeed:
    """Slices of the reference computation, run so that they take about
    SHARE of the workload time reported to ``keep_up``."""

    def __init__(self) -> None:
        self.slices = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.work_wall = 0.0

    def keep_up(self, work_wall: float) -> None:
        """Account ``work_wall`` seconds of workload, then run slices until
        the reference has had its share of the time."""
        self.work_wall += work_wall
        while self.wall < SHARE * self.work_wall:
            enabled = gc.isenabled()
            gc.disable()
            try:
                c0 = time.process_time()
                t0 = time.perf_counter()
                reference()
                self.wall += time.perf_counter() - t0
                self.cpu += time.process_time() - c0
            finally:
                if enabled:
                    gc.enable()
            self.slices += 1

    @property
    def wall_scale(self) -> float:
        """Factor that turns a measured wall time into one at reference speed."""
        return REFERENCE_S * self.slices / self.wall

    @property
    def cpu_scale(self) -> float:
        """The same for CPU time, from the slices' CPU time, which leaves out
        time the hypervisor gave to other guests, as process CPU time does."""
        return REFERENCE_S * self.slices / self.cpu
